// FNV-1a digest shared by the pinned-output suites (not a ctest target:
// only tests/*_test.cpp files become test binaries). A suite folds every
// output it pins — integers, vectors and the bit patterns of doubles —
// into one 64-bit hash, so its tables stay short while every bit is still
// covered.
#pragma once

#include <cstdint>
#include <cstring>
#include <iomanip>
#include <sstream>
#include <string>
#include <vector>

namespace cloudqc::testing {

class Fnv {
 public:
  void add(std::uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      h_ ^= (v >> (8 * i)) & 0xffu;
      h_ *= 0x100000001b3ull;
    }
  }
  void add_double(double d) {
    std::uint64_t bits = 0;
    std::memcpy(&bits, &d, sizeof bits);
    add(bits);
  }
  void add_ints(const std::vector<int>& v) {
    add(v.size());
    for (const int x : v) {
      add(static_cast<std::uint64_t>(static_cast<std::int64_t>(x)));
    }
  }
  std::uint64_t value() const { return h_; }

 private:
  std::uint64_t h_ = 0xcbf29ce484222325ull;
};

inline std::string hex(std::uint64_t v) {
  std::ostringstream os;
  os << "0x" << std::hex << std::setw(16) << std::setfill('0') << v;
  return os.str();
}

/// One pinned digest and the case it belongs to.
struct Pin {
  const char* name;
  const char* hash;
};

}  // namespace cloudqc::testing
