#include "graph/csr.hpp"

#include <algorithm>

#include "common/check.hpp"

namespace cloudqc {

CsrAdjacency::CsrAdjacency(const Graph& g) {
  const auto n = static_cast<std::size_t>(g.num_nodes());
  offset_.assign(n + 1, 0);
  std::size_t total = 0;
  for (NodeId u = 0; u < g.num_nodes(); ++u) {
    offset_[static_cast<std::size_t>(u)] = total;
    total += g.neighbors(u).size();
  }
  offset_[n] = total;
  to_.reserve(total);
  weight_.reserve(total);
  for (NodeId u = 0; u < g.num_nodes(); ++u) {
    for (const Edge& e : g.neighbors(u)) {
      to_.push_back(e.to);
      weight_.push_back(e.weight);
    }
  }
}

SortedCsr::SortedCsr(const Graph& g) {
  const auto n = static_cast<std::size_t>(g.num_nodes());
  offset_.assign(n + 1, 0);
  for (NodeId u = 0; u < g.num_nodes(); ++u) {
    offset_[static_cast<std::size_t>(u) + 1] =
        offset_[static_cast<std::size_t>(u)] + g.neighbors(u).size();
  }
  to_.resize(offset_[n]);
  for (NodeId u = 0; u < g.num_nodes(); ++u) {
    std::size_t i = offset_[static_cast<std::size_t>(u)];
    for (const Edge& e : g.neighbors(u)) to_[i++] = e.to;
    std::sort(to_.begin() +
                  static_cast<std::ptrdiff_t>(
                      offset_[static_cast<std::size_t>(u)]),
              to_.begin() + static_cast<std::ptrdiff_t>(i));
  }
}

int NodeBitmap::count() const {
  int total = 0;
  for (const std::uint64_t w : words_) {
#if defined(__GNUC__) || defined(__clang__)
    total += __builtin_popcountll(w);
#else
    for (std::uint64_t x = w; x != 0; x &= x - 1) ++total;
#endif
  }
  return total;
}

bool NodeBitmap::equals_under_mask(const NodeBitmap& other,
                                   const NodeBitmap& mask) const {
  CLOUDQC_DCHECK(words_.size() == other.words_.size() &&
                 words_.size() == mask.words_.size());
  for (std::size_t w = 0; w < words_.size(); ++w) {
    if ((words_[w] ^ other.words_[w]) & mask.words_[w]) return false;
  }
  return true;
}

}  // namespace cloudqc
