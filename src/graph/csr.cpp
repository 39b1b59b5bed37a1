#include "graph/csr.hpp"

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

}  // namespace cloudqc
