// Test-only reference copy of the congestion-aware router as it stood
// before its search was bounded (not a ctest target: only tests/*_test.cpp
// files become test binaries). routing_test checks the library router
// against it, path for path.
//
// What differs from src/schedule/routing.cpp, on purpose:
//   * the masked BFS runs to exhaustion over the whole topology, with a
//     per-call `blocked` mask over every QPU, and a path longer than the
//     detour cap is refused only after it has been found;
//   * every search clears its parent and seen arrays;
//   * the memo recognises its topology by content (node count and
//     adjacency rows, compared on every call), not by identity;
//   * Yen's algorithm is this file's own copy, over the same BFS.
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/check.hpp"
#include "graph/csr.hpp"
#include "schedule/routing.hpp"

namespace cloudqc::reference {

/// A topology's neighbour rows in ascending id: row u is
/// ids[at[u], at[u + 1]).
struct SortedRows {
  std::vector<std::size_t> at;
  std::vector<NodeId> ids;

  explicit SortedRows(const Graph& topo) {
    at.reserve(static_cast<std::size_t>(topo.num_nodes()) + 1);
    at.push_back(0);
    for (NodeId u = 0; u < topo.num_nodes(); ++u) {
      for (const auto& e : topo.neighbors(u)) ids.push_back(e.to);
      std::sort(ids.begin() + static_cast<std::ptrdiff_t>(at.back()),
                ids.end());
      at.push_back(ids.size());
    }
  }
  NodeId num_nodes() const { return static_cast<NodeId>(at.size() - 1); }
};

/// Hop-shortest path by a FIFO BFS over the sorted rows, skipping
/// `blocked` intermediates (never the destination). Unbounded.
inline std::optional<EprPath> bfs_path(const SortedRows& rows, QpuId src,
                                       QpuId dst,
                                       const std::vector<char>* blocked) {
  const auto n = static_cast<std::size_t>(rows.num_nodes());
  std::vector<NodeId> parent(n, kInvalidNode);
  std::vector<char> seen(n, 0);
  std::vector<NodeId> queue;
  seen[static_cast<std::size_t>(src)] = 1;
  queue.push_back(src);
  for (std::size_t head = 0; head < queue.size(); ++head) {
    const NodeId u = queue[head];
    if (u == dst) break;
    const auto row = static_cast<std::size_t>(u);
    for (std::size_t i = rows.at[row]; i < rows.at[row + 1]; ++i) {
      const NodeId v = rows.ids[i];
      if (seen[static_cast<std::size_t>(v)]) continue;
      if (blocked != nullptr && v != dst &&
          (*blocked)[static_cast<std::size_t>(v)]) {
        continue;
      }
      seen[static_cast<std::size_t>(v)] = 1;
      parent[static_cast<std::size_t>(v)] = u;
      queue.push_back(v);
    }
  }
  if (!seen[static_cast<std::size_t>(dst)]) return std::nullopt;
  EprPath path;
  for (NodeId at = dst; at != kInvalidNode;
       at = parent[static_cast<std::size_t>(at)]) {
    path.nodes.push_back(at);
    if (at == src) break;
  }
  std::reverse(path.nodes.begin(), path.nodes.end());
  if (path.nodes.front() != src) return std::nullopt;
  return path;
}

/// Yen's k loop-free shortest paths over bfs_path.
inline std::vector<EprPath> k_shortest_paths(const Graph& topology, QpuId src,
                                             QpuId dst, int k) {
  std::vector<EprPath> result;
  const SortedRows rows(topology);
  const auto first = bfs_path(rows, src, dst, nullptr);
  if (!first.has_value()) return result;
  result.push_back(*first);
  const auto n = static_cast<std::size_t>(topology.num_nodes());
  std::vector<EprPath> candidates;
  const auto already_found = [&](const EprPath& p) {
    const auto same = [&p](const EprPath& q) { return q.nodes == p.nodes; };
    return std::any_of(result.begin(), result.end(), same) ||
           std::any_of(candidates.begin(), candidates.end(), same);
  };
  std::vector<char> blocked;
  std::vector<char> on_path(n, 0);
  while (static_cast<int>(result.size()) < k) {
    const EprPath& prev = result.back();
    for (std::size_t i = 0; i + 1 < prev.nodes.size(); ++i) {
      const QpuId spur = prev.nodes[i];
      blocked.assign(n, 0);
      for (std::size_t j = 0; j < i; ++j) {
        blocked[static_cast<std::size_t>(prev.nodes[j])] = 1;
      }
      for (const auto& known : result) {
        if (known.nodes.size() > i &&
            std::equal(known.nodes.begin(),
                       known.nodes.begin() + static_cast<std::ptrdiff_t>(i) +
                           1,
                       prev.nodes.begin()) &&
            known.nodes.size() > i + 1) {
          blocked[static_cast<std::size_t>(known.nodes[i + 1])] = 1;
        }
      }
      if (blocked[static_cast<std::size_t>(dst)]) continue;
      const auto spur_path = bfs_path(rows, spur, dst, &blocked);
      if (!spur_path.has_value()) continue;
      EprPath total;
      total.nodes.assign(prev.nodes.begin(),
                         prev.nodes.begin() + static_cast<std::ptrdiff_t>(i));
      total.nodes.insert(total.nodes.end(), spur_path->nodes.begin(),
                         spur_path->nodes.end());
      bool loop_free = true;
      for (const QpuId q : total.nodes) {
        char& mark = on_path[static_cast<std::size_t>(q)];
        if (mark) loop_free = false;
        mark = 1;
      }
      for (const QpuId q : total.nodes) {
        on_path[static_cast<std::size_t>(q)] = 0;
      }
      if (!loop_free || already_found(total)) continue;
      candidates.push_back(std::move(total));
    }
    if (candidates.empty()) break;
    const auto best = std::min_element(
        candidates.begin(), candidates.end(),
        [](const EprPath& a, const EprPath& b) {
          if (a.nodes.size() != b.nodes.size()) {
            return a.nodes.size() < b.nodes.size();
          }
          return a.nodes < b.nodes;
        });
    result.push_back(*best);
    candidates.erase(best);
  }
  return result;
}

class CongestionAwareRouter final : public EprRouter {
 public:
  explicit CongestionAwareRouter(int max_extra_hops)
      : max_extra_hops_(max_extra_hops) {}

  std::string name() const override { return "congestion-aware"; }

  std::optional<EprPath> route(const QuantumCloud& cloud, QpuId src, QpuId dst,
                               const std::vector<int>& free_comm)
      const override {
    const Graph& topo = cloud.topology();
    check_route_endpoints(topo, src, dst);
    CLOUDQC_CHECK(free_comm.size() ==
                  static_cast<std::size_t>(topo.num_nodes()));
    const int direct_hops = cloud.distance(src, dst);
    if (direct_hops < 0) return std::nullopt;
    const std::vector<EprPath>& candidates = static_paths(topo, src, dst);

    std::vector<char> blocked(static_cast<std::size_t>(topo.num_nodes()), 0);
    for (NodeId v = 0; v < topo.num_nodes(); ++v) {
      if (v != src && v != dst &&
          free_comm[static_cast<std::size_t>(v)] <= 0) {
        blocked[static_cast<std::size_t>(v)] = 1;
      }
    }
    const auto unblocked = bfs_path(*rows_, src, dst, &blocked);
    if (!unblocked.has_value() ||
        unblocked->hops() > direct_hops + max_extra_hops_) {
      if (candidates.empty()) return std::nullopt;
      return candidates.front();
    }
    const EprPath* best = &*unblocked;
    double best_load = load_of(*unblocked, free_comm);
    for (const auto& p : candidates) {
      if (p.hops() != unblocked->hops()) continue;
      bool viable = true;
      for (std::size_t j = 1; j + 1 < p.nodes.size(); ++j) {
        if (blocked[static_cast<std::size_t>(p.nodes[j])]) viable = false;
      }
      if (!viable) continue;
      const double load = load_of(p, free_comm);
      if (load < best_load - 1e-12) {
        best_load = load;
        best = &p;
      }
    }
    return *best;
  }

 private:
  static double load_of(const EprPath& p, const std::vector<int>& free_comm) {
    double load = 0.0;
    for (std::size_t j = 1; j + 1 < p.nodes.size(); ++j) {
      load += 1.0 / (free_comm[static_cast<std::size_t>(p.nodes[j])] + 1.0);
    }
    return load;
  }

  const std::vector<EprPath>& static_paths(const Graph& topo, QpuId src,
                                           QpuId dst) const {
    if (!memo_topology_matches(topo)) {
      paths_.clear();
      memo_topology_ = CsrAdjacency(topo);
      rows_.emplace(topo);
    }
    const std::uint64_t key =
        static_cast<std::uint64_t>(src) *
            static_cast<std::uint64_t>(topo.num_nodes()) +
        static_cast<std::uint64_t>(dst);
    const auto hit = paths_.find(key);
    if (hit != paths_.end()) return hit->second;
    return paths_.emplace(key, reference::k_shortest_paths(topo, src, dst, 5))
        .first->second;
  }

  bool memo_topology_matches(const Graph& topo) const {
    if (!rows_.has_value()) return false;
    if (memo_topology_.num_nodes() != topo.num_nodes()) return false;
    for (NodeId u = 0; u < topo.num_nodes(); ++u) {
      const std::vector<Edge>& row = topo.neighbors(u);
      if (memo_topology_.degree(u) != row.size()) return false;
      std::size_t at = memo_topology_.begin(u);
      for (const Edge& e : row) {
        if (memo_topology_.to(at++) != e.to) return false;
      }
    }
    return true;
  }

  int max_extra_hops_;
  mutable CsrAdjacency memo_topology_{Graph(0)};
  mutable std::optional<SortedRows> rows_;
  mutable std::unordered_map<std::uint64_t, std::vector<EprPath>> paths_;
};

}  // namespace cloudqc::reference
