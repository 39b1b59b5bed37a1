#include "schedule/routing.hpp"

#include <algorithm>
#include <cstdint>
#include <limits>
#include <unordered_map>

#include "common/check.hpp"

namespace cloudqc {
namespace {

/// A topology's neighbour rows in ascending id, the order every BFS here
/// visits them in: row u is ids[at[u], at[u + 1]).
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

/// bfs_path's buffers, reused across searches. A node is seen by the
/// current search when seen[v] == stamp: each search takes a fresh stamp
/// instead of clearing the arrays, so it costs the nodes it reaches, not
/// the topology. parent[v] is meaningful only for a seen node.
struct BfsScratch {
  std::vector<NodeId> parent;
  std::vector<std::uint32_t> seen;
  std::vector<NodeId> queue;
  std::uint32_t stamp = 0;

  void begin(std::size_t n) {
    if (seen.size() < n) {
      seen.resize(n, 0);
      parent.resize(n, kInvalidNode);
    }
    if (++stamp == 0) {  // wrapped: old stamps would read as seen
      std::fill(seen.begin(), seen.end(), 0);
      stamp = 1;
    }
    queue.clear();
  }
};

/// A search bound that no path reaches: a loop-free path has fewer than
/// num_nodes hops.
constexpr int kNoHopBound = std::numeric_limits<int>::max();

/// Hop-shortest path with deterministic (lowest-id) tie-breaking: a FIFO
/// BFS over the ascending rows, so every node's parent is its lowest-id
/// neighbour in the previous level. Intermediate nodes for which
/// `blocked(v)` holds are skipped; the destination never is (its qubits are
/// accounted by the endpoint allocation). Nodes `max_hops` away from `src`
/// are not expanded, so a path longer than `max_hops` is reported as none;
/// the bound changes no parent within it. The search stops as soon as it
/// reaches `dst`, whose parent is final from then on. Allocates nothing but
/// the path once `scratch` has grown to the topology's size.
template <typename Blocked>
std::optional<EprPath> bfs_path(const SortedRows& rows, QpuId src, QpuId dst,
                                const Blocked& blocked, int max_hops,
                                BfsScratch& scratch) {
  scratch.begin(static_cast<std::size_t>(rows.num_nodes()));
  std::vector<NodeId>& parent = scratch.parent;
  std::vector<std::uint32_t>& seen = scratch.seen;
  std::vector<NodeId>& queue = scratch.queue;
  const std::uint32_t stamp = scratch.stamp;
  seen[static_cast<std::size_t>(src)] = stamp;
  queue.push_back(src);
  bool found = false;
  std::size_t level_end = queue.size();  // queue[..level_end) is `level`
  int level = 0;
  for (std::size_t head = 0; head < queue.size() && !found; ++head) {
    if (head == level_end) {
      ++level;
      level_end = queue.size();
    }
    if (level == max_hops) break;
    const NodeId u = queue[head];
    const auto row = static_cast<std::size_t>(u);
    for (std::size_t i = rows.at[row]; i < rows.at[row + 1]; ++i) {
      const NodeId v = rows.ids[i];
      const auto vi = static_cast<std::size_t>(v);
      if (seen[vi] == stamp) continue;
      if (v != dst && blocked(v)) continue;
      seen[vi] = stamp;
      parent[vi] = u;
      if (v == dst) {
        found = true;
        break;
      }
      queue.push_back(v);
    }
  }
  if (!found) return std::nullopt;
  EprPath path;
  for (NodeId at = dst; at != src; at = parent[static_cast<std::size_t>(at)]) {
    path.nodes.push_back(at);
  }
  path.nodes.push_back(src);
  std::reverse(path.nodes.begin(), path.nodes.end());
  return path;
}

/// bfs_path's `blocked` for an unmasked search.
bool never_blocked(NodeId /*v*/) { return false; }

class ShortestPathRouter final : public EprRouter {
 public:
  std::string name() const override { return "shortest-path"; }

  std::optional<EprPath> route(const QuantumCloud& cloud, QpuId src, QpuId dst,
                               const std::vector<int>& free_comm)
      const override {
    check_route_endpoints(cloud.topology(), src, dst);
    (void)free_comm;
    BfsScratch scratch;
    return bfs_path(SortedRows(cloud.topology()), src, dst, never_blocked,
                    kNoHopBound, scratch);
  }
};

class CongestionAwareRouter final : public EprRouter {
 public:
  explicit CongestionAwareRouter(int max_extra_hops)
      : max_extra_hops_(max_extra_hops) {
    CLOUDQC_CHECK(max_extra_hops >= 0);
  }

  std::string name() const override { return "congestion-aware"; }

  std::optional<EprPath> route(const QuantumCloud& cloud, QpuId src, QpuId dst,
                               const std::vector<int>& free_comm)
      const override {
    const Graph& topo = cloud.topology();
    check_route_endpoints(topo, src, dst);
    CLOUDQC_CHECK(free_comm.size() ==
                  static_cast<std::size_t>(topo.num_nodes()));

    // The cloud's hop matrix is the same BFS over the same topology, so it
    // gives the unmasked path length without a search.
    const int direct_hops = cloud.distance(src, dst);
    if (direct_hops < 0) return std::nullopt;  // disconnected

    // The memo first: it also holds the sorted rows the masked BFS reads.
    const std::vector<EprPath>& candidates = static_paths(cloud, src, dst);

    // Saturated intermediates are unusable (no qubit left to swap with);
    // find the shortest path avoiding them. A path longer than the bound
    // is never taken, so the search does not look past it.
    const auto saturated = [&free_comm](NodeId v) {
      return free_comm[static_cast<std::size_t>(v)] <= 0;
    };
    // A loop-free path has fewer than num_nodes hops, so capping the
    // extra hops there changes nothing and keeps the sum in range.
    const int max_hops =
        direct_hops + std::min(max_extra_hops_, topo.num_nodes());
    auto unblocked = bfs_path(rows_, src, dst, saturated, max_hops, scratch_);
    if (!unblocked.has_value()) {
      // Every viable detour is too long: queue on the plain shortest path
      // (EPR success decays as p^hops, so a long detour costs more than
      // waiting for the hot QPU to free up). Yen's first path is it.
      if (candidates.empty()) return std::nullopt;
      return candidates.front();
    }

    // Among paths of the unblocked-minimal length, pick the one with the
    // least-loaded intermediates (sum of 1/(free+1)).
    const EprPath* best = &*unblocked;
    double best_load = load_of(*unblocked, free_comm);
    for (const auto& p : candidates) {
      if (p.hops() != unblocked->hops()) continue;
      bool viable = true;
      for (std::size_t j = 1; j + 1 < p.nodes.size(); ++j) {
        if (saturated(p.nodes[j])) viable = false;
      }
      if (!viable) continue;
      const double load = load_of(p, free_comm);
      if (load < best_load - 1e-12) {
        best_load = load;
        best = &p;
      }
    }
    if (best != &*unblocked) return *best;
    return unblocked;
  }

 private:
  static constexpr int kCandidates = 5;

  static double load_of(const EprPath& p, const std::vector<int>& free_comm) {
    double load = 0.0;
    for (std::size_t j = 1; j + 1 < p.nodes.size(); ++j) {
      load += 1.0 / (free_comm[static_cast<std::size_t>(p.nodes[j])] + 1.0);
    }
    return load;
  }

  /// k_shortest_paths(topology, src, dst, kCandidates), computed once per
  /// (src, dst) and topology. The memo holds the cloud's shared, immutable
  /// topology, so a pointer compare recognises it: the memo co-owns the
  /// graph, whose address therefore cannot be reused while the memo names
  /// it. A different topology drops the memo.
  const std::vector<EprPath>& static_paths(const QuantumCloud& cloud,
                                           QpuId src, QpuId dst) const {
    const std::shared_ptr<const Graph>& topo = cloud.shared_topology();
    if (topo != memo_topology_) {
      paths_.clear();
      rows_ = SortedRows(*topo);
      memo_topology_ = topo;
    }
    const std::uint64_t key =
        static_cast<std::uint64_t>(src) * static_cast<std::uint64_t>(
                                              topo->num_nodes()) +
        static_cast<std::uint64_t>(dst);
    const auto hit = paths_.find(key);
    if (hit != paths_.end()) return hit->second;
    return paths_.emplace(key, k_shortest_paths(*topo, src, dst, kCandidates))
        .first->second;
  }

  int max_extra_hops_;
  // The memo, filled on first use, and the topology it belongs to.
  mutable std::shared_ptr<const Graph> memo_topology_;
  mutable SortedRows rows_{Graph(0)};
  /// Candidates by src * num_nodes + dst; looked up, never iterated.
  mutable std::unordered_map<std::uint64_t, std::vector<EprPath>> paths_;
  // The masked search's buffers, reused across calls.
  mutable BfsScratch scratch_;
};

// The masked-shortest-path policy, computed fresh per call with a
// level-synchronous BFS. The tie-break contract:
//
//   * levels are processed synchronously, and within a level the frontier
//     is iterated in ascending node id. A node is claimed by the first
//     frontier node that reaches it, so its parent is its lowest-id
//     neighbour in the previous level; the order of each node's adjacency
//     list does not matter;
//   * a saturated node (free_comm <= 0, other than src) is *claimable*
//     (it can terminate a path: destinations are endpoint-exempt) but
//     never *expandable* (it never enters the frontier, so no path
//     transits it).
class MaskedShortestRouter final : public EprRouter {
 public:
  std::string name() const override { return "masked-shortest"; }

  std::optional<EprPath> route(const QuantumCloud& cloud, QpuId src, QpuId dst,
                               const std::vector<int>& free_comm)
      const override {
    const Graph& topo = cloud.topology();
    check_route_endpoints(topo, src, dst);
    const auto n = static_cast<std::size_t>(topo.num_nodes());
    CLOUDQC_CHECK(free_comm.size() == n);

    std::vector<NodeId> parent(n, kInvalidNode);
    std::vector<char> claimed(n, 0);
    std::vector<NodeId> frontier{src};
    std::vector<NodeId> next;
    claimed[static_cast<std::size_t>(src)] = 1;
    while (!frontier.empty() && !claimed[static_cast<std::size_t>(dst)]) {
      next.clear();
      for (const NodeId u : frontier) {
        for (const auto& e : topo.neighbors(u)) {
          const NodeId v = e.to;
          if (claimed[static_cast<std::size_t>(v)]) continue;
          claimed[static_cast<std::size_t>(v)] = 1;
          parent[static_cast<std::size_t>(v)] = u;
          if (free_comm[static_cast<std::size_t>(v)] > 0) next.push_back(v);
        }
      }
      // Claims above arrive in (frontier-rank, adjacency) order, which is
      // not ascending — restore the invariant.
      std::sort(next.begin(), next.end());
      frontier.swap(next);
    }
    if (!claimed[static_cast<std::size_t>(dst)]) return std::nullopt;
    EprPath path;
    for (NodeId at = dst; at != kInvalidNode;
         at = parent[static_cast<std::size_t>(at)]) {
      path.nodes.push_back(at);
    }
    std::reverse(path.nodes.begin(), path.nodes.end());
    CLOUDQC_DCHECK(path.nodes.front() == src);
    return path;
  }
};

}  // namespace

std::unique_ptr<EprRouter> make_shortest_path_router() {
  return std::make_unique<ShortestPathRouter>();
}

std::unique_ptr<EprRouter> make_congestion_aware_router(int max_extra_hops) {
  return std::make_unique<CongestionAwareRouter>(max_extra_hops);
}

std::unique_ptr<EprRouter> make_masked_shortest_router() {
  return std::make_unique<MaskedShortestRouter>();
}

std::vector<EprPath> k_shortest_paths(const Graph& topology, QpuId src,
                                      QpuId dst, int k) {
  CLOUDQC_CHECK(k >= 1);
  check_route_endpoints(topology, src, dst);
  std::vector<EprPath> result;
  const SortedRows rows(topology);
  BfsScratch scratch;
  const auto first =
      bfs_path(rows, src, dst, never_blocked, kNoHopBound, scratch);
  if (!first.has_value()) return result;
  result.push_back(*first);

  // Yen's algorithm over unit edge weights, with node-removal encoded via
  // the `blocked` mask of bfs_path. Every path found so far is in `result`
  // or `candidates`, and both stay small, so a linear scan over them
  // de-duplicates.
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
      // Block the nodes of the root prefix (except the spur itself) and
      // the next hop every known path takes from this prefix.
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
      const auto masked = [&blocked](NodeId v) {
        return blocked[static_cast<std::size_t>(v)] != 0;
      };
      const auto spur_path =
          bfs_path(rows, spur, dst, masked, kNoHopBound, scratch);
      if (!spur_path.has_value()) continue;
      EprPath total;
      total.nodes.assign(prev.nodes.begin(),
                         prev.nodes.begin() + static_cast<std::ptrdiff_t>(i));
      total.nodes.insert(total.nodes.end(), spur_path->nodes.begin(),
                         spur_path->nodes.end());
      // Loop-free check: Yen with node-blocking guarantees it, but guard
      // against prefix/spur overlap regardless.
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

void check_route_endpoints(const Graph& topology, QpuId src, QpuId dst) {
  const QpuId n = topology.num_nodes();
  CLOUDQC_CHECK_MSG(src >= 0 && src < n && dst >= 0 && dst < n,
                    "route endpoint is not a QPU of this topology");
  CLOUDQC_CHECK(src != dst);
}

}  // namespace cloudqc
