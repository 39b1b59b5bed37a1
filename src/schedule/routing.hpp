// Entanglement path selection for remote operations (the "Selected paths"
// input to resource allocation in the paper's Fig. 4 workflow; the
// congestion-aware variant follows the concurrent entanglement-routing line
// of work the paper cites [37]).
//
// A remote gate between QPUs more than one hop apart must entangle every
// link along a path and swap at intermediate nodes. Which path is chosen
// matters under contention: the shortest path may run through a hot QPU
// whose communication qubits are exhausted.
#pragma once

#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "cloud/cloud.hpp"

namespace cloudqc {

/// A routed path: QPU sequence from source to destination (inclusive).
struct EprPath {
  std::vector<QpuId> nodes;

  int hops() const { return static_cast<int>(nodes.size()) - 1; }
  bool valid() const { return nodes.size() >= 2; }
};

/// Router interface: choose a path for a remote op given the current free
/// communication qubits per QPU (`free_comm`). Returns nullopt when no
/// usable path exists (e.g. an intermediate QPU has zero free qubits and
/// every detour is saturated too). nullopt is binding on the caller: the
/// simulator requeues the operation until the congestion state changes —
/// it never falls back to executing over the static hop count, which
/// would silently bypass the saturated intermediates this contract is
/// reporting. Implementations must be deterministic functions of their
/// arguments (the change-gated event loop may consult them repeatedly on
/// identical state and relies on identical answers). `src` and `dst` must
/// be distinct QPU ids of `cloud`; route() throws std::logic_error
/// otherwise (see check_route_endpoints).
class EprRouter {
 public:
  virtual ~EprRouter() = default;
  virtual std::string name() const = 0;
  virtual std::optional<EprPath> route(const QuantumCloud& cloud, QpuId src,
                                       QpuId dst,
                                       const std::vector<int>& free_comm)
      const = 0;
};

/// Always the hop-shortest path (ties broken deterministically by node id).
/// Ignores congestion — the paper's implicit default.
std::unique_ptr<EprRouter> make_shortest_path_router();

/// Congestion-aware: among *minimal-hop* paths, picks the one whose
/// intermediate QPUs are least loaded. Longer detours are taken only when
/// every shorter path has a saturated (zero-free) swap node, and never more
/// than `max_extra_hops` beyond the minimum — EPR success decays as p^hops,
/// so a detour costs exponentially more generation rounds and is only worth
/// it to avoid outright blocking. Falls back to the plain shortest path
/// when every alternative is saturated.
///
/// The router memoizes, per (src, dst), the static part of its answer:
/// the k_shortest_paths candidates, whose first path is the fallback.
/// Both are pure functions of the topology, so the memo changes no path.
/// The memo holds the cloud's shared, immutable topology
/// (QuantumCloud::shared_topology()) and is dropped when route() is handed
/// a cloud with another one. Holding the pointer makes identity exact: the
/// memo co-owns the graph, so its address cannot name a different graph
/// while the memo points at it, and a cloud and its copies share one memo
/// fill. The saturation-masked search still runs on every call, over
/// neighbour rows sorted once with the memo, and reads `free_comm`
/// directly. It expands no node at the detour cap (shortest +
/// max_extra_hops hops from the source), because a longer masked path is
/// refused anyway; the FIFO order over the sorted rows is unchanged, so
/// the bound changes no path. Its buffers are reused
/// across calls and need no per-call clearing, so a call costs the part of
/// the cloud it searches, not the whole cloud. Because route() fills the
/// memo and the buffers, a congestion-aware router is confined to one
/// thread, unlike the other routers, which are stateless.
std::unique_ptr<EprRouter> make_congestion_aware_router(int max_extra_hops = 2);

/// Masked shortest path. The path is the hop-shortest one that never
/// transits a *saturated* intermediate QPU (free_comm <= 0); the endpoints
/// are exempt (their qubits are accounted by the endpoint allocation).
/// Unlike the congestion-aware router there is no detour cap and no load
/// scoring: a saturated cut means nullopt, and the simulator requeues the
/// op until the congestion state changes (the stall contract above).
///
/// Canonical tie-break: the BFS is level-synchronous and every node's
/// parent is its lowest-id neighbour in the previous level, whatever order
/// the topology stores its adjacency in. The chosen path is therefore a
/// pure function of (topology edge set, src, dst, saturation set).
std::unique_ptr<EprRouter> make_masked_shortest_router();

/// Enumerate up to `k` loop-free shortest paths between two QPUs (Yen's
/// algorithm over hop counts). The first is the shortest-path router's
/// path; the list is empty when `dst` is unreachable. Exposed for tests
/// and for router implementations. Throws std::logic_error unless `src`
/// and `dst` are distinct node ids of `topology`.
std::vector<EprPath> k_shortest_paths(const Graph& topology, QpuId src,
                                      QpuId dst, int k);

/// Throws std::logic_error unless `src` and `dst` are distinct node ids in
/// [0, topology.num_nodes()). Every router's route() calls it on entry,
/// before it indexes any per-QPU array with either id.
void check_route_endpoints(const Graph& topology, QpuId src, QpuId dst);

}  // namespace cloudqc
