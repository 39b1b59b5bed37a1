// Communication-qubit allocation strategies (Sec. V-C and the Sec. VI-C
// baselines). At every scheduling decision point the simulator hands the
// allocator the set of ready remote operations plus the per-QPU free
// communication-qubit counts; the allocator decides how many redundant
// EPR-generation pipelines each operation receives (0 = wait).
//
// Decision points are change-gated (see sim/network_sim.hpp): the
// simulator only invokes the allocator when the free-comm vector or the
// ready set changed since the last round, and — with routing enabled —
// may invoke it several times per event until a round starts no
// operation. Implementations must therefore be pure functions of
// (requests, free_comm, rng): identical inputs must yield identical
// grants, and an implementation must not rely on being called once per
// simulated event. The three deterministic strategies below ignore `rng`
// entirely, so for them a skipped round on unchanged state is provably a
// round that would have started nothing.
//
// The simulator offers only fundable requests: those whose two endpoint
// QPUs each have at least one free communication qubit. It still makes
// exactly one allocate() call per decision point, possibly with an empty
// list. Dropping the rest is exact for every strategy here, because
// free_comm only decreases inside allocate(): such a request would get 0
// pairs, and the survivors keep their relative order, so the priority
// orders, Average's round-robin and Random's takeable list (hence its
// draws) are unchanged. A new strategy must keep that property: its grants
// may not depend on requests it cannot fund.
//
// Allocating x pairs to an op consumes x communication qubits on *both*
// endpoint QPUs, mirroring the paper's note that resources on both machines
// decrease by the allocated amount.
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "cloud/cloud.hpp"
#include "common/rng.hpp"

namespace cloudqc {

/// One ready remote operation competing for communication qubits.
struct CommRequest {
  /// Opaque caller handle (job id / node id); not interpreted here.
  int handle = 0;
  /// Scheduling priority (longest path to a remote-DAG leaf).
  double priority = 0.0;
  QpuId qpu_a = kInvalidNode;
  QpuId qpu_b = kInvalidNode;
};

class CommAllocator {
 public:
  virtual ~CommAllocator() = default;
  virtual std::string name() const = 0;

  /// Decide pair counts for each request (same order as `requests`).
  /// `free_comm[q]` is the number of free communication qubits on QPU q;
  /// the returned allocation must satisfy, for every QPU q,
  ///   Σ_{r : q ∈ {r.a, r.b}} pairs[r] ≤ free_comm[q].
  /// A request may receive 0 (it waits for the next decision point).
  virtual std::vector<int> allocate(const std::vector<CommRequest>& requests,
                                    std::vector<int> free_comm,
                                    Rng& rng) const = 0;
};

/// Indices of `requests` by descending priority, ties in request order
/// (FIFO, part of the starvation-freedom story): the order CloudQC and
/// Greedy serve requests in. Equal to std::stable_sort on descending
/// priority. Throws std::logic_error if a priority is NaN.
std::vector<std::size_t> priority_order(
    const std::vector<CommRequest>& requests);

/// CloudQC: every schedulable request first receives one pair in priority
/// order (starvation freedom), then the remaining budget is handed out one
/// pair at a time to the request with the highest priority-per-pair ratio
/// (proportionally fair redundancy — critical gates get the most failure
/// tolerance). `max_redundancy` caps pairs per op; the default is
/// effectively uncapped.
std::unique_ptr<CommAllocator> make_cloudqc_allocator(
    int max_redundancy = 1 << 20);

/// Greedy: the highest-priority request takes as much as it can, then the
/// next, and so on.
std::unique_ptr<CommAllocator> make_greedy_allocator();

/// Average: repeated round-robin, one pair at a time, until nothing fits.
std::unique_ptr<CommAllocator> make_average_allocator();

/// Random: requests receive single pairs in a uniformly random order.
std::unique_ptr<CommAllocator> make_random_allocator();

}  // namespace cloudqc
