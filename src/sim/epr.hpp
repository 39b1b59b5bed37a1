// Probabilistic EPR-pair generation model. Generation across a quantum
// link succeeds with probability p per attempt round; a remote operation
// between QPUs `h` hops apart must entangle every link on the path (with
// deterministic entanglement swapping at intermediate nodes), so the
// effective per-round success probability decays as p^h.
//
// Allocating `x` communication-qubit pairs to one remote operation runs x
// independent generation pipelines per round: the round succeeds when any
// pipeline does, i.e. with probability 1 - (1 - p_eff)^x. This is the
// redundancy mechanism CloudQC's scheduler exploits for critical gates.
#pragma once

#include "common/rng.hpp"

namespace cloudqc {

class EprModel {
 public:
  /// Stall cap shared by both samplers. rounds_until_success truncates a
  /// single geometric draw to at most this many rounds, and
  /// rounds_until_k_successes truncates the accumulated negative-binomial
  /// total to the *same* bound, so the two paths cannot diverge by an
  /// order of magnitude when the success probability collapses (p^hops can
  /// be ~1e-9 at p=0.1 over a long path). The truncation biases the
  /// sampled tail low — a capped draw reports kMaxStallRounds rounds even
  /// though the true sample was larger — which is intentional: one
  /// pathological draw must not stall a whole simulation. Results are
  /// always in [1, kMaxStallRounds] and fit an int by construction.
  static constexpr int kMaxStallRounds = 100000;

  explicit EprModel(double success_prob);

  double success_prob() const { return p_; }

  /// Per-round success probability of one pipeline across `hops` links.
  double per_round_prob(int hops) const;

  /// Per-round success probability with `pairs` redundant pipelines across
  /// `hops` links: 1 - (1 - p^hops)^pairs.
  double per_round_prob(int hops, int pairs) const;

  /// Sample the number of attempt rounds until first success (geometric,
  /// support {1, 2, ...}) for `pairs` pipelines across `hops` links.
  /// Truncated to kMaxStallRounds (see above).
  int rounds_until_success(int hops, int pairs, Rng& rng) const;

  /// Expected rounds until success (1/q) — used by deterministic time
  /// estimators in placement scoring.
  double expected_rounds(int hops, int pairs) const;

  /// Sample the rounds needed to accumulate `k` successes (entanglement
  /// purification needs several raw pairs per delivered pair): sum of k
  /// independent geometric draws (negative binomial). Exactly k draws are
  /// consumed from `rng` regardless of truncation (RNG-stream stability),
  /// then the total is truncated to kMaxStallRounds.
  int rounds_until_k_successes(int hops, int pairs, int k, Rng& rng) const;

 private:
  double p_;
};

/// BBPSSW-style purification arithmetic (model-level; the simulator uses it
/// when CloudConfig::purification_level > 0).
namespace purification {

/// Output fidelity of one purification round combining two pairs of
/// fidelity `f` (Werner-state recurrence, success branch).
double purified_fidelity(double f);

/// Fidelity after `level` recursive rounds (2^level raw pairs consumed).
double purified_fidelity(double f, int level);

/// Exclusive upper bound on purification levels: 2^level raw pairs per
/// delivered pair must stay a sane int.
constexpr int kMaxLevel = 16;

/// Raw pairs consumed per delivered pair at `level` rounds: 2^level, for
/// level in [0, kMaxLevel).
int raw_pairs_needed(int level);

}  // namespace purification

}  // namespace cloudqc
