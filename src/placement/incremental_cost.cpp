#include "placement/incremental_cost.hpp"

#include "common/check.hpp"

namespace cloudqc {

PlacementContext PlacementContext::for_program(
    const std::shared_ptr<const CircuitProgram>& program) {
  CLOUDQC_CHECK(program != nullptr);
  // Aliasing pointers: each shares the program's ownership.
  PlacementContext ctx;
  ctx.interaction =
      std::shared_ptr<const Graph>(program, &program->interaction());
  ctx.csr = std::shared_ptr<const CsrAdjacency>(program, &program->csr());
  ctx.dag = std::shared_ptr<const CircuitDag>(program, &program->dag());
  return ctx;
}

PlacementContext PlacementContext::for_circuit(const Circuit& circuit) {
  return for_program(std::make_shared<const CircuitProgram>(circuit));
}

IncrementalCostModel::IncrementalCostModel(const Circuit& circuit,
                                           const QuantumCloud& cloud)
    : IncrementalCostModel(
          std::make_shared<CsrAdjacency>(circuit.interaction_graph()), cloud) {}

IncrementalCostModel::IncrementalCostModel(
    std::shared_ptr<const CsrAdjacency> csr, const QuantumCloud& cloud)
    : csr_(std::move(csr)), cloud_(&cloud) {
  CLOUDQC_CHECK(csr_ != nullptr);
  qpu_slot_scratch_.assign(static_cast<std::size_t>(cloud.num_qpus()), 0);
}

void IncrementalCostModel::reset(const std::vector<QpuId>& qubit_to_qpu) {
  CLOUDQC_CHECK(qubit_to_qpu.size() ==
                static_cast<std::size_t>(csr_->num_nodes()));
  mapping_ = qubit_to_qpu;
  usage_.assign(static_cast<std::size_t>(cloud_->num_qpus()), 0);
  for (const QpuId p : mapping_) {
    CLOUDQC_CHECK(p >= 0 && p < cloud_->num_qpus());
    ++usage_[static_cast<std::size_t>(p)];
  }
  // Each undirected edge once (v > u); self-loops cost 0 by definition.
  cost_ = 0.0;
  for (NodeId u = 0; u < csr_->num_nodes(); ++u) {
    const QpuId pu = mapping_[static_cast<std::size_t>(u)];
    for (std::size_t i = csr_->begin(u); i < csr_->end(u); ++i) {
      const NodeId v = csr_->to(i);
      if (v <= u) continue;
      cost_ += csr_->weight(i) *
               cloud_->distance(pu, mapping_[static_cast<std::size_t>(v)]);
    }
  }
}

bool IncrementalCostModel::move_fits(QpuId to) const {
  return usage_[static_cast<std::size_t>(to)] + 1 <=
         cloud_->qpu(to).free_computing();
}

double IncrementalCostModel::move_delta(int q, QpuId to) const {
  const QpuId from = mapping_[static_cast<std::size_t>(q)];
  if (to == from) return 0.0;
  double d = 0.0;
  for (std::size_t i = csr_->begin(q); i < csr_->end(q); ++i) {
    const QpuId peer = mapping_[static_cast<std::size_t>(csr_->to(i))];
    d += csr_->weight(i) *
         (cloud_->distance(to, peer) - cloud_->distance(from, peer));
  }
  return d;
}

double IncrementalCostModel::swap_delta(int q1, int q2) const {
  if (q1 == q2) return 0.0;
  const QpuId p1 = mapping_[static_cast<std::size_t>(q1)];
  const QpuId p2 = mapping_[static_cast<std::size_t>(q2)];
  if (p1 == p2) return 0.0;
  // Grouped exactly like the mutate-and-recompute formulation the placers
  // previously used: (incident(q1)' + incident(q2)') - (incident(q1) +
  // incident(q2)), with the q1–q2 edge double-counted on both sides so it
  // cancels.
  double b1 = 0.0;
  double a1 = 0.0;
  for (std::size_t i = csr_->begin(q1); i < csr_->end(q1); ++i) {
    const NodeId peer = csr_->to(i);
    const QpuId pq = mapping_[static_cast<std::size_t>(peer)];
    b1 += csr_->weight(i) * cloud_->distance(p1, pq);
    const QpuId pq_after =
        peer == static_cast<NodeId>(q2)
            ? p1
            : (peer == static_cast<NodeId>(q1) ? p2 : pq);
    a1 += csr_->weight(i) * cloud_->distance(p2, pq_after);
  }
  double b2 = 0.0;
  double a2 = 0.0;
  for (std::size_t i = csr_->begin(q2); i < csr_->end(q2); ++i) {
    const NodeId peer = csr_->to(i);
    const QpuId pq = mapping_[static_cast<std::size_t>(peer)];
    b2 += csr_->weight(i) * cloud_->distance(p2, pq);
    const QpuId pq_after =
        peer == static_cast<NodeId>(q1)
            ? p2
            : (peer == static_cast<NodeId>(q2) ? p1 : pq);
    a2 += csr_->weight(i) * cloud_->distance(p1, pq_after);
  }
  return (a1 + a2) - (b1 + b2);
}

double IncrementalCostModel::relocation_cost(int q, QpuId to) const {
  double c = 0.0;
  for (std::size_t i = csr_->begin(q); i < csr_->end(q); ++i) {
    c += csr_->weight(i) *
         cloud_->distance(to, mapping_[static_cast<std::size_t>(csr_->to(i))]);
  }
  return c;
}

const std::vector<std::pair<QpuId, double>>&
IncrementalCostModel::neighbor_qpu_weights(int q) {
  qpu_weights_.clear();
  for (std::size_t i = csr_->begin(q); i < csr_->end(q); ++i) {
    const QpuId p = mapping_[static_cast<std::size_t>(csr_->to(i))];
    int& slot = qpu_slot_scratch_[static_cast<std::size_t>(p)];
    if (slot == 0) {
      qpu_weights_.emplace_back(p, csr_->weight(i));
      slot = static_cast<int>(qpu_weights_.size());
    } else {
      qpu_weights_[static_cast<std::size_t>(slot - 1)].second +=
          csr_->weight(i);
    }
  }
  for (const auto& entry : qpu_weights_) {
    qpu_slot_scratch_[static_cast<std::size_t>(entry.first)] = 0;
  }
  return qpu_weights_;
}

double IncrementalCostModel::apply_move(int q, QpuId to) {
  const double delta = move_delta(q, to);
  apply_move(q, to, delta);
  return delta;
}

void IncrementalCostModel::apply_move(int q, QpuId to, double delta) {
  const QpuId from = mapping_[static_cast<std::size_t>(q)];
  if (from == to) return;
  --usage_[static_cast<std::size_t>(from)];
  ++usage_[static_cast<std::size_t>(to)];
  mapping_[static_cast<std::size_t>(q)] = to;
  cost_ += delta;
}

double IncrementalCostModel::apply_swap(int q1, int q2) {
  const double delta = swap_delta(q1, q2);
  apply_swap(q1, q2, delta);
  return delta;
}

void IncrementalCostModel::apply_swap(int q1, int q2, double delta) {
  std::swap(mapping_[static_cast<std::size_t>(q1)],
            mapping_[static_cast<std::size_t>(q2)]);
  cost_ += delta;
}

}  // namespace cloudqc
