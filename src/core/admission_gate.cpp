#include "core/admission_gate.hpp"

namespace cloudqc {

AdmissionGate::AdmissionGate(std::size_t expected_jobs) {
  // Capacity hint only; entries exist for currently-failed jobs alone.
  failed_free_.reserve(expected_jobs < 1024 ? expected_jobs : 1024);
}

void AdmissionGate::refresh(const QuantumCloud& cloud) {
  free_.resize(static_cast<std::size_t>(cloud.num_qpus()));
  total_free_ = 0;
  for (QpuId q = 0; q < cloud.num_qpus(); ++q) {
    free_[static_cast<std::size_t>(q)] = cloud.qpu(q).free_computing();
    total_free_ += free_[static_cast<std::size_t>(q)];
  }
}

bool AdmissionGate::should_attempt(std::size_t job) const {
  const auto it = failed_free_.find(job);
  if (it == failed_free_.end()) return true;
  // A placement reserves exactly `requirement` computing qubits in total,
  // so a cloud whose total free capacity is short cannot admit the job no
  // matter how the released qubits are distributed.
  if (static_cast<long long>(it->second.requirement) > total_free_) {
    return false;
  }
  const std::vector<int>& at_failure = it->second.free;
  for (std::size_t q = 0; q < free_.size(); ++q) {
    if (free_[q] > at_failure[q]) return true;
  }
  return false;
}

void AdmissionGate::record_failure(std::size_t job, int requirement) {
  failed_free_[job] = FailureRecord{free_, requirement};
}

void AdmissionGate::record_admission(std::size_t job) {
  failed_free_.erase(job);
}

}  // namespace cloudqc
