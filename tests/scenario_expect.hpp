// Field-by-field equality of per-job records and scenario results, shared
// by every suite that compares runs (not a ctest target: only
// tests/*_test.cpp files become test binaries).
#pragma once

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "core/scenario.hpp"

namespace cloudqc::testing {

/// Per-job records, field by field (every field of IncomingJobStats).
inline void expect_same_jobs(const std::vector<IncomingJobStats>& a,
                             const std::vector<IncomingJobStats>& b) {
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    SCOPED_TRACE("job " + std::to_string(i));
    EXPECT_EQ(a[i].name, b[i].name);
    EXPECT_EQ(a[i].placed, b[i].placed);
    EXPECT_EQ(a[i].arrival, b[i].arrival);
    EXPECT_EQ(a[i].placed_time, b[i].placed_time);
    EXPECT_EQ(a[i].completion_time, b[i].completion_time);
    EXPECT_EQ(a[i].remote_ops, b[i].remote_ops);
    EXPECT_EQ(a[i].comm_cost, b[i].comm_cost);
    EXPECT_EQ(a[i].qpus_used, b[i].qpus_used);
    EXPECT_EQ(a[i].est_fidelity, b[i].est_fidelity);
    EXPECT_EQ(a[i].log_fidelity, b[i].log_fidelity);
    EXPECT_EQ(a[i].epr_rounds, b[i].epr_rounds);
    EXPECT_EQ(a[i].restarts, b[i].restarts);
  }
}

/// Engine aggregates: every result field (operator==) plus the event and
/// allocation-round work counters, which operator== skips.
inline void expect_same_metrics(const StreamingMetrics& a,
                                const StreamingMetrics& b) {
  EXPECT_TRUE(a == b);
  EXPECT_EQ(a.events, b.events);
  EXPECT_EQ(a.allocation_rounds, b.allocation_rounds);
}

/// Engine-trajectory equality: every deterministic field the golden
/// writer records, except the mode name and the tenant labels and
/// aggregates (metadata the scenario layer attaches after the run).
inline void expect_same_core(const ScenarioResult& a, const ScenarioResult& b) {
  expect_same_jobs(a.jobs, b.jobs);
  EXPECT_EQ(a.makespan, b.makespan);
  EXPECT_EQ(a.mean_jct, b.mean_jct);
  EXPECT_EQ(a.mean_fidelity, b.mean_fidelity);
  EXPECT_EQ(a.placement_calls, b.placement_calls);
  expect_same_metrics(a.metrics, b.metrics);
  EXPECT_EQ(a.cache.exact_hits, b.cache.exact_hits);
  EXPECT_EQ(a.cache.warm_hits, b.cache.warm_hits);
  EXPECT_EQ(a.cache.misses, b.cache.misses);
}

/// Full equality: mode name, core trajectory, tenant labels and
/// aggregates.
inline void expect_identical(const ScenarioResult& a, const ScenarioResult& b) {
  EXPECT_EQ(a.engine, b.engine);
  expect_same_core(a, b);
  EXPECT_EQ(a.tenant_of, b.tenant_of);
  ASSERT_EQ(a.tenants.size(), b.tenants.size());
  for (std::size_t t = 0; t < a.tenants.size(); ++t) {
    SCOPED_TRACE("tenant " + a.tenants[t].name);
    EXPECT_EQ(a.tenants[t].name, b.tenants[t].name);
    EXPECT_EQ(a.tenants[t].jobs, b.tenants[t].jobs);
    EXPECT_EQ(a.tenants[t].completed, b.tenants[t].completed);
    EXPECT_EQ(a.tenants[t].slo_attainment, b.tenants[t].slo_attainment);
    EXPECT_EQ(a.tenants[t].mean_jct, b.tenants[t].mean_jct);
    EXPECT_EQ(a.tenants[t].jct_p50, b.tenants[t].jct_p50);
    EXPECT_EQ(a.tenants[t].jct_p95, b.tenants[t].jct_p95);
    EXPECT_EQ(a.tenants[t].jct_p99, b.tenants[t].jct_p99);
  }
  EXPECT_EQ(a.jain_fairness, b.jain_fairness);
}

}  // namespace cloudqc::testing
