// Umbrella header: the full public API of the CloudQC library.
//
//   #include "core/cloudqc.hpp"
//
// pulls in the circuit IR + QASM parser + workload generators, the quantum
// cloud model, the placement algorithms (CloudQC and baselines), the
// network schedulers, and the multi-tenant batch engine.
#pragma once

#include "circuit/circuit.hpp"      // IWYU pragma: export
#include "circuit/dag.hpp"          // IWYU pragma: export
#include "circuit/generators.hpp"   // IWYU pragma: export
#include "circuit/qasm.hpp"         // IWYU pragma: export
#include "circuit/workloads.hpp"    // IWYU pragma: export
#include "cloud/cloud.hpp"          // IWYU pragma: export
#include "cloud/topologies.hpp"     // IWYU pragma: export
#include "core/batch_manager.hpp"   // IWYU pragma: export
#include "core/incoming.hpp"        // IWYU pragma: export
#include "core/independent.hpp"     // IWYU pragma: export
#include "core/multi_tenant.hpp"    // IWYU pragma: export
#include "core/scenario.hpp"        // IWYU pragma: export
#include "metrics/stats.hpp"        // IWYU pragma: export
#include "placement/cost.hpp"       // IWYU pragma: export
#include "placement/placement.hpp"  // IWYU pragma: export
#include "schedule/allocators.hpp"  // IWYU pragma: export
#include "schedule/remote_dag.hpp"  // IWYU pragma: export
#include "schedule/routing.hpp"     // IWYU pragma: export
#include "schedule/scheduler.hpp"   // IWYU pragma: export
#include "sim/network_sim.hpp"      // IWYU pragma: export
