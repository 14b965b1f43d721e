// Umbrella header: the public API of the HRTDM / CSMA-DDCR library.
//
//   #include "hrtdm.hpp"
//
// pulls in everything a downstream application needs: workload modelling,
// the feasibility analysis of the paper's section 4, the protocol
// simulator, the baselines, and the utilities. Individual headers remain
// includable on their own for faster builds.
#pragma once

// Utilities.
#include "util/check.hpp"
#include "util/cli.hpp"
#include "util/log.hpp"
#include "util/math.hpp"
#include "util/rng.hpp"
#include "util/simtime.hpp"
#include "util/stats.hpp"
#include "util/table.hpp"

// Discrete-event simulation and the broadcast medium.
#include "net/channel.hpp"
#include "net/frame.hpp"
#include "net/phy.hpp"
#include "net/station.hpp"
#include "sim/simulator.hpp"

// Traffic modelling.
#include "traffic/arrival.hpp"
#include "traffic/fc_adapter.hpp"
#include "traffic/message.hpp"
#include "traffic/serialize.hpp"
#include "traffic/workload.hpp"

// The paper's analysis (section 4) and its extensions.
#include "analysis/dimensioning.hpp"
#include "analysis/efficiency.hpp"
#include "analysis/feasibility.hpp"
#include "analysis/feasibility_atm.hpp"
#include "analysis/optimal_m.hpp"
#include "analysis/p2.hpp"
#include "analysis/xi.hpp"
#include "analysis/xi_expected.hpp"

// The CSMA/DDCR protocol and the network facade.
#include "core/ddcr_config.hpp"
#include "core/ddcr_network.hpp"
#include "core/ddcr_station.hpp"
#include "core/edf_queue.hpp"
#include "core/fabric.hpp"
#include "core/metrics.hpp"
#include "core/multi_channel.hpp"
#include "core/tree_search.hpp"

// Observability: metrics registry, event tracing, Perfetto export.
#include "obs/channel_tracer.hpp"
#include "obs/event_tracer.hpp"
#include "obs/registry.hpp"

// Fault injection, the hostile-world axes (drift / churn / bursty loss)
// and the self-healing campaign + self-stabilization harnesses
// (docs/FAULTS.md).
#include "fault/campaign.hpp"
#include "fault/churn_plan.hpp"
#include "fault/drift_plan.hpp"
#include "fault/fault_injector.hpp"
#include "fault/fault_plan.hpp"
#include "fault/stabilization.hpp"

// Differential conformance: EDF oracle, comparator, bound checks,
// shrinking replay harness (docs/TESTING.md).
#include "check/bound_checker.hpp"
#include "check/conformance.hpp"
#include "check/edf_oracle.hpp"
#include "check/shrinker.hpp"

// Comparison baselines.
#include "baseline/beb_station.hpp"
#include "baseline/dcr_station.hpp"
#include "baseline/runner.hpp"
#include "baseline/stack_station.hpp"
#include "baseline/tdma_station.hpp"
