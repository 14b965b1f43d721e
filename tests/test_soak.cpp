// Soak grid: the full protocol stack across scenarios, tree shapes, epoch
// modes, arrival processes, bursting and noise — checking on every
// combination the invariants that must never break:
//   - replica consistency on every slot,
//   - conservation (generated = delivered + still-queued),
//   - channel sanity (utilization <= 1, no lost frames),
//   - the full differential conformance check (EDF oracle, xi bounds,
//     accounting cross-checks) on the recorded slot stream of every run.
#include <gtest/gtest.h>

#include <cstdint>
#include <string>

#include "check/conformance.hpp"
#include "core/ddcr_network.hpp"
#include "traffic/workload.hpp"

namespace hrtdm::core {
namespace {

using traffic::ArrivalKind;

const bool kConformanceInstalled = check::install_conformance_auditor();

// ctest names each case after gtest's byte dump of its param, so the param
// holds no pointer and no padding (either would rename the test from one
// build to the next): the scenario is an index into kScenarioNames.
enum Scenario : int {
  kQuickstart,
  kVideoconference,
  kAtc,
  kStocks,
  kFactory,
  kAvionics
};
constexpr const char* kScenarioNames[] = {
    "quickstart", "videoconference", "atc", "stocks", "factory", "avionics"};

struct SoakParam {
  Scenario scenario;
  int z;
  int m_time;
  int m_static;
  EpochMode epoch_mode;
  ArrivalKind arrivals;
  std::int64_t burst_bits;
  double corruption;
};

std::string soak_name(const ::testing::TestParamInfo<SoakParam>& info) {
  const auto& p = info.param;
  std::string name = std::string(kScenarioNames[p.scenario]) + "z" +
                     std::to_string(p.z) + "mt" + std::to_string(p.m_time) +
                     "ms" + std::to_string(p.m_static);
  name += p.epoch_mode == EpochMode::kPerpetual ? "Perp" : "Fall";
  switch (p.arrivals) {
    case ArrivalKind::kSaturatingAdversary: name += "Sat"; break;
    case ArrivalKind::kPeriodicJitter: name += "Per"; break;
    case ArrivalKind::kSporadic: name += "Spo"; break;
    case ArrivalKind::kBoundedPoisson: name += "Poi"; break;
  }
  if (p.burst_bits > 0) {
    name += "Burst";
  }
  if (p.corruption > 0) {
    name += "Noise";
  }
  return name;
}

class Soak : public ::testing::TestWithParam<SoakParam> {};

TEST_P(Soak, InvariantsHoldOverALongRun) {
  const auto& p = GetParam();
  const traffic::Workload wl =
      traffic::workload_by_name(kScenarioNames[p.scenario], p.z);

  DdcrRunOptions options;
  options.phy = net::PhyConfig::gigabit_ethernet();
  options.phy.burst_budget_bits = p.burst_bits;
  options.phy.corruption_prob = p.corruption;
  options.ddcr.m_time = p.m_time;
  // F must be a power of m_time; pick ~64 leaves.
  options.ddcr.F = p.m_time == 2 ? 64 : (p.m_time == 4 ? 64 : 64);
  options.ddcr.m_static = p.m_static;
  options.ddcr.q = p.m_static == 2 ? 64 : 64;
  options.ddcr.class_width_c =
      DdcrConfig::class_width_for(wl.max_deadline(), options.ddcr.F);
  options.ddcr.alpha = options.ddcr.class_width_c * 2;
  options.ddcr.epoch_mode = p.epoch_mode;
  options.ddcr.theta_factor = 1.0;
  options.arrivals = p.arrivals;
  options.seed = 20260705;
  options.arrival_horizon = SimTime::from_ns(60'000'000);
  options.drain_cap = SimTime::from_ns(400'000'000);
  options.check_consistency = true;
  options.conformance_check = kConformanceInstalled;

  const DdcrRunResult result = run_ddcr(wl, options);
  EXPECT_TRUE(result.conformance.checked);
  EXPECT_TRUE(result.conformance.ok) << result.conformance.summary();
  EXPECT_GT(result.conformance.slots_checked, 0);
  EXPECT_TRUE(result.consistency_ok) << "replicas diverged";
  EXPECT_EQ(result.metrics.delivered + result.undelivered, result.generated);
  EXPECT_GT(result.generated, 0);
  EXPECT_LE(result.utilization, 1.0 + 1e-9);
  // These workloads are light enough that everything must drain.
  EXPECT_EQ(result.undelivered, 0);
  if (p.corruption == 0.0) {
    EXPECT_EQ(result.metrics.misses, 0);
  }
}

INSTANTIATE_TEST_SUITE_P(
    Grid, Soak,
    ::testing::Values(
        SoakParam{kQuickstart, 8, 4, 4, EpochMode::kCsmaCdFallback,
                  ArrivalKind::kSaturatingAdversary, 0, 0.0},
        SoakParam{kQuickstart, 8, 2, 4, EpochMode::kCsmaCdFallback,
                  ArrivalKind::kBoundedPoisson, 0, 0.0},
        SoakParam{kQuickstart, 5, 4, 2, EpochMode::kCsmaCdFallback,
                  ArrivalKind::kSporadic, 0, 0.0},
        SoakParam{kVideoconference, 6, 4, 4, EpochMode::kPerpetual,
                  ArrivalKind::kSaturatingAdversary, 0, 0.0},
        SoakParam{kVideoconference, 6, 4, 4, EpochMode::kCsmaCdFallback,
                  ArrivalKind::kPeriodicJitter, 512 * 8, 0.0},
        SoakParam{kAtc, 5, 2, 2, EpochMode::kCsmaCdFallback,
                  ArrivalKind::kSaturatingAdversary, 0, 0.05},
        SoakParam{kStocks, 6, 4, 4, EpochMode::kCsmaCdFallback,
                  ArrivalKind::kSaturatingAdversary, 0, 0.0},
        SoakParam{kStocks, 6, 4, 4, EpochMode::kPerpetual,
                  ArrivalKind::kBoundedPoisson, 512 * 8, 0.02},
        SoakParam{kFactory, 8, 2, 2, EpochMode::kCsmaCdFallback,
                  ArrivalKind::kSaturatingAdversary, 0, 0.0},
        SoakParam{kFactory, 8, 4, 4, EpochMode::kCsmaCdFallback,
                  ArrivalKind::kBoundedPoisson, 0, 0.1},
        SoakParam{kAvionics, 6, 4, 4, EpochMode::kCsmaCdFallback,
                  ArrivalKind::kSaturatingAdversary, 0, 0.0},
        SoakParam{kAvionics, 10, 2, 4, EpochMode::kPerpetual,
                  ArrivalKind::kSporadic, 0, 0.0}),
    soak_name);

TEST(SoakSeeds, ConsistencyAcrossManySeeds) {
  // Same scenario, 12 seeds: replica consistency is seed-independent.
  const traffic::Workload wl = traffic::stock_exchange(6);
  DdcrRunOptions options;
  options.ddcr.class_width_c =
      DdcrConfig::class_width_for(wl.max_deadline(), options.ddcr.F);
  options.ddcr.alpha = options.ddcr.class_width_c * 2;
  options.arrivals = ArrivalKind::kBoundedPoisson;
  options.arrival_horizon = SimTime::from_ns(15'000'000);
  options.drain_cap = SimTime::from_ns(100'000'000);
  options.check_consistency = true;
  options.conformance_check = kConformanceInstalled;
  for (std::uint64_t seed = 1; seed <= 12; ++seed) {
    options.seed = seed;
    const auto result = run_ddcr(wl, options);
    EXPECT_TRUE(result.consistency_ok) << "seed " << seed;
    EXPECT_EQ(result.undelivered, 0) << "seed " << seed;
    EXPECT_TRUE(result.conformance.ok)
        << "seed " << seed << ": " << result.conformance.summary();
  }
}

}  // namespace
}  // namespace hrtdm::core
