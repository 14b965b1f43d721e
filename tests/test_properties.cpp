// Property-based sweeps tying the simulator to the analysis:
//  - measured time-tree search slots equal the analytic DFS cost and are
//    bounded by xi(k, F) for adversarial placements;
//  - the inversion counter matches a brute-force oracle;
//  - transmissions never overlap (HRTDM safety) on heavy runs;
//  - FC-feasible workloads never miss deadlines under the saturating
//    adversary.
#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "analysis/feasibility.hpp"
#include "analysis/xi.hpp"
#include "check/conformance.hpp"
#include "check/shrinker.hpp"
#include "core/ddcr_network.hpp"
#include "core/fabric.hpp"
#include "core/metrics.hpp"
#include "traffic/fc_adapter.hpp"
#include "traffic/workload.hpp"
#include "util/math.hpp"
#include "util/rng.hpp"

namespace hrtdm {
namespace {

const bool kConformanceInstalled = check::install_conformance_auditor();

using core::DdcrRunOptions;
using core::DdcrTestbed;
using traffic::Message;
using util::Duration;
using util::SimTime;

// 64-bit m: no padding, so gtest's byte dump of the param — which ctest
// bakes into the test name — is the same in every build.
struct TreeShapeParam {
  std::int64_t m;
  std::int64_t leaves;
};

class SimVersusXi : public ::testing::TestWithParam<TreeShapeParam> {};

/// Builds a testbed whose initial collision puts one message per chosen
/// time-tree leaf, then checks the measured search cost against analysis.
void run_placement(int m, std::int64_t F,
                   const std::vector<std::int64_t>& leaves) {
  const auto k = static_cast<int>(leaves.size());
  ASSERT_GE(k, 2);

  DdcrRunOptions options;
  options.phy.slot_x = Duration::nanoseconds(100);
  options.phy.psi_bps = 1e9;
  options.phy.overhead_bits = 0;
  options.ddcr.m_time = m;
  options.ddcr.F = F;
  options.ddcr.m_static = m;
  // q: smallest power of m holding k stations.
  std::int64_t q = m;
  while (q < k) {
    q *= m;
  }
  options.ddcr.q = q;
  // A wide class (1 ms) freezes the class mapping across the epoch: reft
  // advances by at most a few microseconds per search, far less than c/2,
  // so the floor((DM - reft)/c) of each message never moves.
  options.ddcr.class_width_c = Duration::milliseconds(1);
  options.ddcr.alpha = Duration::nanoseconds(0);
  options.ddcr.theta_factor = 1.0;

  DdcrTestbed bed(k, options);
  // The initial collision is delivered at t = 100 ns; reft = 100 ns. A
  // message lands on leaf j when DM = reft + j*c + c/2.
  const std::int64_t reft = 100;
  const std::int64_t c = options.ddcr.class_width_c.ns();
  for (int s = 0; s < k; ++s) {
    Message msg;
    msg.uid = s;
    msg.class_id = s;
    msg.source = s;
    msg.l_bits = 100;
    msg.arrival = SimTime::zero();
    msg.absolute_deadline = SimTime::from_ns(
        reft + leaves[static_cast<std::size_t>(s)] * c + c / 2);
    bed.inject(s, msg);
  }
  bed.run_until_delivered(k, SimTime::from_ns(200'000'000));

  ASSERT_EQ(bed.metrics().log().size(), static_cast<std::size_t>(k));
  ASSERT_EQ(bed.metrics().summarize().misses, 0)
      << "placement deadlines must be generous enough";

  // Every station heard the same slots; station 0's counters stand for all.
  const auto& counters = bed.station(0).counters();
  const std::int64_t expected =
      analysis::search_cost_for_leaves(m, F, leaves) - 1;  // root = the
                                                           // initial collision
  EXPECT_EQ(counters.search_slots_time, expected);
  EXPECT_EQ(counters.sts_runs, 0);  // distinct leaves: no tie-break
  EXPECT_TRUE(bed.digests_agree());
}

TEST_P(SimVersusXi, RandomPlacementsMatchAnalyticCost) {
  const auto [m, F] = GetParam();
  util::Rng rng(static_cast<std::uint64_t>(m * 1000 + F));
  for (int trial = 0; trial < 8; ++trial) {
    const std::int64_t k =
        rng.uniform_i64(2, std::min<std::int64_t>(F, 10));
    const auto perm = rng.permutation(F);
    std::vector<std::int64_t> leaves(perm.begin(), perm.begin() + k);
    std::sort(leaves.begin(), leaves.end());
    run_placement(m, F, leaves);
  }
}

TEST_P(SimVersusXi, WorstCasePlacementRealisesXiExactly) {
  const auto [m, F] = GetParam();
  const int n = static_cast<int>(util::ilog_floor(m, F));
  analysis::XiExactTable table(m, n);
  for (std::int64_t k = 2; k <= std::min<std::int64_t>(F, 8); ++k) {
    const auto leaves = analysis::worst_case_leaves(table, k);
    run_placement(m, F, leaves);
    // run_placement checked equality with search_cost_for_leaves, which
    // equals xi(k) for this placement; spell the bound out regardless:
    EXPECT_EQ(analysis::search_cost_for_leaves(m, F, leaves), table.xi(k));
  }
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, SimVersusXi,
    ::testing::Values(TreeShapeParam{2, 16}, TreeShapeParam{2, 32},
                      TreeShapeParam{4, 16}, TreeShapeParam{4, 64},
                      TreeShapeParam{8, 64}),
    [](const ::testing::TestParamInfo<TreeShapeParam>& info) {
      return "m" + std::to_string(info.param.m) + "F" +
             std::to_string(info.param.leaves);
    });

TEST(InversionCounter, MatchesBruteForceOracle) {
  util::Rng rng(4242);
  for (int trial = 0; trial < 50; ++trial) {
    const std::int64_t n = rng.uniform_i64(0, 60);
    std::vector<core::TxRecord> log;
    SimTime clock = SimTime::zero();
    for (std::int64_t i = 0; i < n; ++i) {
      core::TxRecord tx;
      tx.uid = i;
      tx.arrival = clock - Duration::nanoseconds(rng.uniform_i64(0, 500));
      tx.tx_start = clock;
      clock += Duration::nanoseconds(rng.uniform_i64(1, 100));
      tx.completed = clock;
      tx.deadline = tx.arrival + Duration::nanoseconds(rng.uniform_i64(1, 400));
      log.push_back(tx);
    }
    std::int64_t brute = 0;
    for (std::size_t j = 0; j < log.size(); ++j) {
      for (std::size_t i = 0; i < j; ++i) {
        if (log[i].deadline > log[j].deadline &&
            log[i].tx_start >= log[j].arrival) {
          ++brute;
        }
      }
    }
    EXPECT_EQ(core::count_deadline_inversions(log), brute)
        << "trial " << trial << " n=" << n;
  }
}

TEST(Safety, TransmissionsNeverOverlap) {
  // Mutual exclusion (the <p.HRTDM> safety property) on a heavy run.
  const auto wl = traffic::stock_exchange(10);
  DdcrRunOptions options;
  options.arrival_horizon = SimTime::from_ns(30'000'000);
  options.drain_cap = SimTime::from_ns(200'000'000);
  options.conformance_check = kConformanceInstalled;

  const auto result = core::run_ddcr(wl, options);
  EXPECT_GT(result.metrics.delivered, 0);
  // Mutual exclusion, slot grid and frame integrity on the recorded
  // ground-truth stream — the direct form of the safety property.
  EXPECT_TRUE(result.conformance.checked);
  EXPECT_TRUE(result.conformance.ok) << result.conformance.summary();

  // Re-run through a testbed to get the raw log (run_ddcr summarises).
  // Instead assert on the summary invariants: delivered + undelivered =
  // generated, and the busy time never exceeds elapsed time.
  EXPECT_EQ(result.metrics.delivered + result.undelivered, result.generated);
  EXPECT_LE(result.utilization, 1.0 + 1e-9);
}

TEST(Safety, LogIsSerialisedOnTestbedRun) {
  DdcrRunOptions options;
  options.phy.slot_x = Duration::nanoseconds(100);
  options.ddcr.class_width_c = Duration::microseconds(1);
  options.ddcr.alpha = Duration::nanoseconds(0);
  DdcrTestbed bed(6, options);
  util::Rng rng(7);
  for (int s = 0; s < 6; ++s) {
    for (int i = 0; i < 20; ++i) {
      Message msg;
      msg.uid = s * 100 + i;
      msg.class_id = s;
      msg.source = s;
      msg.l_bits = 400;
      msg.arrival = SimTime::from_ns(rng.uniform_i64(0, 200'000));
      msg.absolute_deadline = msg.arrival + Duration::microseconds(500);
      bed.inject(s, msg);
    }
  }
  bed.run(SimTime::from_ns(2'000'000));
  const auto& log = bed.metrics().log();
  ASSERT_EQ(log.size(), 120u);
  for (std::size_t i = 1; i < log.size(); ++i) {
    EXPECT_LE(log[i - 1].completed, log[i].tx_start)
        << "overlapping transmissions at " << i;
  }
  EXPECT_TRUE(bed.digests_agree());
}

TEST(FabricAxis, RandomShardCountsNeverChangeObservableStreams) {
  // Property: for random explicit-message cases, replaying the case across
  // N identical fabric channels yields the same protocol digest chain for
  // every shard count — the exact invariant a fabric .repro pins (the
  // replay_case fabric axis re-checks it on every pinned case).
  util::Rng rng(0xfab51c);
  for (int trial = 0; trial < 6; ++trial) {
    check::ReplayCase c;
    c.name = "fabric_prop_t" + std::to_string(trial);
    c.stations = static_cast<int>(rng.uniform_i64(2, 6));
    c.ddcr.class_width_c = Duration::microseconds(rng.uniform_i64(2, 20));
    c.ddcr.alpha = c.ddcr.class_width_c * 2;
    const std::int64_t n = rng.uniform_i64(4, 24);
    for (std::int64_t i = 0; i < n; ++i) {
      Message msg;
      msg.uid = i;
      msg.source = static_cast<int>(rng.uniform_i64(0, c.stations - 1));
      msg.class_id = msg.source;
      msg.l_bits = rng.uniform_i64(100, 12'000);
      msg.arrival = SimTime::from_ns(rng.uniform_i64(0, 2'000'000));
      msg.absolute_deadline =
          msg.arrival + Duration::milliseconds(rng.uniform_i64(2, 10));
      c.messages.push_back(msg);
    }
    c.fabric_channels = static_cast<int>(rng.uniform_i64(2, 4));
    c.fabric_shards = static_cast<int>(rng.uniform_i64(2, 5));

    const auto report = check::replay_case(c);
    EXPECT_TRUE(report.ok) << "trial " << trial << ": " << report.summary();

    // The fabric line must survive serialize/parse and the Shrinker's
    // structural passes, or a shrunk find would lose the very axis that
    // exposed it.
    const check::ReplayCase back =
        check::parse_case(check::serialize_case(c));
    EXPECT_EQ(back.fabric_channels, c.fabric_channels) << "trial " << trial;
    EXPECT_EQ(back.fabric_shards, c.fabric_shards) << "trial " << trial;
    if (trial == 0) {
      // A property that always holds lets the Shrinker drive reductions:
      // shrink under "digests still shard-invariant" and confirm the
      // minimal case keeps the fabric axis and still replays green.
      check::Shrinker shrinker(
          [](const check::ReplayCase& candidate) {
            return check::replay_case(candidate).ok;
          });
      const auto shrunk = shrinker.shrink(c, 24);
      EXPECT_EQ(shrunk.minimal.fabric_channels, c.fabric_channels);
      EXPECT_EQ(shrunk.minimal.fabric_shards, c.fabric_shards);
      EXPECT_TRUE(check::replay_case(shrunk.minimal).ok);
    }
  }
}

// ctest names each case after gtest's byte dump of its param, so the param
// holds no pointer and no padding (either would rename the test from one
// build to the next): the scenario is an index into kFcScenarioNames.
enum FcScenario : std::int64_t { kFcQuickstart, kFcVideoconference, kFcAtc };
constexpr const char* kFcScenarioNames[] = {"quickstart", "videoconference",
                                            "atc"};

struct FcWorkloadParam {
  FcScenario scenario;
  std::int64_t z;
};

class FcSoundness : public ::testing::TestWithParam<FcWorkloadParam> {};

TEST_P(FcSoundness, FeasibleVerdictImpliesNoMissesUnderAdversary) {
  const auto& param = GetParam();
  traffic::Workload wl = traffic::workload_by_name(
      kFcScenarioNames[param.scenario], static_cast<int>(param.z));

  DdcrRunOptions options;
  // Dimension the scheduling horizon over the deadline range (the FCs
  // assume pending messages can enter the current time tree).
  options.ddcr.class_width_c =
      core::DdcrConfig::class_width_for(wl.max_deadline(), options.ddcr.F);
  options.ddcr.alpha = options.ddcr.class_width_c * 2;
  options.arrival_horizon = SimTime::from_ns(50'000'000);
  options.drain_cap = SimTime::from_ns(400'000'000);
  options.arrivals = traffic::ArrivalKind::kSaturatingAdversary;

  traffic::FcAdapterOptions fc_options;
  fc_options.psi_bps = options.phy.psi_bps;
  fc_options.slot_s = options.phy.slot_x.to_seconds();
  fc_options.overhead_bits = options.phy.overhead_bits;
  fc_options.trees = analysis::FcTreeParams{
      options.ddcr.m_static, options.ddcr.q, options.ddcr.m_time,
      options.ddcr.F};
  const auto fc = analysis::check_feasibility(
      traffic::to_fc_system(wl, fc_options));
  if (!fc.feasible) {
    GTEST_SKIP() << "workload not FC-feasible at these parameters";
  }

  options.conformance_check = kConformanceInstalled;
  const auto result = core::run_ddcr(wl, options);
  EXPECT_EQ(result.metrics.misses, 0);
  EXPECT_EQ(result.undelivered, 0);
  EXPECT_TRUE(result.conformance.ok) << result.conformance.summary();
  // Global worst latency below the loosest class bound would be too weak;
  // check the global worst against the max per-class bound instead.
  double max_bound = 0.0;
  for (const auto& cls : fc.classes) {
    max_bound = std::max(max_bound, cls.b_ddcr_s);
  }
  EXPECT_LE(result.metrics.worst_latency_s, max_bound);
}

INSTANTIATE_TEST_SUITE_P(
    Workloads, FcSoundness,
    ::testing::Values(FcWorkloadParam{kFcQuickstart, 2},
                      FcWorkloadParam{kFcQuickstart, 4},
                      FcWorkloadParam{kFcQuickstart, 8},
                      FcWorkloadParam{kFcVideoconference, 3},
                      FcWorkloadParam{kFcVideoconference, 6},
                      FcWorkloadParam{kFcAtc, 3},
                      FcWorkloadParam{kFcAtc, 5}),
    [](const ::testing::TestParamInfo<FcWorkloadParam>& info) {
      return std::string(kFcScenarioNames[info.param.scenario]) + "z" +
             std::to_string(info.param.z);
    });

}  // namespace
}  // namespace hrtdm
