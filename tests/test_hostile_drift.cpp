// Clock drift: the paper assumes every station samples slot boundaries
// within half a slot of true time (the t + x/2 synchrony budget). The
// drift model (sim::DriftClock + fault::DriftPlan) violates exactly that
// assumption, and the grid below pins the watchdog's behavior at the
// threshold: phase errors strictly below x/2 rewrite nothing (zero false
// quarantines), phase errors at or above x/2 garble every heard success
// and are *guaranteed* to drive the victim through detection, quarantine
// and quiet-period rejoin, after which the resync rule re-anchors its
// clock.
#include <gtest/gtest.h>

#include <string>

#include "core/ddcr_network.hpp"
#include "fault/campaign.hpp"
#include "fault/fault_injector.hpp"
#include "sim/drift_clock.hpp"
#include "traffic/message.hpp"
#include "util/check.hpp"

namespace hrtdm::fault {
namespace {

using core::DdcrTestbed;
using sim::DriftClock;
using traffic::Message;
using util::Duration;
using util::SimTime;

// --- DriftClock units -----------------------------------------------------

TEST(DriftClock, PhaseIsSkewPlusLinearDriftClampedAtTheBound) {
  // +5 ns skew, +1000 ppm (1 ns per us), clamp at 12 ns.
  DriftClock clock(Duration::nanoseconds(5), 1000.0,
                   Duration::nanoseconds(12));
  EXPECT_EQ(clock.phase_error(SimTime::zero()).ns(), 5);
  EXPECT_EQ(clock.phase_error(SimTime::from_ns(3'000)).ns(), 8);
  EXPECT_EQ(clock.phase_error(SimTime::from_ns(7'000)).ns(), 12);
  EXPECT_EQ(clock.phase_error(SimTime::from_ns(1'000'000)).ns(), 12);
}

TEST(DriftClock, MissamplesExactlyAtHalfASlot) {
  const Duration x = Duration::nanoseconds(100);
  EXPECT_FALSE(DriftClock(Duration::nanoseconds(49), 0.0, Duration())
                   .missamples(SimTime::zero(), x));
  EXPECT_FALSE(DriftClock(Duration::nanoseconds(-49), 0.0, Duration())
                   .missamples(SimTime::zero(), x));
  EXPECT_TRUE(DriftClock(Duration::nanoseconds(50), 0.0, Duration())
                  .missamples(SimTime::zero(), x));
  EXPECT_TRUE(DriftClock(Duration::nanoseconds(-50), 0.0, Duration())
                  .missamples(SimTime::zero(), x));
}

TEST(DriftClock, ResyncZeroesPhaseButKeepsTheRate) {
  DriftClock clock(Duration::nanoseconds(60), 2000.0,
                   Duration::nanoseconds(80));
  ASSERT_TRUE(clock.missamples(SimTime::zero(), Duration::nanoseconds(100)));
  clock.resync(SimTime::from_ns(10'000));
  EXPECT_EQ(clock.phase_error(SimTime::from_ns(10'000)).ns(), 0);
  // 2000 ppm = 2 ns per us: 5 us after the resync the phase is 10 ns.
  EXPECT_EQ(clock.phase_error(SimTime::from_ns(15'000)).ns(), 10);
  EXPECT_DOUBLE_EQ(clock.rate_ppm(), 2000.0);
}

// --- DriftPlan units ------------------------------------------------------

TEST(DriftPlanSuite, ValidatesSpecs) {
  DriftPlan plan;
  plan.specs.push_back({5, Duration::nanoseconds(10), 0.0, Duration()});
  EXPECT_THROW(plan.validate(2), util::ContractViolation);  // id out of range
  plan.specs.clear();
  plan.specs.push_back({0, Duration::nanoseconds(10), 0.0, Duration()});
  plan.specs.push_back({0, Duration::nanoseconds(20), 0.0, Duration()});
  EXPECT_THROW(plan.validate(2), util::ContractViolation);  // duplicate id
  plan.specs.clear();
  plan.specs.push_back({0, Duration(), 500.0, Duration()});
  EXPECT_THROW(plan.validate(2), util::ContractViolation);  // rate, no bound

  DriftPlan ok;
  ok.specs.push_back({1, Duration::nanoseconds(-30), 100.0,
                      Duration::nanoseconds(60)});
  ok.validate(2);
  EXPECT_TRUE(ok.can_missample(Duration::nanoseconds(100)));
  EXPECT_FALSE(ok.can_missample(Duration::nanoseconds(200)));
}

TEST(DriftPlanSuite, UniformGeneratorIsDeterministicAndBounded) {
  const auto a = DriftPlan::uniform(6, 3, Duration::nanoseconds(40), 250.0,
                                    0xD21F7ULL);
  const auto b = DriftPlan::uniform(6, 3, Duration::nanoseconds(40), 250.0,
                                    0xD21F7ULL);
  ASSERT_EQ(a.specs.size(), 3u);
  a.validate(6);
  for (std::size_t i = 0; i < a.specs.size(); ++i) {
    EXPECT_EQ(a.specs[i].station, b.specs[i].station);
    EXPECT_EQ(a.specs[i].initial_phase, b.specs[i].initial_phase);
    EXPECT_DOUBLE_EQ(a.specs[i].rate_ppm, b.specs[i].rate_ppm);
    EXPECT_LE(a.specs[i].initial_phase.ns(), 40);
    EXPECT_GE(a.specs[i].initial_phase.ns(), -40);
  }
}

// --- the threshold grid (satellite 3) -------------------------------------
//
// Station 1 streams six back-to-back CSMA-CD successes; station 0 has the
// scripted phase error. Below x/2 = 50 ns nothing may happen. At or above,
// every success station 0 hears is garbled into a collision: it starts a
// phantom epoch nobody else is in, and the watchdog's rules (an impossible
// success, or the bounded lone-leaf retry streak) must quarantine it.

Message demo_msg(std::int64_t uid, int source, std::int64_t arrival_ns,
                 std::int64_t deadline_rel_ns) {
  Message msg;
  msg.uid = uid;
  msg.class_id = source;
  msg.source = source;
  msg.l_bits = 100;
  msg.arrival = SimTime::from_ns(arrival_ns);
  msg.absolute_deadline = SimTime::from_ns(arrival_ns + deadline_rel_ns);
  return msg;
}

struct GridOutcome {
  std::int64_t missamples = 0;
  std::int64_t desyncs = 0;
  std::int64_t quarantines = 0;
  std::int64_t rejoins = 0;
  std::int64_t resyncs = 0;
  bool digests_agree = false;
  std::string str() const {
    return "missamples=" + std::to_string(missamples) +
           " desyncs=" + std::to_string(desyncs) +
           " quarantines=" + std::to_string(quarantines) +
           " rejoins=" + std::to_string(rejoins) +
           " resyncs=" + std::to_string(resyncs) +
           " digests_agree=" + std::to_string(digests_agree);
  }
};

GridOutcome run_grid_point(std::int64_t phase_ns) {
  auto options = small_rejoinable_options();
  DdcrTestbed bed(2, options);
  DriftPlan drift;
  drift.specs.push_back(
      {0, Duration::nanoseconds(phase_ns), 0.0, Duration()});
  FaultInjector injector(FaultPlan{}, ChurnPlan{}, drift, 1);
  injector.install(bed);
  // Contending traffic on BOTH sides: the drifted station must itself hold
  // messages so that, above threshold, its garbled own successes drive the
  // bounded lone-leaf retry streak (watchdog rule C) deterministically.
  for (int i = 0; i < 4; ++i) {
    bed.inject(0, demo_msg(10 + i, 0, 500, 12'000));
    bed.inject(1, demo_msg(20 + i, 1, 500, 12'000));
  }
  // Fixed horizon (not a delivery count): above threshold the victim's own
  // deliveries duplicate on the wire while it cannot hear them. 2000 slots
  // cover the epoch, the quarantine, the quiet period and the rejoin.
  bed.run(SimTime::from_ns(200'000));

  // One fresh shared epoch so a recovered replica re-derives full digest
  // agreement and both queues drain.
  const auto now = bed.simulator().now().ns();
  bed.inject(0, demo_msg(100, 0, now + 1'000, 12'000));
  bed.inject(1, demo_msg(101, 1, now + 1'000, 12'000));
  bed.run(SimTime::from_ns(now + 200'000));
  EXPECT_EQ(bed.queued(), 0) << "phase " << phase_ns;

  GridOutcome out;
  out.missamples = injector.stats().drift_missamples;
  out.desyncs = bed.station(0).counters().desyncs_detected;
  out.quarantines = bed.station(0).counters().quarantines;
  out.rejoins = bed.station(0).counters().rejoins;
  out.resyncs = injector.stats().drift_resyncs;
  out.digests_agree = bed.digests_agree();
  return out;
}

TEST(DriftGrid, SubThresholdPhaseErrorsNeverFireTheWatchdog) {
  // Up to (but excluding) half a slot: the synchrony budget absorbs the
  // skew. No observation is rewritten, so there can be no false
  // quarantine — the watchdog's exactness under drift.
  for (const std::int64_t phase_ns : {0L, 12L, -12L, 25L, -25L, 49L, -49L}) {
    const GridOutcome out = run_grid_point(phase_ns);
    EXPECT_EQ(out.missamples, 0) << "phase " << phase_ns << ": " << out.str();
    EXPECT_EQ(out.desyncs, 0) << "phase " << phase_ns << ": " << out.str();
    EXPECT_EQ(out.quarantines, 0) << "phase " << phase_ns << ": " << out.str();
    EXPECT_TRUE(out.digests_agree) << "phase " << phase_ns << ": "
                                   << out.str();
  }
}

TEST(DriftGrid, ThresholdAndAbovePhaseErrorsGuaranteeQuarantineAndRecovery) {
  // At x/2 and beyond every heard success is garbled: the victim starts a
  // phantom epoch and the watchdog MUST fire — and the resync rule must
  // re-anchor its clock during the quarantine so recovery sticks.
  for (const std::int64_t phase_ns : {50L, -50L, 60L, -75L, 100L}) {
    const GridOutcome out = run_grid_point(phase_ns);
    EXPECT_GT(out.missamples, 0) << "phase " << phase_ns << ": " << out.str();
    EXPECT_GT(out.desyncs, 0) << "phase " << phase_ns << ": " << out.str();
    EXPECT_GT(out.quarantines, 0) << "phase " << phase_ns << ": "
                                  << out.str();
    EXPECT_GT(out.rejoins, 0) << "phase " << phase_ns << ": " << out.str();
    EXPECT_GT(out.resyncs, 0) << "phase " << phase_ns << ": " << out.str();
    EXPECT_TRUE(out.digests_agree) << "phase " << phase_ns << ": "
                                   << out.str();
  }
}

TEST(DriftGrid, RateDrivenDriftCrossesTheThresholdMidRun) {
  // 50000 ppm (5%) from zero phase: +5 ns per us, so the clock crosses the
  // 50 ns threshold ~1 us in — mid-traffic — and the resync rule pulls it
  // back each time the watchdog quarantines the victim. The victim streams
  // its own messages too: its garbled successes feed the lone-leaf retry
  // streak that makes detection deterministic.
  auto options = small_rejoinable_options();
  DdcrTestbed bed(2, options);
  DriftPlan drift;
  drift.specs.push_back(
      {0, Duration(), 50'000.0, Duration::nanoseconds(80)});
  FaultInjector injector(FaultPlan{}, ChurnPlan{}, drift, 1);
  injector.install(bed);
  for (int i = 0; i < 40; ++i) {
    bed.inject(0, demo_msg(10 + i, 0, 500 + 400 * i, 20'000));
    bed.inject(1, demo_msg(50 + i, 1, 500 + 400 * i, 20'000));
  }
  bed.run(SimTime::from_ns(4'000'000));
  EXPECT_GT(injector.stats().drift_missamples, 0);
  EXPECT_GT(bed.station(0).counters().quarantines, 0);
  EXPECT_GT(injector.stats().drift_resyncs, 0);
}

TEST(DriftCampaign, DriftedCampaignsStillPassBothInvariants) {
  // The full campaign harness with the drift axis on: initial phases are
  // drawn in [-60, 60] ns around the campaign's 100 ns slot, so some seeds
  // mis-sample and some stay benign; either way safety + reconvergence
  // must hold.
  std::int64_t total_missamples = 0;
  for (std::uint64_t seed = 1; seed <= 8; ++seed) {
    CampaignOptions options;
    options.seed = seed;
    options.stations = 4;
    options.crashes = 0;
    options.symmetric_bursts = 0;
    options.asymmetric_bursts = 0;
    options.drifted_stations = 2;
    options.drift_phase_bound = Duration::nanoseconds(60);
    options.drift_rate_ppm = 1000.0;
    const CampaignResult result = run_campaign(options);
    EXPECT_TRUE(result.passed())
        << "seed " << seed << " safety=" << result.safety_ok
        << " drained=" << result.drained
        << " reconverged=" << result.reconverged;
    total_missamples += result.faults.drift_missamples;
  }
  EXPECT_GT(total_missamples, 0);  // the axis actually bit on some seed
}

}  // namespace
}  // namespace hrtdm::fault
