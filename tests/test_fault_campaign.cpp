// Randomized fault campaigns: the protocol stack must survive assumption
// *violations*, not just operate inside them. Each campaign runs a full
// network under a seeded mixture of crash, symmetric-noise and asymmetric
// receive faults (fault::FaultPlan / fault::FaultInjector) and asserts the
// two invariants no fault pattern may break:
//
//   safety        — channel-level mutual exclusion of deliveries, checked
//                   from the ground-truth SlotRecords;
//   reconvergence — after the last injected fault every station is synced,
//                   all protocol digests agree, and every queue drains,
//                   within the campaign's bounded recovery budget.
//
// Plus a deterministic demonstration that a station which *would* silently
// diverge after an asymmetric receive fault is caught by the divergence
// watchdog and recovers through quarantine.
#include <gtest/gtest.h>

#include "core/ddcr_network.hpp"
#include "fault/campaign.hpp"
#include "fault/fault_injector.hpp"
#include "outcome_fold.hpp"
#include "traffic/message.hpp"
#include "util/check.hpp"

namespace hrtdm::fault {
namespace {

using core::DdcrTestbed;
using traffic::Message;
using util::Duration;
using util::SimTime;

std::string describe(const CampaignResult& r) {
  return "safety_violations=" + std::to_string(r.safety_violations) +
         " drained=" + std::to_string(r.drained) +
         " reconverged=" + std::to_string(r.reconverged) +
         " desyncs=" + std::to_string(r.desyncs_detected) +
         " quarantines=" + std::to_string(r.quarantines) +
         " rejoins=" + std::to_string(r.rejoins) +
         " rounds=" + std::to_string(r.recovery_rounds_used) +
         " reconv_obs=" + std::to_string(r.reconvergence_observations);
}

TEST(FaultCampaign, FiftySeededMixedCampaignsHoldBothInvariants) {
  // >= 50 campaigns mixing all three fault classes. Alternate the mixture
  // across seeds so crash-heavy, noise-heavy and asymmetric-heavy patterns
  // are all covered.
  std::int64_t total_desyncs = 0;
  std::int64_t total_quarantines = 0;
  std::int64_t total_crashes = 0;
  std::int64_t total_asym = 0;
  for (std::uint64_t seed = 1; seed <= 50; ++seed) {
    CampaignOptions options;
    options.seed = seed;
    options.stations = 3 + static_cast<int>(seed % 3);  // 3..5
    options.crashes = static_cast<int>(seed % 3);       // 0..2
    options.symmetric_bursts = static_cast<int>(seed % 2);
    options.asymmetric_bursts = 1 + static_cast<int>(seed % 3);  // 1..3
    const CampaignResult result = run_campaign(options);
    EXPECT_TRUE(result.safety_ok) << "seed " << seed << ": "
                                  << describe(result);
    EXPECT_TRUE(result.drained) << "seed " << seed << ": "
                                << describe(result);
    EXPECT_TRUE(result.reconverged) << "seed " << seed << ": "
                                    << describe(result);
    EXPECT_LE(result.reconvergence_observations, options.recovery_slots_cap)
        << "seed " << seed;
    total_desyncs += result.desyncs_detected;
    total_quarantines += result.quarantines;
    total_crashes += result.faults.crashes_fired;
    total_asym += result.faults.asymmetric_corruptions +
                  result.faults.asymmetric_misses;
  }
  // The grid must actually have exercised the hard fault class and the
  // watchdog, not just quiet runs that trivially pass.
  EXPECT_GT(total_crashes, 0);
  EXPECT_GT(total_asym, 0);
  EXPECT_GT(total_desyncs, 0);
  EXPECT_GT(total_quarantines, 0);
}

TEST(FaultCampaign, AsymmetricOnlyCampaignsReconverge) {
  // The fault class the correctness proofs exclude, isolated: no crashes,
  // no symmetric noise — every divergence is a receiver-local lie.
  for (std::uint64_t seed = 100; seed < 110; ++seed) {
    CampaignOptions options;
    options.seed = seed;
    options.stations = 4;
    options.crashes = 0;
    options.symmetric_bursts = 0;
    options.asymmetric_bursts = 3;
    options.asymmetric_prob = 0.8;
    const CampaignResult result = run_campaign(options);
    EXPECT_TRUE(result.passed()) << "seed " << seed << ": "
                                 << describe(result);
  }
}

TEST(FaultCampaign, DeterministicPerSeed) {
  CampaignOptions options;
  options.seed = 7;
  options.crashes = 2;
  options.asymmetric_bursts = 2;
  const CampaignResult a = run_campaign(options);
  const CampaignResult b = run_campaign(options);
  EXPECT_EQ(a.delivered, b.delivered);
  EXPECT_EQ(a.desyncs_detected, b.desyncs_detected);
  EXPECT_EQ(a.quarantines, b.quarantines);
  EXPECT_EQ(a.reconvergence_observations, b.reconvergence_observations);
  EXPECT_EQ(a.faults.crashes_fired, b.faults.crashes_fired);
  EXPECT_EQ(a.faults.asymmetric_corruptions, b.faults.asymmetric_corruptions);
  EXPECT_EQ(a.faults.asymmetric_misses, b.faults.asymmetric_misses);
  EXPECT_EQ(a.faults.symmetric_corruptions, b.faults.symmetric_corruptions);
}

TEST(FaultCampaign, ParallelCampaignsMatchSerialLoop) {
  // run_campaigns on the worker pool must equal the serial per-seed loop
  // result-for-result (campaigns share nothing; slots are index-keyed).
  CampaignOptions base;
  base.stations = 4;
  base.crashes = 1;
  base.asymmetric_bursts = 2;
  const std::vector<std::uint64_t> seeds = {3, 5, 8, 13, 21};

  std::vector<CampaignResult> serial;
  for (const std::uint64_t seed : seeds) {
    CampaignOptions options = base;
    options.seed = seed;
    serial.push_back(run_campaign(options));
  }

  const auto parallel = run_campaigns(base, seeds, 4);
  ASSERT_EQ(parallel.size(), serial.size());
  for (std::size_t i = 0; i < serial.size(); ++i) {
    EXPECT_EQ(parallel[i].delivered, serial[i].delivered) << "seed idx " << i;
    EXPECT_EQ(parallel[i].generated, serial[i].generated) << i;
    EXPECT_EQ(parallel[i].misses, serial[i].misses) << i;
    EXPECT_EQ(parallel[i].desyncs_detected, serial[i].desyncs_detected) << i;
    EXPECT_EQ(parallel[i].quarantines, serial[i].quarantines) << i;
    EXPECT_EQ(parallel[i].reconvergence_observations,
              serial[i].reconvergence_observations)
        << i;
    EXPECT_EQ(parallel[i].faults.crashes_fired, serial[i].faults.crashes_fired)
        << i;
    EXPECT_EQ(parallel[i].faults.asymmetric_corruptions,
              serial[i].faults.asymmetric_corruptions)
        << i;
  }
}

// The tests above check invariants and same-seed determinism, which a
// refactor that moves outcomes while keeping them legal would pass. These
// pins fold every CampaignResult field, one value per configuration.
std::uint64_t fold(const CampaignResult& r) {
  const FaultInjector::Stats& f = r.faults;
  return pins::OutcomeFold()
      .add(r.safety_ok)
      .add(r.safety_violations)
      .add(r.drained)
      .add(r.reconverged)
      .add(r.last_fault_observation)
      .add(r.reconvergence_observations)
      .add(r.recovery_rounds_used)
      .add(f.crashes_fired)
      .add(f.symmetric_corruptions)
      .add(f.asymmetric_corruptions)
      .add(f.asymmetric_misses)
      .add(f.churn_leaves)
      .add(f.churn_joins)
      .add(f.drift_missamples)
      .add(f.drift_resyncs)
      .add(r.desyncs_detected)
      .add(r.quarantines)
      .add(r.rejoins)
      .add(r.generated)
      .add(r.delivered)
      .add(r.misses)
      .add(r.conformance)
      .value();
}

TEST(FaultCampaign, OutcomesArePinned) {
  // Rows: the default mix, Poisson churn, adversarial churn and two
  // drifted stations (the churn and drift suites' shapes); columns: seeds
  // 1-8. Every campaign runs the clean-prefix conformance check.
  constexpr std::uint64_t kPins[4][8] = {
      {0xe16cce0b3ebeba0b, 0xc3ec93bbf8df00eb, 0xc3fc20101e2da645,
       0xb305b90371660ce2, 0x101821351a16aa12, 0x32ef66a11b55e1e0,
       0xd158ae20efe8d30e, 0xc7dc034d9a58239d},
      {0xe9fbe4f4e7dce47f, 0x5222794ed04f8416, 0x0b1c33b063555b37,
       0x11678afc6eea25d2, 0x29b1fc919d2a04ea, 0x821a65241e3f4783,
       0xbbe3b4262b6931fa, 0xfc7b2d97f22a520c},
      {0x35726a45c32efac0, 0xd807552679448123, 0x98ef20d36e0e6af0,
       0x151a2bb954fc17f6, 0x341cd663ad0df0af, 0xf21c1d02d1aae10e,
       0xaa4d19f1ac64957a, 0xa923992048fed841},
      {0x7fbb39be46e065e8, 0x3bd0288d506a9542, 0x014309ca46295438,
       0x82804e3a63531472, 0x86bac7ce9587c292, 0xba94197620734981,
       0x7b48731e14a96b90, 0x01aefe983bc67946},
  };
  for (int mix = 0; mix < 4; ++mix) {
    for (int seed = 1; seed <= 8; ++seed) {
      CampaignOptions options;
      options.seed = static_cast<std::uint64_t>(seed);
      options.conformance_check = true;
      if (mix == 1) {
        options.churn_events = 6;
      } else if (mix == 2) {
        options.stations = 5;
        options.churn_events = 1;
        options.churn_adversarial = true;
      } else if (mix == 3) {
        options.crashes = 0;
        options.symmetric_bursts = 0;
        options.asymmetric_bursts = 0;
        options.drifted_stations = 2;
        options.drift_phase_bound = Duration::nanoseconds(60);
        options.drift_rate_ppm = 1000.0;
      }
      const std::uint64_t got = fold(run_campaign(options));
      EXPECT_EQ(got, kPins[mix][seed - 1])
          << "mix " << mix << " seed " << seed << ": got 0x" << std::hex
          << got;
    }
  }
}

TEST(FaultCampaign, RejectsRejoinImpossibleConfiguration) {
  // Satellite: a config whose quiet-period certificate is unsound must be
  // rejected at construction with an actionable error, not livelock later.
  CampaignOptions options;
  options.ddcr.theta_factor = 1.0;
  options.ddcr.max_empty_tts = 0;  // unbounded in-epoch silence streaks
  EXPECT_THROW(run_campaign(options), util::ContractViolation);
}

TEST(FaultPlanSuite, ValidatesDirectives) {
  FaultPlan plan;
  plan.crashes.push_back({-1, 0});
  EXPECT_THROW(plan.validate(2), util::ContractViolation);
  plan.crashes.clear();
  plan.asymmetric.push_back({0, 10, 5, AsymmetricKind::kMissReceive, 1.0});
  EXPECT_THROW(plan.validate(2), util::ContractViolation);
  plan.asymmetric.clear();
  plan.symmetric.push_back({10, 10, 0.5});
  EXPECT_THROW(plan.validate(2), util::ContractViolation);

  FaultPlan ok;
  ok.crashes.push_back({5, 1});
  ok.symmetric.push_back({0, 8, 0.25});
  ok.asymmetric.push_back({3, 9, 0, AsymmetricKind::kCorruptReceive, 1.0});
  ok.validate(2);
  EXPECT_EQ(ok.last_fault_observation(), 8);
  EXPECT_TRUE(ok.has_crashes());
}

// --- the watchdog demonstration -----------------------------------------
//
// Station 1 streams back-to-back CSMA-CD successes; a single scripted
// asymmetric fault makes station 0 hear one of them as a collision. Station
// 0 therefore starts a collision-resolution epoch nobody else is in — the
// silent-divergence scenario. The very next (true) success is protocol-
// impossible from inside that phantom epoch: its deadline class lies outside
// the probed subtree.

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

FaultPlan demo_plan() {
  // Station 1's six messages arrive at t = 500 ns; with 100 ns slots the
  // first five observations are silence and successes follow back-to-back,
  // so observation 8 is deterministically one of the successes. Station 0
  // hears exactly that one as a collision.
  FaultPlan plan;
  plan.asymmetric.push_back(
      {8, 9, 0, AsymmetricKind::kCorruptReceive, 1.0});
  return plan;
}

void inject_demo_traffic(DdcrTestbed& bed) {
  for (int i = 0; i < 6; ++i) {
    bed.inject(1, demo_msg(10 + i, 1, 500, 12'000));
  }
}

TEST(Watchdog, WithoutItAnAsymmetricFaultSilentlyDiverges) {
  auto options = small_rejoinable_options();
  options.ddcr.enable_divergence_watchdog = false;
  DdcrTestbed bed(2, options);
  FaultInjector injector(demo_plan(), 1);
  injector.install(bed);
  inject_demo_traffic(bed);

  bed.run_until_delivered(6, SimTime::from_ns(1'000'000));
  ASSERT_EQ(bed.metrics().log().size(), 6u);
  ASSERT_EQ(injector.stats().asymmetric_corruptions, 1);

  // Station 0 ran a phantom epoch and now carries a diverged reft; both
  // stations report "synced" while their replicated state disagrees —
  // the silent divergence the watchdog exists to catch.
  EXPECT_TRUE(bed.station(0).synced());
  EXPECT_FALSE(bed.digests_agree());
  EXPECT_EQ(bed.station(0).counters().desyncs_detected, 0);
  EXPECT_EQ(bed.station(0).counters().quarantines, 0);
}

TEST(Watchdog, DetectsTheDivergenceAndRecoversViaQuarantine) {
  auto options = small_rejoinable_options();  // watchdog on by default
  DdcrTestbed bed(2, options);
  FaultInjector injector(demo_plan(), 1);
  injector.install(bed);
  inject_demo_traffic(bed);

  bed.run_until_delivered(6, SimTime::from_ns(1'000'000));
  ASSERT_EQ(injector.stats().asymmetric_corruptions, 1);

  // The first success observed from inside the phantom epoch is protocol-
  // impossible (deadline class outside the probed subtree): station 0
  // detects its own divergence and self-quarantines.
  EXPECT_EQ(bed.station(0).counters().desyncs_detected, 1);
  EXPECT_EQ(bed.station(0).counters().quarantines, 1);

  // Quarantine re-enters through the quiet-period certificate...
  const auto threshold = options.ddcr.resync_silence_threshold();
  bed.run(bed.simulator().now() + options.phy.slot_x * (threshold + 8));
  EXPECT_TRUE(bed.station(0).synced());
  EXPECT_EQ(bed.station(0).counters().rejoins, 1);

  // ...and the next contention epoch restores full digest agreement.
  const auto now = bed.simulator().now().ns();
  bed.inject(0, demo_msg(100, 0, now + 1'000, 12'000));
  bed.inject(1, demo_msg(101, 1, now + 1'000, 12'000));
  bed.run_until_delivered(8, SimTime::from_ns(now + 1'000'000));
  EXPECT_EQ(bed.metrics().log().size(), 8u);
  EXPECT_TRUE(bed.digests_agree());
}

TEST(Watchdog, MissedCarrierSenseIsAlsoCaught) {
  // Same scenario, but the victim misses the slot entirely (hears silence)
  // during a static search it shares with the talkers: its engine prunes a
  // subtree everyone else saw resolve, and a later success lands outside
  // its (now diverged) probe interval.
  auto options = small_rejoinable_options();
  DdcrTestbed bed(3, options);
  FaultPlan plan;
  // A window of missed receives for station 0 while an epoch resolves a
  // three-way same-class tie.
  plan.asymmetric.push_back({6, 10, 0, AsymmetricKind::kMissReceive, 1.0});
  FaultInjector injector(plan, 1);
  injector.install(bed);
  for (int s = 0; s < 3; ++s) {
    bed.inject(s, demo_msg(s, s, 500, 12'000));
  }
  bed.run_until_delivered(3, SimTime::from_ns(1'000'000));
  EXPECT_GT(injector.stats().asymmetric_misses, 0);

  // Whether the watchdog fired depends on where the misses landed in the
  // epoch; what must hold is: no silent divergence among synced stations.
  const auto quarantines = bed.station(0).counters().quarantines;
  if (bed.station(0).synced() && quarantines == 0) {
    EXPECT_TRUE(bed.digests_agree());
  } else {
    EXPECT_GT(bed.station(0).counters().desyncs_detected, 0);
  }
}

}  // namespace
}  // namespace hrtdm::fault
