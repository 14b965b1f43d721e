// Failure injection: symmetric frame corruption (channel noise) and
// station crash / rejoin. The broadcast property makes corruption look
// like a collision to everyone simultaneously, so the replicated protocol
// state machines must stay consistent and simply retry; a crashed station
// rejoins via the listen-only quiet-period certificate.
#include <gtest/gtest.h>

#include "core/ddcr_network.hpp"
#include "core/ddcr_station.hpp"
#include "fault/fault_injector.hpp"
#include "fault/fault_plan.hpp"
#include "traffic/workload.hpp"
#include "util/check.hpp"

namespace hrtdm::core {
namespace {

using traffic::Message;
using util::Duration;

DdcrRunOptions noisy_options(double corruption) {
  DdcrRunOptions options;
  options.phy.slot_x = Duration::nanoseconds(100);
  options.phy.psi_bps = 1e9;
  options.phy.overhead_bits = 0;
  options.phy.corruption_prob = corruption;
  options.ddcr.m_time = 2;
  options.ddcr.F = 16;
  options.ddcr.m_static = 2;
  options.ddcr.q = 16;
  options.ddcr.class_width_c = Duration::microseconds(1);
  options.ddcr.alpha = Duration::nanoseconds(0);
  return options;
}

Message make_msg(std::int64_t uid, int source, std::int64_t arrival_ns,
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

TEST(Noise, CorruptedFramesAreRetriedAndDelivered) {
  auto options = noisy_options(0.3);
  DdcrTestbed bed(3, options);
  for (int s = 0; s < 3; ++s) {
    for (int i = 0; i < 10; ++i) {
      bed.inject(s, make_msg(s * 100 + i, s, i * 20'000, 500'000));
    }
  }
  bed.run_until_delivered(30, SimTime::from_ns(50'000'000));
  EXPECT_EQ(bed.metrics().log().size(), 30u);
  EXPECT_GT(bed.channel().stats().corrupted_frames, 0);
  EXPECT_TRUE(bed.digests_agree());
  EXPECT_EQ(bed.queued(), 0);
}

TEST(Noise, HeavyNoiseStillDeliversEventually) {
  auto options = noisy_options(0.6);
  DdcrTestbed bed(2, options);
  bed.inject(0, make_msg(1, 0, 0, 10'000'000));
  bed.inject(1, make_msg(2, 1, 0, 10'000'000));
  bed.run_until_delivered(2, SimTime::from_ns(100'000'000));
  EXPECT_EQ(bed.metrics().log().size(), 2u);
  EXPECT_TRUE(bed.digests_agree());
}

TEST(Noise, StaticLeafRetriesAccountedWhenTieBreakCorrupted) {
  // Force repeated static searches under noise; corrupted lone static-leaf
  // transmissions must be re-probed, never treated as a genuine tie.
  auto options = noisy_options(0.4);
  DdcrTestbed bed(4, options);
  for (int s = 0; s < 4; ++s) {
    for (int i = 0; i < 6; ++i) {
      // Same deadline class for all: every epoch goes through STs.
      bed.inject(s, make_msg(s * 10 + i, s, i * 50'000, 400'000));
    }
  }
  bed.run_until_delivered(24, SimTime::from_ns(100'000'000));
  EXPECT_EQ(bed.metrics().log().size(), 24u);
  EXPECT_TRUE(bed.digests_agree());
  std::int64_t retries = 0;
  for (int s = 0; s < 4; ++s) {
    retries += bed.station(s).counters().static_leaf_retries;
  }
  // Retries are noise-dependent but with 40% corruption across many STs
  // at least one corrupted lone-leaf transmission is overwhelmingly likely.
  EXPECT_GT(retries, 0);
}

TEST(Noise, DeterministicPerSeedIncludingCorruption) {
  auto options = noisy_options(0.25);
  const traffic::Workload wl = traffic::quickstart(4);
  DdcrRunOptions run_options = options;
  run_options.phy = net::PhyConfig::gigabit_ethernet();
  run_options.phy.corruption_prob = 0.25;
  run_options.ddcr.class_width_c =
      DdcrConfig::class_width_for(wl.max_deadline(), run_options.ddcr.F);
  run_options.ddcr.F = 64;
  run_options.ddcr.m_time = 4;
  run_options.ddcr.m_static = 4;
  run_options.ddcr.q = 64;
  run_options.arrival_horizon = SimTime::from_ns(20'000'000);
  run_options.drain_cap = SimTime::from_ns(100'000'000);
  const auto a = run_ddcr(wl, run_options);
  const auto b = run_ddcr(wl, run_options);
  EXPECT_EQ(a.channel.corrupted_frames, b.channel.corrupted_frames);
  EXPECT_EQ(a.metrics.delivered, b.metrics.delivered);
  EXPECT_GT(a.channel.corrupted_frames, 0);
}

TEST(Rejoin, ThresholdRequiresBoundedSilenceStreaks) {
  DdcrConfig config;
  config.epoch_mode = EpochMode::kPerpetual;
  config.theta_factor = 1.0;
  EXPECT_THROW(config.resync_silence_threshold(), util::ContractViolation);

  config.epoch_mode = EpochMode::kCsmaCdFallback;
  config.theta_factor = 1.0;
  config.max_empty_tts = 0;  // unbounded compressed-time chains
  EXPECT_THROW(config.resync_silence_threshold(), util::ContractViolation);

  config.max_empty_tts = 2;
  EXPECT_GT(config.resync_silence_threshold(), 0);
  config.max_empty_tts = 0;
  config.theta_factor = 0.0;  // chains close immediately: also bounded
  EXPECT_GT(config.resync_silence_threshold(), 0);
}

TEST(Rejoin, CrashedStationResyncsAndDelivers) {
  auto options = noisy_options(0.0);
  options.ddcr.max_empty_tts = 2;
  DdcrTestbed bed(3, options);
  // Phase 1: traffic involving all three stations.
  for (int s = 0; s < 3; ++s) {
    bed.inject(s, make_msg(s, s, 0, 200'000));
  }
  bed.run_until_delivered(3, SimTime::from_ns(5'000'000));
  ASSERT_EQ(bed.metrics().log().size(), 3u);

  // Crash station 2 mid-run; it keeps its queue but loses protocol state.
  bed.station(2).reset_for_rejoin();
  EXPECT_FALSE(bed.station(2).synced());

  // Quiet channel lets it certify and rejoin.
  const auto threshold = options.ddcr.resync_silence_threshold();
  bed.run(bed.simulator().now() +
          options.phy.slot_x * (threshold + 4));
  EXPECT_TRUE(bed.station(2).synced());
  EXPECT_EQ(bed.station(2).counters().rejoins, 1);

  // Phase 2: new contention involving the rejoined station resolves
  // consistently and delivers everything.
  const auto now = bed.simulator().now().ns();
  for (int s = 0; s < 3; ++s) {
    bed.inject(s, make_msg(100 + s, s, now + 1'000, 300'000));
  }
  bed.run_until_delivered(6, SimTime::from_ns(now + 10'000'000));
  EXPECT_EQ(bed.metrics().log().size(), 6u);
  EXPECT_TRUE(bed.digests_agree());
  EXPECT_EQ(bed.metrics().summarize().misses, 0);
}

TEST(Rejoin, ResyncWaitsOutLiveContention) {
  // A station rejoining while an epoch rages must not certify early: its
  // counter resets on every collision/success.
  auto options = noisy_options(0.0);
  options.ddcr.max_empty_tts = 2;
  DdcrTestbed bed(4, options);
  for (int s = 0; s < 3; ++s) {
    for (int i = 0; i < 30; ++i) {
      bed.inject(s, make_msg(s * 100 + i, s, i * 400, 2'000'000));
    }
  }
  bed.station(3).reset_for_rejoin();
  // Run just past the arrival burst; contention is continuous, so the
  // joiner must still be waiting.
  bed.run(SimTime::from_ns(6'000));
  EXPECT_FALSE(bed.station(3).synced());
  // After the backlog drains the channel goes quiet and it joins.
  bed.run_until_delivered(90, SimTime::from_ns(60'000'000));
  bed.run(bed.simulator().now() +
          options.phy.slot_x *
              (options.ddcr.resync_silence_threshold() + 4));
  EXPECT_TRUE(bed.station(3).synced());
}

TEST(Rejoin, QueueSurvivesCrash) {
  auto options = noisy_options(0.0);
  options.ddcr.max_empty_tts = 1;
  DdcrTestbed bed(2, options);
  bed.inject(0, make_msg(1, 0, 0, 1'000'000));
  bed.run(SimTime::from_ns(50));  // message queued, not yet transmitted
  bed.station(0).reset_for_rejoin();
  EXPECT_EQ(bed.station(0).queue().size(), 1u);
  // After resync the queued message goes out.
  bed.run_until_delivered(1, SimTime::from_ns(10'000'000));
  EXPECT_EQ(bed.metrics().log().size(), 1u);
}

TEST(Rejoin, RejectsUnsoundConfiguration) {
  auto options = noisy_options(0.0);
  options.ddcr.theta_factor = 1.0;
  options.ddcr.max_empty_tts = 0;
  DdcrTestbed bed(2, options);
  EXPECT_THROW(bed.station(0).reset_for_rejoin(), util::ContractViolation);
}

TEST(Rejoin, RejectsUnsoundConfigurationAtConstructionWhenRequired) {
  // A run that intends to crash/rejoin can opt into the up-front check and
  // get an actionable error at network construction instead of a deep
  // failure inside reset_for_rejoin() later.
  auto options = noisy_options(0.0);
  options.ddcr.theta_factor = 1.0;
  options.ddcr.max_empty_tts = 0;
  options.require_rejoinable = true;
  EXPECT_THROW(DdcrTestbed(2, options), util::ContractViolation);

  options.ddcr.max_empty_tts = 2;  // bounded silence streaks: accepted
  DdcrTestbed bed(2, options);
  EXPECT_EQ(bed.station_count(), 2);
}

TEST(Rejoin, CrashDuringStaticSearchLeavesSurvivorsConsistent) {
  // Three stations collide in the same deadline class, forcing the epoch
  // into a static tree search; station 2 crashes while *inside* that
  // search. The survivors must finish the (now smaller) search and deliver;
  // the crashed station rejoins over a quiet channel and delivers its
  // retained message afterwards.
  auto options = noisy_options(0.0);
  options.ddcr.max_empty_tts = 2;
  DdcrTestbed bed(3, options);
  for (int s = 0; s < 3; ++s) {
    bed.inject(s, make_msg(s, s, 500, 12'000));
  }
  // Step slot-by-slot until station 2 is mid static search, then crash it.
  const auto step = options.phy.slot_x;
  while (bed.station(2).mode() != DdcrStation::Mode::kStaticSearch) {
    bed.run(bed.simulator().now() + step);
    ASSERT_LT(bed.simulator().now().ns(), 1'000'000) << "never reached STs";
  }
  bed.station(2).reset_for_rejoin();
  EXPECT_FALSE(bed.station(2).synced());
  EXPECT_EQ(bed.station(2).queue().size(), 1u);

  // Survivors complete the epoch: step slot-by-slot (coarser runs would
  // overshoot past the quiet-period rejoin) until their two deliveries are
  // out, and check their digests agree while the crashed station is still
  // resyncing.
  while (bed.metrics().log().size() < 2u) {
    bed.run(bed.simulator().now() + step);
    ASSERT_LT(bed.simulator().now().ns(), 1'000'000) << "survivors stalled";
  }
  EXPECT_EQ(bed.station(0).protocol_digest(), bed.station(1).protocol_digest());

  // The crashed station rejoins over the quiet channel and delivers its
  // retained message once synced.
  bed.run_until_delivered(3, SimTime::from_ns(20'000'000));
  EXPECT_EQ(bed.metrics().log().size(), 3u);
  EXPECT_TRUE(bed.station(2).synced());
  EXPECT_EQ(bed.station(2).counters().rejoins, 1);

  // A rejoined station carries reft = 0 until its next epoch; a fresh
  // 3-way contention round resynchronises it and restores full agreement.
  const auto now = bed.simulator().now().ns();
  for (int s = 0; s < 3; ++s) {
    bed.inject(s, make_msg(100 + s, s, now + 1'000, 12'000));
  }
  bed.run_until_delivered(6, SimTime::from_ns(now + 20'000'000));
  EXPECT_EQ(bed.metrics().log().size(), 6u);
  EXPECT_TRUE(bed.digests_agree());
}

TEST(Rejoin, CrashDuringPacketBurstReleasesTheChannel) {
  // Station 0 wins the channel and is chaining continuation frames under
  // the 802.3z-style burst budget when it crashes (scripted, at the slot
  // boundary of its second continuation). A crashed station must not keep
  // bursting from inside listen-only resync: the channel is released, the
  // remaining message stays queued, and it goes out after the rejoin.
  auto options = noisy_options(0.0);
  options.ddcr.max_empty_tts = 2;
  options.phy.burst_budget_bits = 400;
  DdcrTestbed bed(2, options);
  for (int i = 0; i < 4; ++i) {
    bed.inject(0, make_msg(10 + i, 0, 500, 50'000));
  }

  // Arrivals at 500 ns with 100 ns slots: observations 0..4 are silence,
  // 5 is the initial win, 6.. are burst continuations. Crash at the
  // boundary of observation 7 — after the second continuation delivered,
  // before the station is polled for the third.
  fault::FaultPlan plan;
  plan.crashes.push_back({7, 0});
  fault::FaultInjector injector(std::move(plan), 1);
  injector.install(bed);

  // Run to just past the slot boundary following the crash (coarser runs
  // would overshoot the short quiet-period rejoin): the burst is cut after
  // two continuations and the channel falls silent.
  bed.run(SimTime::from_ns(950));
  ASSERT_EQ(injector.stats().crashes_fired, 1);
  ASSERT_EQ(bed.metrics().log().size(), 3u);
  EXPECT_EQ(bed.channel().stats().burst_continuations, 2);
  EXPECT_FALSE(bed.station(0).synced());
  EXPECT_EQ(bed.station(0).queue().size(), 1u);

  // Quiet channel -> rejoin -> the retained fourth message goes out as a
  // plain CSMA-CD success, not a burst continuation.
  bed.run_until_delivered(4, SimTime::from_ns(10'000'000));
  EXPECT_TRUE(bed.station(0).synced());
  EXPECT_EQ(bed.station(0).counters().rejoins, 1);
  EXPECT_EQ(bed.metrics().log().size(), 4u);
  EXPECT_EQ(bed.channel().stats().burst_continuations, 2);
  EXPECT_TRUE(bed.digests_agree());
}

TEST(Rejoin, TwoStationsWithOverlappingResyncWindows) {
  // Station 2 starts its quiet-period count; station 3 crashes a few slots
  // later, so their resync windows overlap. Both must certify
  // independently (the certificate is pure listening — joiners do not
  // disturb each other) and the four-way contention afterwards resolves
  // consistently.
  auto options = noisy_options(0.0);
  options.ddcr.max_empty_tts = 2;
  DdcrTestbed bed(4, options);
  bed.inject(0, make_msg(1, 0, 0, 200'000));
  bed.run_until_delivered(1, SimTime::from_ns(5'000'000));

  bed.station(2).reset_for_rejoin();
  bed.run(bed.simulator().now() + options.phy.slot_x * 5);
  bed.station(3).reset_for_rejoin();
  EXPECT_FALSE(bed.station(2).synced());
  EXPECT_FALSE(bed.station(3).synced());

  bed.run(bed.simulator().now() +
          options.phy.slot_x * (options.ddcr.resync_silence_threshold() + 8));
  EXPECT_TRUE(bed.station(2).synced());
  EXPECT_TRUE(bed.station(3).synced());
  EXPECT_EQ(bed.station(2).counters().rejoins, 1);
  EXPECT_EQ(bed.station(3).counters().rejoins, 1);

  const auto now = bed.simulator().now().ns();
  for (int s = 0; s < 4; ++s) {
    bed.inject(s, make_msg(100 + s, s, now + 1'000, 300'000));
  }
  bed.run_until_delivered(5, SimTime::from_ns(now + 20'000'000));
  EXPECT_EQ(bed.metrics().log().size(), 5u);
  EXPECT_TRUE(bed.digests_agree());
  EXPECT_EQ(bed.metrics().summarize().misses, 0);
}

}  // namespace
}  // namespace hrtdm::core
