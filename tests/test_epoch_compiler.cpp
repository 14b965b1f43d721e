// Compiled epoch fast path (core::EpochCompiler): the closed-form replay
// must be observably bit-identical to the slot-by-slot loop — protocol
// digests, metrics, channel stats, registry counters and the differential
// conformance verdict all agree with the compiler on, off, or in auto mode.
#include "core/epoch_compiler.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdlib>
#include <cstring>
#include <iterator>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "check/conformance.hpp"
#include "core/ddcr_network.hpp"
#include "obs/event_tracer.hpp"
#include "obs/registry.hpp"
#include "traffic/workload.hpp"

namespace hrtdm::core {
namespace {

using traffic::ArrivalKind;
using traffic::Workload;
using util::Duration;
using util::SimTime;

const bool kConformanceInstalled = check::install_conformance_auditor();

std::int64_t counter(const char* name) {
  return obs::Registry::global().counter(name).value();
}

DdcrRunOptions base_options(const Workload& wl, int m, std::int64_t leaves) {
  DdcrRunOptions options;
  options.ddcr.m_time = m;
  options.ddcr.F = leaves;
  options.ddcr.m_static = m;
  options.ddcr.q = leaves;
  options.ddcr.class_width_c =
      DdcrConfig::class_width_for(wl.max_deadline(), options.ddcr.F);
  options.ddcr.alpha = options.ddcr.class_width_c * 2;
  options.arrival_horizon = SimTime::from_ns(10'000'000);
  options.drain_cap = SimTime::from_ns(50'000'000);
  return options;
}

void expect_identical(const DdcrRunResult& compiled,
                      const DdcrRunResult& interpreted, const char* label) {
  EXPECT_EQ(compiled.protocol_digest, interpreted.protocol_digest) << label;
  EXPECT_EQ(compiled.metrics.delivered, interpreted.metrics.delivered)
      << label;
  EXPECT_EQ(compiled.metrics.misses, interpreted.metrics.misses) << label;
  EXPECT_EQ(compiled.metrics.silence_slots, interpreted.metrics.silence_slots)
      << label;
  EXPECT_EQ(compiled.metrics.collision_slots,
            interpreted.metrics.collision_slots)
      << label;
  EXPECT_EQ(compiled.metrics.worst_latency_s,
            interpreted.metrics.worst_latency_s)
      << label;
  EXPECT_EQ(compiled.undelivered, interpreted.undelivered) << label;
  EXPECT_EQ(compiled.channel.successes, interpreted.channel.successes)
      << label;
  EXPECT_EQ(compiled.channel.busy_time.ns(), interpreted.channel.busy_time.ns())
      << label;
  EXPECT_EQ(compiled.utilization, interpreted.utilization) << label;
  ASSERT_EQ(compiled.per_station.size(), interpreted.per_station.size());
  for (std::size_t s = 0; s < compiled.per_station.size(); ++s) {
    EXPECT_EQ(compiled.per_station[s].epochs, interpreted.per_station[s].epochs)
        << label << " station " << s;
    EXPECT_EQ(compiled.per_station[s].tts_runs,
              interpreted.per_station[s].tts_runs)
        << label << " station " << s;
    EXPECT_EQ(compiled.per_station[s].sts_runs,
              interpreted.per_station[s].sts_runs)
        << label << " station " << s;
    EXPECT_EQ(compiled.per_station[s].transmitted,
              interpreted.per_station[s].transmitted)
        << label << " station " << s;
    EXPECT_EQ(compiled.per_station[s].search_slots_time,
              interpreted.per_station[s].search_slots_time)
        << label << " station " << s;
    EXPECT_EQ(compiled.per_station[s].search_slots_static,
              interpreted.per_station[s].search_slots_static)
        << label << " station " << s;
  }
}

TEST(EpochCompiler, EnabledResolution) {
  EXPECT_TRUE(epoch_compiler_enabled(EpochCompilerMode::kOn));
  EXPECT_FALSE(epoch_compiler_enabled(EpochCompilerMode::kOff));
  ::unsetenv("HRTDM_EPOCH_COMPILER");
  EXPECT_TRUE(epoch_compiler_enabled(EpochCompilerMode::kAuto));
  ::setenv("HRTDM_EPOCH_COMPILER", "off", 1);
  EXPECT_FALSE(epoch_compiler_enabled(EpochCompilerMode::kAuto));
  EXPECT_TRUE(epoch_compiler_enabled(EpochCompilerMode::kOn));
  ::setenv("HRTDM_EPOCH_COMPILER", "0", 1);
  EXPECT_FALSE(epoch_compiler_enabled(EpochCompilerMode::kAuto));
  ::setenv("HRTDM_EPOCH_COMPILER", "on", 1);
  EXPECT_TRUE(epoch_compiler_enabled(EpochCompilerMode::kAuto));
  ::unsetenv("HRTDM_EPOCH_COMPILER");
}

TEST(EpochCompiler, CompilesSpansOnACleanWorkload) {
  // Non-vacuity: the fast path must actually engage, otherwise every
  // equivalence assertion in this file is trivially true.
  const Workload wl = traffic::videoconference(8);
  auto options = base_options(wl, 4, 64);
  options.epoch_compiler = EpochCompilerMode::kOn;
  options.arrival_horizon = SimTime::from_ns(20'000'000);
  const std::int64_t spans_before = counter("ddcr.spans_compiled");
  const std::int64_t epochs_before = counter("ddcr.epochs_compiled");
  const auto result = run_ddcr(wl, options);
  EXPECT_EQ(result.undelivered, 0);
#if !defined(HRTDM_OBS_OFF)
  // Registry macros are compiled out under HRTDM_OBS_OFF; the compiler-
  // object-based engagement checks live in BailTaxonomyIsExhaustive.
  EXPECT_GT(counter("ddcr.spans_compiled"), spans_before);
  EXPECT_GT(counter("ddcr.epochs_compiled"), epochs_before);
#else
  EXPECT_EQ(counter("ddcr.spans_compiled"), spans_before);
  EXPECT_EQ(counter("ddcr.epochs_compiled"), epochs_before);
#endif
}

TEST(EpochCompiler, SweepMatchesInterpretedBitForBit) {
  // m in {2, 3, 4}, bursty adversarial arrivals and thinned Poisson
  // arrivals (mid-epoch arrivals land inside compiled spans and force
  // bail-outs through the ScheduleWatcher horizon). Every observable must
  // be bit-identical with the compiler on and off, and the differential
  // conformance checker must stay green on the compiled run.
  ASSERT_TRUE(kConformanceInstalled);
  struct Shape {
    int m;
    std::int64_t leaves;
  };
  for (const Shape shape : {Shape{2, 64}, Shape{3, 81}, Shape{4, 64}}) {
    for (const ArrivalKind kind :
         {ArrivalKind::kSaturatingAdversary, ArrivalKind::kBoundedPoisson}) {
      const Workload wl = traffic::videoconference(6);
      auto options = base_options(wl, shape.m, shape.leaves);
      options.arrivals = kind;
      options.seed = 7;
      options.check_consistency = true;

      options.epoch_compiler = EpochCompilerMode::kOff;
      const auto interpreted = run_ddcr(wl, options);

      options.epoch_compiler = EpochCompilerMode::kOn;
      options.conformance_check = true;
      const auto compiled = run_ddcr(wl, options);

      const std::string label = "m=" + std::to_string(shape.m) + " kind=" +
                                std::to_string(static_cast<int>(kind));
      expect_identical(compiled, interpreted, label.c_str());
      EXPECT_TRUE(compiled.consistency_ok) << label;
      EXPECT_TRUE(compiled.conformance.checked) << label;
      EXPECT_TRUE(compiled.conformance.ok)
          << label << ": " << compiled.conformance.summary();
    }
  }
}

TEST(EpochCompiler, AutoMatchesExplicitOn) {
  ::unsetenv("HRTDM_EPOCH_COMPILER");
  const Workload wl = traffic::stock_exchange(6);
  auto options = base_options(wl, 4, 64);
  options.epoch_compiler = EpochCompilerMode::kAuto;
  const auto auto_run = run_ddcr(wl, options);
  options.epoch_compiler = EpochCompilerMode::kOn;
  const auto on_run = run_ddcr(wl, options);
  expect_identical(auto_run, on_run, "auto-vs-on");
}

TEST(EpochCompiler, BurstingEpochsStayIdentical) {
  // Packet bursting inside compiled spans: the burst chain is replayed
  // closed-form (poll_burst budget walk included) and must match.
  const Workload wl = traffic::videoconference(6);
  auto options = base_options(wl, 4, 64);
  options.phy.burst_budget_bits = 30000;
  options.epoch_compiler = EpochCompilerMode::kOff;
  const auto interpreted = run_ddcr(wl, options);
  options.epoch_compiler = EpochCompilerMode::kOn;
  const auto compiled = run_ddcr(wl, options);
  expect_identical(compiled, interpreted, "bursting");
  EXPECT_EQ(compiled.channel.burst_continuations,
            interpreted.channel.burst_continuations);
}

TEST(EpochCompiler, MidEpochInjectionForcesBailOutAndStaysIdentical) {
  // Twin testbeds: a 4-way collision starts an epoch; a fifth message is
  // scheduled to arrive inside it, which caps / dissolves the compiled
  // span. Both worlds must agree slot for slot.
  const Workload wl = traffic::quickstart(4);
  std::uint64_t digest_off = 0;
  std::int64_t silence_off = 0;
  for (int phase = 0; phase < 2; ++phase) {
    auto options = base_options(wl, 4, 64);
    options.epoch_compiler =
        phase == 0 ? EpochCompilerMode::kOff : EpochCompilerMode::kOn;
    DdcrTestbed bed(4, options);
    const Duration slot = options.phy.slot_x;
    for (int s = 0; s < 4; ++s) {
      traffic::Message msg;
      msg.uid = 100 + s;
      msg.source = s;
      msg.l_bits = 4000;
      msg.arrival = SimTime::from_ns(10'000);
      msg.absolute_deadline = msg.arrival + options.ddcr.class_width_c * 8;
      bed.inject(s, msg);
    }
    traffic::Message late;
    late.uid = 999;
    late.source = 2;
    late.l_bits = 4000;
    // Lands a few slots into the collision-resolution epoch.
    late.arrival = SimTime::from_ns(10'000) + slot * 3;
    late.absolute_deadline = late.arrival + options.ddcr.class_width_c * 20;
    bed.inject(2, late);
    bed.run(SimTime::from_ns(5'000'000));
    EXPECT_EQ(bed.queued(), 0);
    EXPECT_TRUE(bed.digests_agree());
    const auto snap = bed.channel_snapshot();
    if (phase == 0) {
      digest_off = bed.station(0).protocol_digest();
      silence_off = snap.stats.silence_slots;
    } else {
      EXPECT_EQ(bed.station(0).protocol_digest(), digest_off);
      EXPECT_EQ(snap.stats.silence_slots, silence_off);
    }
  }
}

TEST(EpochCompiler, GeSwitchDissolvesOpenEndedIdleGap) {
  // Regression (PR 7 satellite): set_phy() flipping a clean channel into
  // Gilbert-Elliott loss used to leave an open-ended idle gap committed
  // under the old "no GE chain" predicate, so skipped slots never advanced
  // the chain. The switch must dissolve the gap; from then on every slot
  // advances the chain (observable as ge_bad_slots accumulating even on an
  // idle channel) and the compiled-span fast path must stay disengaged.
  const Workload wl = traffic::quickstart(2);
  auto options = base_options(wl, 4, 64);
  DdcrTestbed bed(2, options);
  const Duration slot = options.phy.slot_x;
  // Idle from t = 0: the channel commits an open-ended idle gap.
  bed.run(SimTime::from_ns(slot.ns() * 100));
  EXPECT_EQ(bed.channel_snapshot().stats.silence_slots, 100);
  EXPECT_EQ(bed.channel_snapshot().stats.ge_bad_slots, 0);

  net::PhyConfig ge = options.phy;
  ge.gilbert_elliott(/*p_good_bad=*/0.9, /*p_bad_good=*/0.1,
                     /*loss_good=*/0.0, /*loss_bad=*/0.9);
  bed.channel().set_phy(ge);

  const std::int64_t spans_before = counter("ddcr.spans_compiled");
  bed.run(SimTime::from_ns(slot.ns() * 500));
  const auto stats = bed.channel_snapshot().stats;
  // Lazy accounting stays exact across the switch: every slot boundary is
  // accounted exactly once.
  EXPECT_EQ(stats.silence_slots, 500);
  // The GE chain advanced per slot after the switch; with these transition
  // probabilities the bad state is visited with overwhelming probability.
  EXPECT_GT(stats.ge_bad_slots, 0);
  // Same disqualification predicate for the compiled-span path: nothing
  // may be compiled while the GE chain is live.
  EXPECT_EQ(counter("ddcr.spans_compiled"), spans_before);
}

std::int64_t bailout_sum(const EpochCompiler& compiler) {
  std::int64_t sum = 0;
  for (std::size_t r = 0; r < static_cast<std::size_t>(obs::FrBail::kCount_);
       ++r) {
    sum += compiler.bailouts(static_cast<obs::FrBail>(r));
  }
  return sum;
}

// Campaign-shaped rejoin-capable config for the bail-taxonomy testbeds:
// 100 ns slots, F*c = 16 us TTs horizon, bounded silence streaks.
DdcrRunOptions round_options() {
  DdcrRunOptions options;
  options.phy.slot_x = Duration::nanoseconds(100);
  options.phy.psi_bps = 1e9;
  options.phy.overhead_bits = 0;
  options.ddcr.m_time = 2;
  options.ddcr.F = 16;
  options.ddcr.m_static = 2;
  options.ddcr.q = 16;
  options.ddcr.class_width_c = Duration::microseconds(1);
  options.ddcr.alpha = Duration::nanoseconds(0);
  options.ddcr.max_empty_tts = 2;
  options.epoch_compiler = EpochCompilerMode::kOn;
  return options;
}

// Rounds of simultaneous arrivals, one message per station per round: every
// round collides, so every round opens an epoch the channel consults the
// compiler about mid-flight. (The saturating adversary is useless here — it
// front-loads each class window, so a short run is one giant epoch and a
// single compile attempt.)
void inject_rounds(DdcrTestbed& bed, int stations, int rounds,
                   Duration spacing) {
  std::int64_t uid = 1;
  for (int round = 0; round < rounds; ++round) {
    for (int s = 0; s < stations; ++s) {
      traffic::Message m;
      m.uid = uid++;
      m.class_id = round % 4;
      m.source = s;
      m.l_bits = 100;
      m.arrival = SimTime() + spacing * (round + 1);
      m.absolute_deadline = m.arrival + Duration::microseconds(6 + m.class_id);
      bed.inject(s, m);
    }
  }
}

TEST(EpochCompiler, BailTaxonomyIsExhaustive) {
  // Every mid-epoch compile attempt must either commit a span or take
  // exactly one FrBail reason: attempts == commits + sum of per-reason
  // bailouts. The channel only consults the compiler on a clean destructive
  // channel (no corruption, no Gilbert-Elliott chain, no interceptor), so
  // the reachable bail reasons are kHorizon (a scheduled event lands inside
  // the would-be span), kFault (drop_late makes polls impure) and kResync
  // (a station mid quiet-period rejoin). kNoise — an STs leaf collision,
  // i.e. two sources sharing a static index — and the kMaxSlots kCap are
  // defensively unreachable: config validation keeps static indices
  // disjoint across sources and a capped span always holds >= 2 slots and
  // commits. Both stay in the enum so a future relaxation cannot silently
  // escape the taxonomy.
  struct Scenario {
    const char* label;
    bool drop_late;
    bool rejoin;
  };
  for (const Scenario sc : {Scenario{"clean", false, false},
                            Scenario{"drop-late", true, false},
                            Scenario{"rejoin", false, true}}) {
    auto options = round_options();
    options.ddcr.drop_late_messages = sc.drop_late;
    if (sc.rejoin) {
      options.require_rejoinable = true;
    }

    DdcrTestbed bed(6, options);
    inject_rounds(bed, 6, /*rounds=*/300, Duration::microseconds(3));
    if (sc.rejoin) {
      // Quarantine one station mid-run: every consultation while it walks
      // the listen-only resync takes the kResync exit.
      bed.simulator().schedule_at(
          SimTime::from_ns(300'000),
          [&bed] { bed.station(1).reset_for_rejoin(); }, "test:rejoin");
    }
    bed.run(SimTime::from_ns(2'000'000));

    ASSERT_NE(bed.epoch_compiler(), nullptr) << sc.label;
    const EpochCompiler& compiler = *bed.epoch_compiler();
    EXPECT_GT(compiler.compile_attempts(), 0) << sc.label;
    EXPECT_EQ(compiler.compile_attempts(),
              compiler.spans_compiled() + bailout_sum(compiler))
        << sc.label << ": a compile attempt escaped the bail taxonomy";
    if (sc.drop_late) {
      // drop_late makes polls impure: every attempt takes the kFault exit.
      EXPECT_GT(compiler.bailouts(obs::FrBail::kFault), 0) << sc.label;
      EXPECT_EQ(compiler.spans_compiled(), 0) << sc.label;
    } else {
      EXPECT_GT(compiler.spans_compiled(), 0) << sc.label;
    }
    if (sc.rejoin) {
      EXPECT_GT(compiler.bailouts(obs::FrBail::kResync), 0) << sc.label;
    }
    EXPECT_EQ(compiler.bailouts(obs::FrBail::kNoise), 0) << sc.label;
    EXPECT_EQ(compiler.bailouts(obs::FrBail::kCap), 0) << sc.label;
  }
}

TEST(EpochCompiler, BailCountersMirrorTheRegistry) {
  // The per-reason counter family ddcr.compile_bailout.<reason> breaks
  // ddcr.compile_attempts down exactly: across any run, the attempt delta
  // equals the span-commit delta plus every per-reason bailout delta.
  const char* kReasons[] = {"horizon", "fault", "resync",
                            "noise",   "cap",   "desync"};
  static_assert(std::size(kReasons) ==
                    static_cast<std::size_t>(obs::FrBail::kCount_),
                "new FrBail reasons need a counter and a name here");
  for (std::size_t r = 0; r < std::size(kReasons); ++r) {
    EXPECT_STREQ(obs::fr_bail_name(static_cast<obs::FrBail>(r)), kReasons[r]);
  }

  std::int64_t before[std::size(kReasons)];
  for (std::size_t r = 0; r < std::size(kReasons); ++r) {
    before[r] = counter(("ddcr.compile_bailout." + std::string(kReasons[r]))
                            .c_str());
  }
  const std::int64_t attempts_before = counter("ddcr.compile_attempts");
  const std::int64_t spans_before = counter("ddcr.spans_compiled");

  // A clean round-collision run plus a mid-run quarantine: spans commit AND
  // attempts bail (kResync during the quiet-period rejoin, kHorizon when a
  // scheduled arrival lands too close), so both sides of the breakdown move.
  auto options = round_options();
  options.require_rejoinable = true;

  DdcrTestbed bed(6, options);
  inject_rounds(bed, 6, /*rounds=*/300, Duration::microseconds(3));
  bed.simulator().schedule_at(
      SimTime::from_ns(300'000),
      [&bed] { bed.station(2).reset_for_rejoin(); }, "test:rejoin");
  bed.run(SimTime::from_ns(2'000'000));

  std::int64_t bail_delta = 0;
  for (std::size_t r = 0; r < std::size(kReasons); ++r) {
    bail_delta +=
        counter(("ddcr.compile_bailout." + std::string(kReasons[r])).c_str()) -
        before[r];
  }
  const std::int64_t attempts_delta =
      counter("ddcr.compile_attempts") - attempts_before;
  const std::int64_t spans_delta = counter("ddcr.spans_compiled") - spans_before;
  // The compiler's own accounting moves in every build, including
  // HRTDM_OBS_OFF: attempts break down exactly into commits plus bailouts.
  ASSERT_NE(bed.epoch_compiler(), nullptr);
  EXPECT_GT(bed.epoch_compiler()->compile_attempts(), 0);
  EXPECT_GT(bed.epoch_compiler()->spans_compiled(), 0);
  EXPECT_GT(bailout_sum(*bed.epoch_compiler()), 0);
  EXPECT_EQ(bed.epoch_compiler()->compile_attempts(),
            bed.epoch_compiler()->spans_compiled() +
                bailout_sum(*bed.epoch_compiler()));
#if !defined(HRTDM_OBS_OFF)
  // The registry family mirrors the compiler's own accounting exactly.
  EXPECT_EQ(attempts_delta, bed.epoch_compiler()->compile_attempts());
  EXPECT_EQ(spans_delta, bed.epoch_compiler()->spans_compiled());
  EXPECT_EQ(bail_delta, bailout_sum(*bed.epoch_compiler()));
#else
  // Registry macros compile to ((void)0): the counter family stays flat
  // even though the compiler itself keeps counting.
  EXPECT_EQ(attempts_delta, 0);
  EXPECT_EQ(spans_delta, 0);
  EXPECT_EQ(bail_delta, 0);
#endif
}

// digests_agree() over the stations on the medium: an offline station is
// inert, and the compiler rightly leaves it out of the gate.
bool online_replicas_agree(DdcrTestbed& bed) {
  std::optional<std::uint64_t> reference;
  for (int s = 0; s < bed.station_count(); ++s) {
    const DdcrStation& station = bed.station(s);
    if (!station.online()) {
      continue;
    }
    const std::uint64_t digest = station.protocol_digest();
    if (!reference.has_value()) {
      reference = digest;
    } else if (digest != *reference) {
      return false;
    }
  }
  return true;
}

// Sits between the channel and a testbed's epoch compiler and counts the
// spans the compiler commits while the online replicas disagree.
class AgreementGuard final : public net::SpanCompiler {
 public:
  DdcrTestbed* bed = nullptr;
  std::int64_t commits = 0;
  std::int64_t commits_while_split = 0;

  bool compile(SimTime start, SimTime horizon,
               std::vector<net::CompiledSlot>& out) override {
    const bool agree = online_replicas_agree(*bed);
    const bool committed = bed->epoch_compiler()->compile(start, horizon, out);
    if (committed) {
      ++commits;
      if (!agree) {
        ++commits_while_split;
      }
    }
    return committed;
  }
  void apply_handoff() override { bed->epoch_compiler()->apply_handoff(); }
  void drop_handoff() override { bed->epoch_compiler()->drop_handoff(); }
};

TEST(EpochCompiler, LocalEventForcesFullReplicaCheck) {
  // The compiler re-proves replica agreement only after a receiver-local
  // event (the replica ledger). Each case injects one mid-run: the forced
  // full compare must catch the split (kDesync / kResync bail-outs), no
  // span may commit while the online replicas disagree, and the run must
  // end exactly where the interpreted run does.
  enum class Event { kPhantom, kReset, kChurn };
  struct Case {
    const char* label;
    Event event;
    obs::FrBail expected;
  };
  // Each event is applied between run() calls, where the stations are
  // materialized (a scheduled callback could land on stations a compiled
  // span has not handed its state back to yet).
  const SimTime at = SimTime::from_ns(300'500);  // ~5 slots into an epoch
  const SimTime end = SimTime::from_ns(2'000'000);
  for (const Case c : {Case{"phantom", Event::kPhantom, obs::FrBail::kDesync},
                       Case{"reset", Event::kReset, obs::FrBail::kResync},
                       Case{"churn", Event::kChurn, obs::FrBail::kResync}}) {
    DdcrRunResult outcome[2];
    for (const bool compiled : {false, true}) {
      auto options = round_options();
      options.require_rejoinable = true;
      options.epoch_compiler =
          compiled ? EpochCompilerMode::kOn : EpochCompilerMode::kOff;
      AgreementGuard guard;  // declared first: it outlives the channel
      DdcrTestbed bed(6, options);
      guard.bed = &bed;
      if (compiled) {
        bed.channel().set_span_compiler(&guard);
      }
      inject_rounds(bed, 6, /*rounds=*/300, Duration::microseconds(3));
      bed.run(at);
      switch (c.event) {
        case Event::kPhantom: {
          // One replica hears a collision nobody else heard.
          EXPECT_NE(bed.station(1).mode(), DdcrStation::Mode::kCsmaCd)
              << "the phantom must land mid-epoch";
          net::SlotObservation phantom;
          phantom.kind = net::SlotKind::kCollision;
          phantom.slot_end = bed.simulator().now();
          phantom.slot_start = phantom.slot_end - options.phy.slot_x;
          bed.station(1).observe(phantom);
          break;
        }
        case Event::kReset:
          bed.station(2).reset_for_rejoin();
          break;
        case Event::kChurn:
          bed.station(3).go_offline();
          bed.run(SimTime::from_ns(450'000));
          bed.station(3).bring_online();
          break;
      }
      bed.run(end);
      bed.stop();
      if (compiled) {
        const EpochCompiler& compiler = *bed.epoch_compiler();
        EXPECT_GT(compiler.bailouts(c.expected), 0) << c.label;
        // The event forced at least one compare beyond the first, and the
        // clean stretches around it trusted the ledger.
        EXPECT_GT(compiler.replica_checks(), 1) << c.label;
        EXPECT_LT(compiler.replica_checks(), compiler.compile_attempts())
            << c.label;
        EXPECT_GT(guard.commits, 0) << c.label;
        EXPECT_EQ(guard.commits_while_split, 0)
            << c.label << ": a span committed over split replicas";
      }
      outcome[compiled ? 1 : 0] = bed.result();
    }
    expect_identical(outcome[1], outcome[0], c.label);
  }
}

TEST(EpochCompiler, CleanRunChecksReplicasOnce) {
  // Speed guard for the replica ledger: on a clean channel no receiver-
  // local event ever happens, so the first compile attempt's full digest
  // compare is the only one of the run.
  DdcrTestbed bed(6, round_options());
  inject_rounds(bed, 6, /*rounds=*/300, Duration::microseconds(3));
  bed.run(SimTime::from_ns(2'000'000));
  ASSERT_NE(bed.epoch_compiler(), nullptr);
  const EpochCompiler& compiler = *bed.epoch_compiler();
  EXPECT_GT(compiler.compile_attempts(), 1);
  EXPECT_GT(compiler.spans_compiled(), 0);
  EXPECT_EQ(compiler.replica_checks(), 1);
}

#if !defined(HRTDM_OBS_OFF)
TEST(EpochCompiler, SpanCommitsAndBailsLandInTheFlightRecorder) {
  // Committed spans surface as kSpanCommit records, declined attempts as
  // kSpanBail records carrying the FrBail reason in `a` — the forensic
  // trail the compiled fast path leaves behind.
  auto options = round_options();
  options.require_rejoinable = true;
  options.flight_recorder_capacity = std::size_t{1} << 17;

  DdcrTestbed bed(6, options);
  inject_rounds(bed, 6, /*rounds=*/300, Duration::microseconds(3));
  // The quarantined station guarantees kSpanBail records (kResync) next to
  // the committed spans the clean stretches produce.
  bed.simulator().schedule_at(
      SimTime::from_ns(300'000),
      [&bed] { bed.station(3).reset_for_rejoin(); }, "test:rejoin");
  bed.run(SimTime::from_ns(2'000'000));

  std::int64_t commits = 0;
  std::int64_t bails = 0;
  for (const obs::FrRecord& r : bed.flight_recorder().window()) {
    if (r.kind == obs::FrKind::kSpanCommit) {
      ++commits;
      EXPECT_GE(r.a, 2) << "a committed span holds at least two slots";
    }
    if (r.kind == obs::FrKind::kSpanBail) {
      ++bails;
      EXPECT_GE(r.a, 0);
      EXPECT_LT(r.a, static_cast<std::int64_t>(obs::FrBail::kCount_));
    }
  }
  EXPECT_GT(commits, 0);
  EXPECT_GT(bails, 0);
}
#endif  // !HRTDM_OBS_OFF

TEST(EpochCompiler, TraceStaysWellFormedAcrossCompiledEpochs) {
  // Tracing a compiled run: the per-slot 'X' stream must stay complete
  // (fast-forwarded spans draw every slot, no gaps misattributed), the
  // compiled-span markers must each be fully covered by slot events, and
  // the transmission timeline must match the interpreted run exactly.
  const Workload wl = traffic::videoconference(6);
  obs::EventTracer traced_on(std::size_t{1} << 16);
  obs::EventTracer traced_off(std::size_t{1} << 16);
  auto options = base_options(wl, 4, 64);
  options.arrival_horizon = SimTime::from_ns(5'000'000);

  options.epoch_compiler = EpochCompilerMode::kOn;
  options.tracer = &traced_on;
  const auto compiled = run_ddcr(wl, options);
  options.epoch_compiler = EpochCompilerMode::kOff;
  options.tracer = &traced_off;
  const auto interpreted = run_ddcr(wl, options);
  EXPECT_EQ(compiled.protocol_digest, interpreted.protocol_digest);

  const auto on_events = traced_on.events();
  const auto off_events = traced_off.events();
  ASSERT_EQ(traced_on.dropped(), 0);
  ASSERT_EQ(traced_off.dropped(), 0);

  auto tx_stats = [](const std::vector<obs::TraceEvent>& events) {
    std::pair<std::int64_t, std::int64_t> out{0, 0};  // count, total dur
    for (const obs::TraceEvent& ev : events) {
      if (ev.phase == 'X' && (std::strcmp(ev.name, "tx") == 0 ||
                              std::strcmp(ev.name, "burst") == 0)) {
        ++out.first;
        out.second += ev.dur_ns;
      }
    }
    return out;
  };
  EXPECT_EQ(tx_stats(on_events), tx_stats(off_events))
      << "compiled run drew a different transmission timeline";

  std::int64_t spans = 0;
  for (const obs::TraceEvent& marker : on_events) {
    if (marker.phase != 'i' || std::strcmp(marker.name, "compiled-span") != 0) {
      continue;
    }
    ++spans;
    EXPECT_GE(marker.args[0], 2) << "compiled span holds at least two slots";
    const std::int64_t begin = marker.ts_ns;
    const std::int64_t end = marker.ts_ns + marker.args[2];
    ASSERT_GT(end, begin);
    // Every nanosecond of the span must be covered by per-slot 'X' events
    // on the channel track (tid 0 — the per-station protocol tracks overlay
    // the same timeline on tid = station + 1 and must not be counted): the
    // fast path may not leave unattributed holes in the slot stream.
    std::int64_t covered = 0;
    for (const obs::TraceEvent& ev : on_events) {
      if (ev.phase != 'X' || ev.tid != 0) {
        continue;
      }
      const std::int64_t lo = std::max(begin, ev.ts_ns);
      const std::int64_t hi = std::min(end, ev.ts_ns + ev.dur_ns);
      covered += std::max<std::int64_t>(0, hi - lo);
    }
    EXPECT_EQ(covered, end - begin)
        << "compiled span [" << begin << ", " << end
        << ") not exactly covered by slot events";
  }
  EXPECT_GT(spans, 0) << "fast path never engaged: test is vacuous";
  for (const obs::TraceEvent& ev : off_events) {
    EXPECT_STRNE(ev.name, "compiled-span")
        << "interpreted run must not emit compiled-span markers";
  }

  // The export stays loadable Chrome trace JSON.
  const std::string json = traced_on.chrome_json();
  EXPECT_NE(json.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(json.find("compiled-span"), std::string::npos);
  EXPECT_EQ(json.front(), '{');
  EXPECT_EQ(json.back(), '}');
}

}  // namespace
}  // namespace hrtdm::core
