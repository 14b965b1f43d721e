// Compiled epoch fast path (core::EpochCompiler): the closed-form replay
// must be observably bit-identical to the slot-by-slot loop — protocol
// digests, metrics, channel stats, registry counters and the differential
// conformance verdict all agree with the compiler on, off, or in auto mode.
#include "core/epoch_compiler.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstdlib>
#include <cstring>
#include <iterator>
#include <optional>
#include <string>
#include <string_view>
#include <type_traits>
#include <utility>
#include <vector>

#include "check/conformance.hpp"
#include "core/ddcr_network.hpp"
#include "fault/campaign.hpp"
#include "outcome_fold.hpp"
#include "obs/event_tracer.hpp"
#include "obs/registry.hpp"
#include "traffic/workload.hpp"
#include "util/rng.hpp"

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
                   Duration spacing, SimTime start = SimTime(),
                   std::int64_t first_uid = 1) {
  std::int64_t uid = first_uid;
  for (int round = 0; round < rounds; ++round) {
    for (int s = 0; s < stations; ++s) {
      traffic::Message m;
      m.uid = uid++;
      m.class_id = round % 4;
      m.source = s;
      m.l_bits = 100;
      m.arrival = start + spacing * (round + 1);
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

// Every field of a run result except the flight window (the compiled path
// records span commits and bails where the interpreted loop records every
// probe), flattened so one EXPECT_EQ shows where two runs part.
std::vector<std::int64_t> outcome_of(const DdcrRunResult& r) {
  std::vector<std::int64_t> v;
  const auto add = [&v](auto x) {
    if constexpr (std::is_floating_point_v<decltype(x)>) {
      v.push_back(std::bit_cast<std::int64_t>(static_cast<double>(x)));
    } else {
      v.push_back(static_cast<std::int64_t>(x));
    }
  };
  const MetricsSummary& m = r.metrics;
  for (const auto x : {m.delivered, m.misses, m.silence_slots,
                       m.collision_slots, m.deadline_inversions}) {
    add(x);
  }
  for (const double x : {m.mean_latency_s, m.worst_latency_s, m.p99_latency_s,
                         m.source_fairness}) {
    add(x);
  }
  for (const auto& [id, c] : m.per_class) {
    add(id);
    add(c.delivered);
    add(c.misses);
    add(c.mean_latency_s);
    add(c.p99_latency_s);
    add(c.worst_latency_s);
  }
  for (const net::ChannelStats& c : {r.channel, r.channel_snapshot.stats}) {
    for (const auto x :
         {c.silence_slots, c.collision_slots, c.successes,
          c.burst_continuations, c.arbitration_wins, c.corrupted_frames,
          c.ge_bad_slots, c.ge_losses, c.bits_delivered, c.busy_time.ns(),
          c.idle_time.ns(), c.contention_time.ns()}) {
      add(x);
    }
  }
  add(r.channel_snapshot.observations_delivered);
  add(r.channel_snapshot.utilization);
  for (const DdcrStation::Counters& c : r.per_station) {
    for (const auto x :
         {c.epochs, c.tts_runs, c.sts_runs, c.compressions, c.rejoins,
          c.transmitted, c.burst_transmitted, c.search_slots_time,
          c.search_slots_static, c.static_leaf_retries, c.dropped_late,
          c.desyncs_detected, c.quarantines, c.churn_leaves, c.churn_joins}) {
      add(x);
    }
  }
  for (const StationSnapshot& s : r.snapshots) {
    add(std::hash<std::string_view>{}(s.mode));
    for (const auto x :
         {std::int64_t{s.synced}, static_cast<std::int64_t>(s.queue_depth),
          std::int64_t{s.has_head}, s.head_uid, s.head_deadline_ns, s.reft_ns,
          std::int64_t{s.tts_active}, s.tts_lo, s.tts_size, s.tts_resolved,
          std::int64_t{s.sts_active}, s.sts_lo, s.sts_size, s.sts_leaf,
          s.resync_silences}) {
      add(x);
    }
  }
  for (const auto x : {r.generated, r.undelivered, r.dropped_late,
                       r.desyncs_detected, r.quarantines, r.rejoins}) {
    add(x);
  }
  add(r.utilization);
  add(r.consistency_ok);
  add(r.protocol_digest);
  return v;
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

// Sits between the channel and a testbed's epoch compiler: counts the spans
// the compiler commits while the online replicas disagree, and notes where
// every committed span is planned to end.
class CompilerTap final : public net::SpanCompiler {
 public:
  DdcrTestbed* bed = nullptr;
  std::int64_t commits = 0;
  std::int64_t commits_while_split = 0;
  std::vector<SimTime> span_ends;

  bool compile(SimTime start, SimTime horizon,
               std::vector<net::CompiledSlot>& out) override {
    const bool agree = online_replicas_agree(*bed);
    const bool committed = bed->epoch_compiler()->compile(start, horizon, out);
    if (committed) {
      ++commits;
      if (!agree) {
        ++commits_while_split;
      }
      span_ends.push_back(out.back().record.end);
    }
    return committed;
  }
  void apply_handoff() override { bed->epoch_compiler()->apply_handoff(); }
  void drop_handoff() override { bed->epoch_compiler()->drop_handoff(); }
};

// A station mutation a simulator callback makes at a given time.
struct Mutation {
  enum class Kind { kReset, kLeave, kJoin } kind;
  int station;
  SimTime at;
};

struct MutatedRun {
  DdcrRunResult result;
  std::vector<SimTime> span_ends;  ///< compiled runs only
};

// The round-collision testbed with `mutations` scheduled before the run, as
// simulator callbacks (so each fires before any event the run schedules at
// the same instant, a compiled span's resume event included).
MutatedRun run_mutated(const std::vector<Mutation>& mutations, bool compiled) {
  auto options = round_options();
  options.require_rejoinable = true;
  options.epoch_compiler =
      compiled ? EpochCompilerMode::kOn : EpochCompilerMode::kOff;
  CompilerTap tap;  // declared first: it outlives the channel
  DdcrTestbed bed(6, options);
  tap.bed = &bed;
  if (compiled) {
    bed.channel().set_span_compiler(&tap);
  }
  inject_rounds(bed, 6, /*rounds=*/300, Duration::microseconds(3));
  for (const Mutation& m : mutations) {
    bed.simulator().schedule_at(
        m.at,
        [&bed, m] {
          DdcrStation& station = bed.station(m.station);
          switch (m.kind) {
            case Mutation::Kind::kReset:
              station.reset_for_rejoin();
              break;
            case Mutation::Kind::kLeave:
              station.go_offline();
              break;
            case Mutation::Kind::kJoin:
              station.bring_online();
              break;
          }
        },
        "test:mutate");
  }
  bed.run(SimTime::from_ns(2'000'000));
  bed.stop();
  return MutatedRun{bed.result(), tap.span_ends};
}

TEST(EpochCompiler, ResetAtASpanEndMatchesTheInterpretedRun) {
  // A callback at exactly a compiled span's end fires before the span's
  // resume event (it was scheduled first). The slot-by-slot loop would not
  // have delivered the span's last slot yet either, so the reset must land
  // on stations that heard every slot but the last, and the last slot must
  // reach them (and the channel's accounting) once, afterwards.
  const Mutation reset{Mutation::Kind::kReset, 2, SimTime::from_ns(300'500)};
  const MutatedRun compiled = run_mutated({reset}, true);
  const MutatedRun interpreted = run_mutated({reset}, false);
  ASSERT_TRUE(std::find(compiled.span_ends.begin(), compiled.span_ends.end(),
                        reset.at) != compiled.span_ends.end())
      << "the reset must land on a compiled span's end";
  EXPECT_EQ(outcome_of(compiled.result), outcome_of(interpreted.result));
  EXPECT_EQ(compiled.result.rejoins, 1);
}

TEST(EpochCompiler, MutationsAtSpanEndsMatchTheInterpretedRun) {
  // Seeded sweep: each of reset_for_rejoin, go_offline and bring_online is
  // scheduled at the end of a compiled span (picked from the span ends of
  // a run that already carries the earlier mutations), and the compiled run
  // must end exactly where the interpreted one does.
  const auto pick = [](util::Rng& rng, const std::vector<SimTime>& ends,
                       SimTime after) {
    std::vector<SimTime> later;
    for (const SimTime t : ends) {
      if (t > after && t < SimTime::from_ns(1'500'000)) {
        later.push_back(t);
      }
    }
    EXPECT_FALSE(later.empty());
    return later.empty() ? after : later[static_cast<std::size_t>(
                                       rng.uniform_i64(
                                           0, static_cast<std::int64_t>(
                                                  later.size()) - 1))];
  };
  const std::vector<SimTime> clean_ends = run_mutated({}, true).span_ends;
  for (std::uint64_t seed = 1; seed <= 4; ++seed) {
    util::Rng rng(seed);
    const int station = static_cast<int>(rng.uniform_i64(0, 5));
    const SimTime t1 = pick(rng, clean_ends, SimTime::from_ns(100'000));
    const Mutation leave{Mutation::Kind::kLeave, station, t1};
    const SimTime t2 =
        pick(rng, run_mutated({leave}, true).span_ends, t1);
    const std::vector<std::vector<Mutation>> cases = {
        {{Mutation::Kind::kReset, station, t1}},
        {leave},
        {leave, {Mutation::Kind::kJoin, station, t2}},
    };
    for (const std::vector<Mutation>& mutations : cases) {
      const std::string label = "seed " + std::to_string(seed) +
                                " mutations " +
                                std::to_string(mutations.size()) + " at " +
                                std::to_string(mutations.back().at.ns());
      const MutatedRun compiled = run_mutated(mutations, true);
      const MutatedRun interpreted = run_mutated(mutations, false);
      EXPECT_TRUE(std::find(compiled.span_ends.begin(),
                            compiled.span_ends.end(), mutations.back().at) !=
                  compiled.span_ends.end())
          << label << ": the mutation must land on a compiled span's end";
      EXPECT_EQ(outcome_of(compiled.result), outcome_of(interpreted.result))
          << label;
    }
  }
}

// A station that never transmits and never claims quiescence: attached to
// a channel, it keeps the channel from committing idle gaps, so the run
// goes slot by slot.
class SlotBySlotListener final : public net::Station {
 public:
  int id() const override { return 99; }
  std::optional<net::Frame> poll_intent(SimTime) override {
    return std::nullopt;
  }
  void observe(const net::SlotObservation&) override {}
};

class GapCounter final : public net::ChannelObserver {
 public:
  void on_slot(const net::SlotRecord&) override {}
  void on_idle_gap(std::int64_t, SimTime, Duration) override { ++gaps; }
  std::int64_t gaps = 0;
};

enum class GapEndAction { kRead, kReset, kChurn };

struct GapEndRun {
  std::int64_t delivered_at_k = -1;  ///< read by the callback
  std::int64_t silence_at_k = -1;
  std::optional<std::pair<std::int64_t, std::int64_t>> rejoin;  ///< (t, a)
  std::int64_t idle_gaps = 0;
  DdcrRunResult result;
};

// Four stations and no traffic; a callback at k slots is the only event
// scheduled before the run, so the first idle gap ends exactly where it
// fires, and it fires before the gap's resume event (scheduled later).
GapEndRun run_gap_end(std::int64_t k, GapEndAction action, bool slot_by_slot) {
  const DdcrRunOptions options = fault::small_rejoinable_options();
  SlotBySlotListener listener;  // declared first: both outlive the channel
  GapCounter counter;
  DdcrTestbed bed(4, options);
  bed.channel().add_observer(counter);
  if (slot_by_slot) {
    bed.channel().attach(listener);
  }
  GapEndRun run;
  bed.simulator().schedule_at(
      SimTime() + options.phy.slot_x * k,
      [&] {
        run.delivered_at_k = bed.channel().observations_delivered();
        run.silence_at_k = bed.channel().stats().silence_slots;
        if (action == GapEndAction::kReset) {
          bed.station(0).reset_for_rejoin();
        } else if (action == GapEndAction::kChurn) {
          bed.station(1).go_offline();
          bed.station(1).bring_online();
        }
      },
      "test:gap-end");
  bed.run(SimTime::from_ns(20'000));
  bed.stop();
  for (const obs::FrRecord& r : bed.flight_recorder().window()) {
    if (r.kind == obs::FrKind::kRejoin) {
      run.rejoin = std::make_pair(r.t_ns, r.a);
    }
  }
  run.idle_gaps = counter.gaps;
  run.result = bed.result();
  return run;
}

TEST(FastForward, GapEndMatchesTheSlotBySlotRun) {
  // An idle gap's last slot stays in flight until the gap's resume event,
  // as a compiled span's does. A callback at the gap's end must read that
  // slot as undelivered, and a station it resets or churns must hear the
  // slot afterwards and rejoin when the slot-by-slot run does.
  for (const std::int64_t k : {10, 11, 37}) {
    for (const GapEndAction action :
         {GapEndAction::kRead, GapEndAction::kReset, GapEndAction::kChurn}) {
      const std::string label = "k " + std::to_string(k) + " action " +
                                std::to_string(static_cast<int>(action));
      const GapEndRun gap = run_gap_end(k, action, false);
      const GapEndRun ref = run_gap_end(k, action, true);
      EXPECT_GT(gap.idle_gaps, 0) << label;
      EXPECT_EQ(ref.idle_gaps, 0) << label;
      EXPECT_EQ(ref.delivered_at_k, k - 1) << label;
      EXPECT_EQ(gap.delivered_at_k, ref.delivered_at_k) << label;
      EXPECT_EQ(gap.silence_at_k, ref.silence_at_k) << label;
      EXPECT_EQ(gap.rejoin, ref.rejoin) << label;
      EXPECT_EQ(gap.result.rejoins, ref.result.rejoins) << label;
      EXPECT_EQ(gap.result.rejoins, action == GapEndAction::kRead ? 0 : 1)
          << label;
      EXPECT_EQ(gap.result.protocol_digest, ref.result.protocol_digest)
          << label;
      const net::ChannelStats& a = gap.result.channel;
      const net::ChannelStats& b = ref.result.channel;
      EXPECT_EQ(a.silence_slots, b.silence_slots) << label;
      EXPECT_EQ(a.collision_slots, b.collision_slots) << label;
      EXPECT_EQ(a.successes, b.successes) << label;
      EXPECT_EQ(a.idle_time.ns(), b.idle_time.ns()) << label;
      EXPECT_EQ(a.contention_time.ns(), b.contention_time.ns()) << label;
      EXPECT_EQ(a.busy_time.ns(), b.busy_time.ns()) << label;
    }
  }
}

TEST(SharedReplica, CleanRunsNeverFork) {
  // Synced stations hold one replica, and on a clean channel nothing ever
  // forks it: no receiver-local event happens, so no station ever needs a
  // private copy and the compile gate never compares digests.
  for (const bool compiled : {false, true}) {
    const Workload wl = traffic::stock_exchange(8);
    auto options = base_options(wl, 4, 64);
    options.arrivals = ArrivalKind::kBoundedPoisson;
    options.arrival_horizon = SimTime::from_ns(100'000'000);
    options.drain_cap = SimTime::from_ns(200'000'000);
    options.epoch_compiler =
        compiled ? EpochCompilerMode::kOn : EpochCompilerMode::kOff;
    DdcrTestbed bed(wl, options);
    bed.inject(traffic::generate_traffic(wl, options.arrivals,
                                         options.arrival_horizon,
                                         options.seed));
    bed.advance(options.arrival_horizon);
    bed.drain(options.drain_cap);
    bed.stop();
    EXPECT_EQ(bed.shared_replica().forks(), 0) << compiled;
    EXPECT_EQ(bed.shared_replica().merges(), 0) << compiled;
    EXPECT_EQ(bed.shared_replica().members(), 8) << compiled;
    EXPECT_GT(bed.station(0).counters().epochs, 0) << compiled;
  }
  DdcrTestbed bed(6, round_options());
  inject_rounds(bed, 6, /*rounds=*/300, Duration::microseconds(3));
  bed.run(SimTime::from_ns(2'000'000));
  ASSERT_NE(bed.epoch_compiler(), nullptr);
  EXPECT_GT(bed.epoch_compiler()->compile_attempts(), 1);
  EXPECT_GT(bed.epoch_compiler()->spans_compiled(), 0);
  EXPECT_EQ(bed.shared_replica().forks(), 0);
  EXPECT_EQ(bed.shared_replica().merges(), 0);
}

TEST(SharedReplica, EachLocalEventForksTheStationItHits) {
  // Each case applies one receiver-local event to one station mid-epoch:
  // that station, and no other, leaves the shared replica for a private
  // copy. While the copies disagree the compile gate bails (kDesync or
  // kResync) and no span commits; once the copy has converged a committed
  // span merges it back. The run ends exactly where the interpreted one
  // does (which forks alike but never merges: only a span hand-off does).
  enum class Event { kPhantom, kReset, kChurn, kWatchdog };
  struct Case {
    const char* label;
    Event event;
    int station;
    obs::FrBail expected;
  };
  const SimTime at = SimTime::from_ns(300'500);  // ~5 slots into an epoch
  const SimTime end = SimTime::from_ns(2'000'000);
  for (const Case c :
       {Case{"phantom", Event::kPhantom, 1, obs::FrBail::kDesync},
        Case{"reset", Event::kReset, 2, obs::FrBail::kResync},
        Case{"churn", Event::kChurn, 3, obs::FrBail::kResync},
        Case{"watchdog", Event::kWatchdog, 4, obs::FrBail::kResync}}) {
    DdcrRunResult outcome[2];
    for (const bool compiled : {false, true}) {
      auto options = round_options();
      options.require_rejoinable = true;
      options.epoch_compiler =
          compiled ? EpochCompilerMode::kOn : EpochCompilerMode::kOff;
      CompilerTap tap;  // declared first: it outlives the channel
      DdcrTestbed bed(6, options);
      tap.bed = &bed;
      if (compiled) {
        bed.channel().set_span_compiler(&tap);
      }
      inject_rounds(bed, 6, /*rounds=*/300, Duration::microseconds(3));
      // A second train after a quiet stretch: a reset station can only
      // rejoin once the channel falls silent, and converge in the epochs
      // that follow.
      inject_rounds(bed, 6, /*rounds=*/100, Duration::microseconds(3),
                    SimTime::from_ns(1'000'000), /*first_uid=*/10'000);
      bed.run(at);
      DdcrStation& hit = bed.station(c.station);
      ASSERT_EQ(hit.mode(), DdcrStation::Mode::kTimeSearch)
          << c.label << ": the event must land mid-epoch";
      net::SlotObservation phantom;  // heard by `hit` alone
      phantom.slot_end = bed.simulator().now();
      phantom.slot_start = phantom.slot_end - options.phy.slot_x;
      switch (c.event) {
        case Event::kPhantom:
          phantom.kind = net::SlotKind::kCollision;
          hit.observe(phantom);
          break;
        case Event::kReset:
          hit.reset_for_rejoin();
          break;
        case Event::kChurn:
          hit.go_offline();
          break;
        case Event::kWatchdog: {
          // A success no probed deadline class can have produced.
          net::Frame frame;
          frame.source = 0;
          frame.msg_uid = 999'999;
          frame.l_bits = 100;
          frame.absolute_deadline = phantom.slot_end + Duration::seconds(1);
          phantom.kind = net::SlotKind::kSuccess;
          phantom.frame = frame;
          hit.observe(phantom);
          EXPECT_EQ(hit.counters().desyncs_detected, 1) << c.label;
          EXPECT_EQ(hit.counters().quarantines, 1) << c.label;
          break;
        }
      }
      EXPECT_EQ(bed.shared_replica().forks(), 1) << c.label;
      EXPECT_EQ(bed.shared_replica().members(), 5) << c.label;
      for (int s = 0; s < bed.station_count(); ++s) {
        EXPECT_EQ(bed.station(s).shares_replica(), s != c.station)
            << c.label << " station " << s;
      }
      if (c.event == Event::kChurn) {
        bed.run(SimTime::from_ns(450'000));
        hit.bring_online();
        EXPECT_EQ(bed.shared_replica().forks(), 1)
            << c.label << ": an already private copy does not fork again";
      }
      bed.run(end);
      bed.stop();
      const SharedReplica& shared = bed.shared_replica();
      EXPECT_EQ(shared.forks(), 1) << c.label;
      if (compiled) {
        const EpochCompiler& compiler = *bed.epoch_compiler();
        EXPECT_GT(compiler.bailouts(c.expected), 0) << c.label;
        EXPECT_GT(tap.commits, 0) << c.label;
        EXPECT_EQ(tap.commits_while_split, 0)
            << c.label << ": a span committed over split replicas";
        EXPECT_EQ(shared.merges(), 1) << c.label << ": the copy converged";
        EXPECT_TRUE(hit.shares_replica()) << c.label;
        EXPECT_EQ(shared.members(), 6) << c.label;
      } else {
        EXPECT_EQ(shared.merges(), 0) << c.label;
        EXPECT_FALSE(hit.shares_replica()) << c.label;
      }
      outcome[compiled ? 1 : 0] = bed.result();
    }
    EXPECT_EQ(outcome_of(outcome[1]), outcome_of(outcome[0])) << c.label;
  }
}

// Every counter value and every histogram's count, sum, min and max in
// the registry, in name order; zero entries are skipped, so a name an
// earlier run registered in the same process folds the same as no name.
std::uint64_t registry_fold() {
  const obs::RegistrySnapshot snap = obs::Registry::global().snapshot();
  pins::OutcomeFold fold;
  const auto add_name = [&fold](const std::string& name) {
    for (const char ch : name) {
      fold.add(ch);
    }
  };
  for (const obs::CounterSnapshot& c : snap.counters) {
    if (c.value != 0) {
      add_name(c.name);
      fold.add(c.value);
    }
  }
  for (const obs::HistogramSnapshot& h : snap.histograms) {
    if (h.count != 0) {
      add_name(h.name);
      fold.add(h.count).add(h.sum).add(h.min).add(h.max);
    }
  }
  return fold.value();
}

TEST(Registry, ReplicaSumsArePinned) {
  // The registry amounts a replica's transitions add up to over every
  // station that runs them (tree.*, ddcr.epochs, ddcr.tts_runs,
  // ddcr.sts_runs, ddcr.compressions, the search-slot histograms), with the
  // rest of the registry alongside, after three fixed runs. The constants
  // were recorded before the stations shared one replica; they hold with
  // the compiler on and off.
  struct Pin {
    const char* label;
    std::uint64_t compiled;
    std::uint64_t interpreted;
  };
  const Pin pins[] = {
      {"stock_exchange(8) poisson", 0xdfad443b462522b2ULL,
       0x943b9e00d9fa0b86ULL},
      {"round collisions + quarantine", 0xe415c5a81cba0a1fULL,
       0x3d23f1465abdc8caULL},
      {"videoconference(6) bursting", 0x7ce90347d7edcaa2ULL,
       0xb4a7468ae5ab5751ULL},
  };
#if defined(HRTDM_OBS_OFF)
  const obs::RegistrySnapshot before = obs::Registry::global().snapshot();
#endif
  for (const bool compiled : {true, false}) {
    const EpochCompilerMode mode =
        compiled ? EpochCompilerMode::kOn : EpochCompilerMode::kOff;
    std::uint64_t folds[3] = {};
    // Non-vacuity: each run must advance the replica sums it pins.
    const auto fold_replica_sums = [] {
      const std::uint64_t fold = registry_fold();
#if !defined(HRTDM_OBS_OFF)
      EXPECT_GT(counter("ddcr.epochs"), 0);
      EXPECT_GT(counter("tree.searches"), 0);
      EXPECT_GT(obs::Registry::global().histogram("ddcr.tts_search_slots").count(),
                0);
#endif
      return fold;
    };
    {
      obs::Registry::global().reset();
      const Workload wl = traffic::stock_exchange(8);
      auto options = base_options(wl, 4, 64);
      options.arrivals = ArrivalKind::kBoundedPoisson;
      options.arrival_horizon = SimTime::from_ns(100'000'000);
      options.drain_cap = SimTime::from_ns(200'000'000);
      options.epoch_compiler = mode;
      (void)run_ddcr(wl, options);
      folds[0] = fold_replica_sums();
    }
    {
      obs::Registry::global().reset();
      auto options = round_options();
      options.require_rejoinable = true;
      options.epoch_compiler = mode;
      DdcrTestbed bed(6, options);
      inject_rounds(bed, 6, /*rounds=*/300, Duration::microseconds(3));
      bed.run(SimTime::from_ns(300'500));
      bed.station(2).reset_for_rejoin();
      bed.run(SimTime::from_ns(2'000'000));
      bed.stop();
      folds[1] = fold_replica_sums();
    }
    {
      obs::Registry::global().reset();
      const Workload wl = traffic::videoconference(6);
      auto options = base_options(wl, 4, 64);
      options.phy.burst_budget_bits = 30000;
      options.epoch_compiler = mode;
      (void)run_ddcr(wl, options);
      folds[2] = fold_replica_sums();
    }
    for (std::size_t i = 0; i < std::size(pins); ++i) {
#if defined(HRTDM_OBS_OFF)
      // The macros are compiled out: the runs registered nothing.
      (void)folds[i];
      const obs::RegistrySnapshot after = obs::Registry::global().snapshot();
      EXPECT_EQ(after.counters.size(), before.counters.size()) << pins[i].label;
      EXPECT_EQ(after.histograms.size(), before.histograms.size())
          << pins[i].label;
#else
      EXPECT_EQ(folds[i], compiled ? pins[i].compiled : pins[i].interpreted)
          << pins[i].label << (compiled ? " (compiled)" : " (interpreted)");
#endif
    }
  }
  obs::Registry::global().reset();
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

/// Holds an unwrapped flight window to its pinned fold and to the channel
/// it recorded: the slot records tile run.channel, each slot once (an idle
/// gap record stands for its `b` silence slots). Under HRTDM_OBS_OFF the
/// recorder is compiled out and the window is empty.
void expect_flight_window(const DdcrRunResult& run,
                          [[maybe_unused]] std::uint64_t pin) {
#if defined(HRTDM_OBS_OFF)
  EXPECT_TRUE(run.flight_window.empty());
#else
  EXPECT_FALSE(run.flight_window_truncated);
  pins::OutcomeFold fold;
  std::int64_t silence = 0;
  std::int64_t collision = 0;
  std::int64_t success = 0;
  for (const obs::FrRecord& r : run.flight_window) {
    fold.add(r.t_ns).add(r.a).add(r.b).add(r.station).add(
        static_cast<std::int64_t>(r.kind));
    switch (r.kind) {
      case obs::FrKind::kSlotSilence:
        ++silence;
        break;
      case obs::FrKind::kIdleGap:
        silence += r.b;
        break;
      case obs::FrKind::kSlotCollision:
        ++collision;
        break;
      case obs::FrKind::kSlotSuccess:
        ++success;
        break;
      default:
        break;
    }
  }
  EXPECT_EQ(fold.value(), pin);
  EXPECT_GT(success, 0);
  EXPECT_EQ(silence, run.channel.silence_slots);
  EXPECT_EQ(collision, run.channel.collision_slots);
  EXPECT_EQ(success, run.channel.successes);
#endif
}

TEST(SharedReplica, FlightWindowsArePinned) {
  // The shared replica's replicated flight records carry the stepping
  // station's id and land in the same ring order as the per-station
  // replicas' first-emitter records did: whole windows, folded, against
  // values recorded before the stations shared one replica. The second run
  // forks two stations (a reset and a phantom collision between run()
  // calls), so private copies record alongside the shared one. Each
  // window's slot records also account for every slot the channel counted.
  struct Pin {
    EpochCompilerMode mode;
    std::uint64_t videoconference;
    std::uint64_t rounds;
  };
  for (const Pin pin :
       {Pin{EpochCompilerMode::kOff, 0x1416a65f34235d21ULL,
            0x11511d9624feb342ULL},
        Pin{EpochCompilerMode::kOn, 0x953b75b8293fcff2ULL,
            0x88b1bd5d6c86ba89ULL}}) {
    const Workload wl = traffic::videoconference(6);
    auto options = base_options(wl, 4, 64);
    options.epoch_compiler = pin.mode;
    options.flight_recorder_capacity = std::size_t{1} << 20;
    SCOPED_TRACE(pin.mode == EpochCompilerMode::kOn ? "compiler on"
                                                    : "compiler off");
    expect_flight_window(run_ddcr(wl, options), pin.videoconference);

    auto round = round_options();
    round.require_rejoinable = true;
    round.epoch_compiler = pin.mode;
    round.flight_recorder_capacity = std::size_t{1} << 20;
    DdcrTestbed bed(6, round);
    inject_rounds(bed, 6, /*rounds=*/300, Duration::microseconds(3));
    bed.run(SimTime::from_ns(300'500));
    bed.station(2).reset_for_rejoin();
    net::SlotObservation phantom;
    phantom.kind = net::SlotKind::kCollision;
    phantom.slot_end = bed.simulator().now();
    phantom.slot_start = phantom.slot_end - round.phy.slot_x;
    bed.station(1).observe(phantom);
    bed.run(SimTime::from_ns(2'000'000));
    bed.stop();
    expect_flight_window(bed.result(), pin.rounds);
  }
}

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
