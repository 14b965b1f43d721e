// Self-stabilization: the network must reconverge from *randomly corrupted
// joint state* — scrambled tree positions, modes, reft references, watchdog
// streaks and garbage EDF queues — within the stated observation bound, and
// the post-convergence suffix must pass the full differential conformance
// check (clean-suffix judging). Plus unit coverage for the
// ConformanceRecorder::clean_suffix clipping itself.
#include <gtest/gtest.h>

#include <string>

#include "check/conformance.hpp"
#include "fault/campaign.hpp"
#include "fault/stabilization.hpp"
#include "outcome_fold.hpp"
#include "util/check.hpp"

namespace hrtdm::fault {
namespace {

using util::Duration;
using util::SimTime;

std::string describe(const StabilizationResult& r) {
  return "reconverged=" + std::to_string(r.reconverged) +
         " conv_obs=" + std::to_string(r.convergence_observations) +
         " bound=" + std::to_string(r.bound_observations) +
         " scrambled=" + std::to_string(r.scrambled_observations) +
         " garbage=" + std::to_string(r.garbage_messages) +
         " desyncs=" + std::to_string(r.desyncs_detected) +
         " quarantines=" + std::to_string(r.quarantines) +
         " rounds=" + std::to_string(r.recovery_rounds_used) +
         " suffix_ok=" + std::to_string(r.suffix_ok);
}

StabilizationOptions options_for_m(int m) {
  StabilizationOptions options;
  switch (m) {
    case 2:
      break;  // defaults: F = 16, q = 16
    case 3:
      options.ddcr.m_time = 3;
      options.ddcr.F = 27;
      options.ddcr.m_static = 3;
      options.ddcr.q = 27;
      break;
    case 4:
      options.ddcr.m_time = 4;
      options.ddcr.F = 16;
      options.ddcr.m_static = 4;
      options.ddcr.q = 16;
      break;
    default:
      ADD_FAILURE() << "unsupported arity " << m;
  }
  return options;
}

TEST(Stabilization, ScrambledStartsReconvergeWithinTheBoundForEveryArity) {
  // The acceptance grid in miniature (the full >= 500-seed sweep runs in
  // bench_stabilization): every seeded corrupted start must reconverge,
  // stay within the stated bound, and pass the clean-suffix conformance
  // check over the verification workload.
  std::int64_t total_scrambled = 0;
  std::int64_t total_garbage = 0;
  std::int64_t total_watchdog = 0;
  for (const int m : {2, 3, 4}) {
    for (std::uint64_t seed = 1; seed <= 12; ++seed) {
      StabilizationOptions options = options_for_m(m);
      options.seed = seed;
      options.stations = 3 + static_cast<int>(seed % 2);
      const StabilizationResult result = run_stabilization(options);
      EXPECT_TRUE(result.reconverged)
          << "m=" << m << " seed=" << seed << ": " << describe(result);
      EXPECT_TRUE(result.safety_ok)
          << "m=" << m << " seed=" << seed << ": " << describe(result);
      EXPECT_TRUE(result.within_bound)
          << "m=" << m << " seed=" << seed << ": " << describe(result);
      EXPECT_TRUE(result.suffix_checked)
          << "m=" << m << " seed=" << seed << ": " << describe(result);
      EXPECT_TRUE(result.suffix_ok)
          << "m=" << m << " seed=" << seed << ": " << describe(result);
      EXPECT_GT(result.conformance.slots_checked, 0)
          << "m=" << m << " seed=" << seed;
      EXPECT_TRUE(result.passed())
          << "m=" << m << " seed=" << seed << ": " << describe(result);
      total_scrambled += result.scrambled_observations;
      total_garbage += result.garbage_messages;
      total_watchdog += result.desyncs_detected + result.quarantines;
    }
  }
  // The grid must actually have started from corrupted states — fabricated
  // histories, garbage queues, and at least some scrambles severe enough to
  // trip the watchdog — not from quiet starts that trivially pass.
  EXPECT_GT(total_scrambled, 100);
  EXPECT_GT(total_garbage, 20);
  EXPECT_GT(total_watchdog, 0);
}

TEST(Stabilization, DeterministicPerSeed) {
  StabilizationOptions options;
  options.seed = 9;
  const StabilizationResult a = run_stabilization(options);
  const StabilizationResult b = run_stabilization(options);
  EXPECT_EQ(a.convergence_observations, b.convergence_observations);
  EXPECT_EQ(a.scrambled_observations, b.scrambled_observations);
  EXPECT_EQ(a.garbage_messages, b.garbage_messages);
  EXPECT_EQ(a.desyncs_detected, b.desyncs_detected);
  EXPECT_EQ(a.quarantines, b.quarantines);
  EXPECT_EQ(a.recovery_rounds_used, b.recovery_rounds_used);
}

TEST(Stabilization, BoundIsPositiveAndGrowsWithScrambleStrength) {
  StabilizationOptions base;
  const std::int64_t bound = stabilization_bound_observations(base);
  EXPECT_GT(bound, 0);
  StabilizationOptions stronger = base;
  stronger.max_garbage_messages = base.max_garbage_messages * 4;
  EXPECT_GT(stabilization_bound_observations(stronger), bound);
  // The stated bound must be reachable inside the recovery budget, or the
  // contract could never be met.
  EXPECT_LT(bound, base.recovery_slots_cap);
}

TEST(Stabilization, ConvergenceIsMeasuredInFramesToo) {
  StabilizationOptions options;
  options.seed = 3;
  const StabilizationResult result = run_stabilization(options);
  ASSERT_TRUE(result.reconverged);
  const std::int64_t frame_slots =
      options.ddcr.horizon().ceil_div(options.phy.slot_x);
  EXPECT_EQ(result.convergence_frames,
            (result.convergence_observations + frame_slots - 1) / frame_slots);
}

// Every StabilizationResult field folded into one value per configuration:
// the invariant tests above would pass a refactor that moved outcomes
// while keeping them legal.
std::uint64_t fold(const StabilizationResult& r) {
  return pins::OutcomeFold()
      .add(r.reconverged)
      .add(r.convergence_observations)
      .add(r.convergence_frames)
      .add(r.bound_observations)
      .add(r.within_bound)
      .add(r.recovery_rounds_used)
      .add(r.scrambled_observations)
      .add(r.garbage_messages)
      .add(r.desyncs_detected)
      .add(r.quarantines)
      .add(r.rejoins)
      .add(r.safety_ok)
      .add(r.safety_violations)
      .add(r.suffix_checked)
      .add(r.suffix_ok)
      .add(r.conformance)
      .value();
}

TEST(Stabilization, OutcomesArePinned) {
  // Index: arity m in {2, 3, 4}, stations z in {3, 4}, seeds 1-4.
  constexpr std::uint64_t kPins[3][2][4] = {
      {{0xcc03f5fe6fa7b9c7, 0x056f8fd503309567,
        0x98b7b7635996caf2, 0xc9a185df9a76a69c},
       {0x9b02c80c58e60af4, 0x37fe885a326a04ef,
        0x1e51124dcc89aba9, 0x3649ec5909de7b9e}},
      {{0xe14b64a8fd4dfce3, 0xb4693dabebd4d609,
        0x55624cb154555c4e, 0x11041fe87d21c1ee},
       {0x12438f3ec599682a, 0x26724bea7b6ac5f5,
        0x3f9d3c760358fa6a, 0x76326fa523105c0d}},
      {{0x5beced036b6085f6, 0x744713cd7f4716e7,
        0x734dcddf6d463d2a, 0x387909d8168d281c},
       {0xe70b24c95decd1dd, 0xa06e97406c864722,
        0x9645ee2d7b4fdb72, 0x6546c4f738745d25}},
  };
  for (int m = 2; m <= 4; ++m) {
    for (int z = 3; z <= 4; ++z) {
      for (int seed = 1; seed <= 4; ++seed) {
        StabilizationOptions options = options_for_m(m);
        options.stations = z;
        options.seed = static_cast<std::uint64_t>(seed);
        const std::uint64_t got = fold(run_stabilization(options));
        EXPECT_EQ(got, kPins[m - 2][z - 3][seed - 1])
            << "m " << m << " z " << z << " seed " << seed << ": got 0x"
            << std::hex << got;
      }
    }
  }
}

TEST(Stabilization, RejectsRejoinImpossibleConfiguration) {
  StabilizationOptions options;
  options.ddcr.theta_factor = 1.0;
  options.ddcr.max_empty_tts = 0;  // unbounded in-epoch silence streaks
  EXPECT_THROW(run_stabilization(options), util::ContractViolation);
}

// --- clean_suffix clipping ------------------------------------------------

TEST(CleanSuffix, KeepsEntriesAtOrAfterTheCut) {
  check::ConformanceRecorder recorder;
  const Duration x = Duration::nanoseconds(100);
  net::SlotRecord record;
  record.kind = net::SlotKind::kSilence;
  for (int i = 0; i < 6; ++i) {
    record.start = SimTime::from_ns(100 * i);
    record.end = record.start + x;
    recorder.on_slot(record);
  }
  const auto suffix = recorder.clean_suffix(4);
  ASSERT_EQ(suffix.size(), 2u);
  EXPECT_EQ(suffix.front().obs_index, 4);
  EXPECT_EQ(suffix.back().obs_index, 5);
  EXPECT_TRUE(recorder.clean_suffix(6).empty());
  EXPECT_EQ(recorder.clean_suffix(0).size(), 6u);
}

TEST(CleanSuffix, ClipsAStraddlingIdleGapToItsTail) {
  check::ConformanceRecorder recorder;
  const Duration x = Duration::nanoseconds(100);
  net::SlotRecord record;
  record.kind = net::SlotKind::kSilence;
  record.start = SimTime::from_ns(0);
  record.end = record.start + x;
  recorder.on_slot(record);  // obs 0
  // A 10-slot aggregated gap spanning observations 1..10.
  recorder.on_idle_gap(10, SimTime::from_ns(100), x);
  ASSERT_EQ(recorder.observations(), 11);

  // Cut inside the gap: the suffix keeps the tail (observations 5..10 =
  // 6 slots) and re-anchors the record to the cut.
  const auto suffix = recorder.clean_suffix(5);
  ASSERT_EQ(suffix.size(), 1u);
  EXPECT_EQ(suffix.front().obs_index, 5);
  EXPECT_EQ(suffix.front().gap_slots, 6);
  EXPECT_EQ(suffix.front().record.start.ns(), 500);
  EXPECT_EQ(suffix.front().record.end.ns(), 1100);
}

TEST(CleanSuffix, ComparatorJudgesOnlyTheSuffix) {
  // Forge a stream whose prefix violates the slot grid (overlapping slots)
  // but whose suffix is clean: suffix judging must pass, whole-stream
  // judging must fail.
  const Duration x = Duration::nanoseconds(100);
  check::ConformanceRecorder recorder;
  net::SlotRecord bad;
  bad.kind = net::SlotKind::kSilence;
  bad.start = SimTime::from_ns(0);
  bad.end = SimTime::from_ns(150);  // wrong duration: grid violation
  recorder.on_slot(bad);
  net::SlotRecord good;
  good.kind = net::SlotKind::kSilence;
  for (int i = 0; i < 4; ++i) {
    good.start = SimTime::from_ns(200 + 100 * i);
    good.end = good.start + x;
    recorder.on_slot(good);
  }

  check::ConformanceInput input;
  input.phy.slot_x = x;
  input.phy.psi_bps = 1e9;
  input.phy.overhead_bits = 0;
  input.ddcr.m_time = 2;
  input.ddcr.F = 16;
  input.ddcr.m_static = 2;
  input.ddcr.q = 16;
  input.ddcr.class_width_c = Duration::microseconds(1);
  input.ddcr.static_indices = core::DdcrConfig::one_index_per_source(2, 16);

  const check::ConformanceComparator comparator;
  const auto whole = comparator.check(input, recorder);
  EXPECT_FALSE(whole.ok);

  input.clean_suffix_begin = 1;
  const auto suffix = comparator.check(input, recorder);
  EXPECT_TRUE(suffix.ok) << suffix.summary();
  EXPECT_GT(suffix.slots_checked, 0);
}

}  // namespace
}  // namespace hrtdm::fault
