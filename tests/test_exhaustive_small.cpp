// Exhaustive small-configuration sweep — the executable analogue of the
// paper's correctness argument, rewritten on the differential conformance
// oracle. For tiny instances we enumerate *every* combination of arrival
// slots and deadline classes for 2-4 stations, replay each of the hundreds
// of resulting executions through check::replay_case, and hold the
// recorded run against the full differential:
//   - safety (mutual exclusion, slot grid, frame integrity, exactly-once),
//   - timeliness vs the centralized NP-EDF oracle (every scenario here is
//     feasible by construction, so expect_timeliness is asserted),
//   - EDF dispatch order within the class-width granularity,
//   - per-epoch search costs vs xi and the station/replica accounting.
// The sweep runs for every tree arity the protocol supports in the small
// regime (m_time in {2, 3, 4}), plus a dedicated equal-deadline grid that
// forces time-tree leaf ties through the static-tree tie-break path.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "check/shrinker.hpp"
#include "traffic/message.hpp"

namespace hrtdm::check {
namespace {

using traffic::Message;
using util::Duration;
using util::SimTime;

struct Spec {
  int source;
  std::int64_t arrival_ns;
  std::int64_t deadline_rel_ns;
};

// ctest names each case after gtest's byte dump of its param, so a param
// struct holds no padding (m_time is 64-bit for that): an indeterminate
// padding byte would rename the test from one build to the next.
struct TreeShape {
  std::int64_t m_time;
  std::int64_t F;
};

// F must be a power of m_time; keep the trees small enough that every
// scenario stays a few hundred slots.
constexpr TreeShape kShapes[] = {{2, 16}, {3, 9}, {4, 16}};

ReplayCase scenario_case(const std::vector<Spec>& specs, int stations,
                         const TreeShape& shape, const std::string& label) {
  ReplayCase c;
  c.name = label;
  c.stations = stations;
  c.phy.slot_x = Duration::nanoseconds(100);
  c.phy.psi_bps = 1e9;
  c.phy.overhead_bits = 0;
  c.ddcr.m_time = static_cast<int>(shape.m_time);
  c.ddcr.F = shape.F;
  c.ddcr.m_static = 2;
  c.ddcr.q = 4;
  c.ddcr.class_width_c = Duration::microseconds(2);
  c.ddcr.alpha = Duration::nanoseconds(0);
  // Every spec below has slack far beyond the epoch length, so the
  // scenario is feasible and timeliness is a hard assertion.
  c.expect_timeliness = true;
  // One class width plus the maximal reft drift of these tiny scenarios
  // (one epoch ~ 40 slots = 4 us) — much tighter than the comparator's
  // general-run default.
  c.edf_tolerance = c.ddcr.class_width_c + Duration::nanoseconds(4'000);
  for (std::size_t i = 0; i < specs.size(); ++i) {
    Message msg;
    msg.uid = static_cast<std::int64_t>(i);
    msg.class_id = specs[i].source;
    msg.source = specs[i].source;
    msg.l_bits = 100;
    msg.arrival = SimTime::from_ns(specs[i].arrival_ns);
    msg.absolute_deadline =
        SimTime::from_ns(specs[i].arrival_ns + specs[i].deadline_rel_ns);
    c.messages.push_back(msg);
  }
  return c;
}

/// Replays one scenario under the full differential and asserts green.
void check_scenario(const std::vector<Spec>& specs, int stations,
                    const TreeShape& shape, const std::string& label) {
  const ReplayCase c = scenario_case(specs, stations, shape, label);
  const auto report = replay_case(c);
  ASSERT_TRUE(report.checked) << label;
  EXPECT_TRUE(report.ok) << label << ": " << report.summary();
  EXPECT_GT(report.slots_checked, 0) << label;
  EXPECT_EQ(report.observed_misses, 0) << label;
  EXPECT_TRUE(report.oracle_feasible) << label;
}

class ExhaustiveSmall : public ::testing::TestWithParam<TreeShape> {};

TEST_P(ExhaustiveSmall, TwoStationsAllArrivalAndDeadlineCombos) {
  // 2 stations x arrival slot in {0, 150, 250, 450} x deadline in
  // {6 us, 14 us, 26 us}: 144 scenarios, every one checked exhaustively.
  const TreeShape shape = GetParam();
  const std::int64_t arrivals[] = {0, 150, 250, 450};
  const std::int64_t deadlines[] = {6'000, 14'000, 26'000};
  int scenarios = 0;
  for (const auto a0 : arrivals) {
    for (const auto a1 : arrivals) {
      for (const auto d0 : deadlines) {
        for (const auto d1 : deadlines) {
          const std::string label =
              "a0=" + std::to_string(a0) + " a1=" + std::to_string(a1) +
              " d0=" + std::to_string(d0) + " d1=" + std::to_string(d1);
          check_scenario({{0, a0, d0}, {1, a1, d1}}, 2, shape, label);
          ++scenarios;
        }
      }
    }
  }
  EXPECT_EQ(scenarios, 144);
}

TEST_P(ExhaustiveSmall, ThreeStationsSimultaneousBursts) {
  // 3 stations, all at t = 0, every deadline combination from 3 classes:
  // 27 scenarios exercising 3-way time-tree collisions, including the
  // all-equal diagonal that descends into the static tie-break tree.
  const TreeShape shape = GetParam();
  const std::int64_t deadlines[] = {6'000, 14'000, 26'000};
  for (const auto d0 : deadlines) {
    for (const auto d1 : deadlines) {
      for (const auto d2 : deadlines) {
        const std::string label = "d=" + std::to_string(d0) + "/" +
                                  std::to_string(d1) + "/" +
                                  std::to_string(d2);
        check_scenario({{0, 0, d0}, {1, 0, d1}, {2, 0, d2}}, 3, shape,
                       label);
      }
    }
  }
}

TEST_P(ExhaustiveSmall, TwoMessagesPerStationCombos) {
  // Back-to-back messages per station across two deadline classes: the
  // second message exercises the nu budget and the resumed time search.
  const TreeShape shape = GetParam();
  const std::int64_t deadlines[] = {6'000, 22'000};
  for (const auto d0 : deadlines) {
    for (const auto d1 : deadlines) {
      for (const auto d2 : deadlines) {
        for (const auto d3 : deadlines) {
          const std::string label =
              "d=" + std::to_string(d0) + "/" + std::to_string(d1) + "/" +
              std::to_string(d2) + "/" + std::to_string(d3);
          check_scenario(
              {{0, 0, d0}, {0, 100, d1}, {1, 0, d2}, {1, 100, d3}}, 2,
              shape, label);
        }
      }
    }
  }
}

TEST_P(ExhaustiveSmall, EqualDeadlineTiesResolveThroughTheStaticTree) {
  // The STs grid: every station count in {2, 3, 4} with a fully tied
  // deadline class (identical arrival and deadline), across three deadline
  // values and two arrival offsets. Each scenario forces a time-tree leaf
  // collision whose contenders are separable only by static index; at
  // least one STs search must be held against xi(s, q) per scenario.
  const TreeShape shape = GetParam();
  const std::int64_t deadlines[] = {6'000, 14'000, 26'000};
  const std::int64_t offsets[] = {0, 250};
  for (const int stations : {2, 3, 4}) {
    for (const auto deadline : deadlines) {
      for (const auto offset : offsets) {
        std::vector<Spec> specs;
        for (int s = 0; s < stations; ++s) {
          specs.push_back({s, offset, deadline});
        }
        const std::string label = "tied z=" + std::to_string(stations) +
                                  " d=" + std::to_string(deadline) +
                                  " a=" + std::to_string(offset);
        const ReplayCase c =
            scenario_case(specs, stations, shape, label);
        const auto report = replay_case(c);
        ASSERT_TRUE(report.checked) << label;
        EXPECT_TRUE(report.ok) << label << ": " << report.summary();
        EXPECT_GT(report.sts_bound_checked, 0)
            << label << ": tie never reached the static tree";
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Arity, ExhaustiveSmall,
    ::testing::Values(kShapes[0], kShapes[1], kShapes[2]),
    [](const ::testing::TestParamInfo<TreeShape>& info) {
      return "m" + std::to_string(info.param.m_time) + "F" +
             std::to_string(info.param.F);
    });

}  // namespace
}  // namespace hrtdm::check
