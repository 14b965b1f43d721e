// Channel-contract fuzzing: stations with randomized (but seed-fixed)
// behaviour hammer the channel across all modes; the broadcast contract
// must hold regardless of what stations do:
//   - every station receives the identical observation sequence,
//   - slot accounting is conserved (silence + collision + success = slots),
//   - at most one frame is ever delivered per slot (safety),
//   - arbitration always delivers the minimal contending key,
//   - the recorded slot stream passes the differential conformance
//     comparator's protocol-agnostic checks (grid, mutual exclusion,
//     durations, exactly-once delivery, stats cross-check).
#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "check/conformance.hpp"
#include "net/channel.hpp"
#include "sim/simulator.hpp"
#include "util/rng.hpp"

namespace hrtdm::net {
namespace {

using sim::Simulator;
using util::Duration;
using util::SimTime;

/// Offers a frame with probability p each slot; records everything heard.
class ChaosStation final : public Station {
 public:
  ChaosStation(int id, double p, std::uint64_t seed)
      : id_(id), p_(p), rng_(seed) {}

  int id() const override { return id_; }

  std::optional<Frame> poll_intent(SimTime now) override {
    if (!rng_.bernoulli(p_)) {
      return std::nullopt;
    }
    Frame frame;
    frame.source = id_;
    frame.msg_uid = next_uid_++ * 100 + id_;
    frame.class_id = id_;
    frame.l_bits = 100 + rng_.uniform_i64(0, 9) * 50;
    frame.arb_key = rng_.uniform_i64(0, 999);
    frame.enqueue_time = now;
    frame.absolute_deadline = now + Duration::milliseconds(100);
    last_offered_key_ = frame.arb_key;
    offered_ = true;
    return frame;
  }

  std::optional<Frame> poll_burst(SimTime now,
                                  std::int64_t budget_bits) override {
    if (!rng_.bernoulli(0.5) || budget_bits < 100) {
      return std::nullopt;
    }
    Frame frame;
    frame.source = id_;
    frame.msg_uid = next_uid_++ * 100 + id_;
    frame.class_id = id_;
    frame.l_bits = 100;
    frame.enqueue_time = now;
    frame.absolute_deadline = now + Duration::milliseconds(100);
    return frame;
  }

  void observe(const SlotObservation& obs) override {
    observations_.push_back(obs);
    offered_ = false;
  }

  const std::vector<SlotObservation>& observations() const {
    return observations_;
  }
  bool offered_this_slot() const { return offered_; }
  std::int64_t last_offered_key() const { return last_offered_key_; }

 private:
  int id_;
  double p_;
  util::Rng rng_;
  std::int64_t next_uid_ = 1;
  bool offered_ = false;
  std::int64_t last_offered_key_ = 0;
  std::vector<SlotObservation> observations_;
};

// ctest names each case after gtest's byte dump of its param, so the param
// has no padding (an indeterminate byte would rename the test from one
// build to the next): `zero` fills the hole after `mode`.
struct FuzzParam {
  CollisionMode mode;
  std::int32_t zero = 0;
  double intent_prob;
  std::int64_t burst_bits;
  double corruption;
};

class ChannelFuzz : public ::testing::TestWithParam<FuzzParam> {};

TEST_P(ChannelFuzz, BroadcastContractHolds) {
  const auto& p = GetParam();
  Simulator sim;
  PhyConfig phy;
  phy.slot_x = Duration::nanoseconds(100);
  phy.psi_bps = 1e9;
  phy.overhead_bits = 0;
  phy.burst_budget_bits = p.burst_bits;
  phy.corruption_prob = p.corruption;
  BroadcastChannel channel(sim, phy, p.mode, /*noise_seed=*/99);
  check::ConformanceRecorder recorder;
  channel.add_observer(recorder);

  std::vector<std::unique_ptr<ChaosStation>> stations;
  for (int i = 0; i < 5; ++i) {
    stations.push_back(std::make_unique<ChaosStation>(
        i, p.intent_prob, 1000 + static_cast<std::uint64_t>(i)));
    channel.attach(*stations.back());
  }
  channel.start();
  sim.run_until(SimTime::from_ns(2'000'000));

  // 1. Identical observation streams.
  const auto& reference = stations[0]->observations();
  ASSERT_GT(reference.size(), 100u);
  for (const auto& station : stations) {
    const auto& obs = station->observations();
    ASSERT_EQ(obs.size(), reference.size());
    for (std::size_t i = 0; i < obs.size(); ++i) {
      EXPECT_EQ(obs[i].kind, reference[i].kind) << "slot " << i;
      EXPECT_EQ(obs[i].slot_start, reference[i].slot_start);
      EXPECT_EQ(obs[i].slot_end, reference[i].slot_end);
      EXPECT_EQ(obs[i].frame.has_value(), reference[i].frame.has_value());
      if (obs[i].frame.has_value()) {
        EXPECT_EQ(obs[i].frame->msg_uid, reference[i].frame->msg_uid);
      }
    }
  }

  // 2. Accounting conservation.
  const auto& stats = channel.stats();
  std::int64_t successes = 0;
  std::int64_t collisions = 0;
  std::int64_t silences = 0;
  for (const auto& obs : reference) {
    switch (obs.kind) {
      case SlotKind::kSilence: ++silences; break;
      case SlotKind::kCollision: ++collisions; break;
      case SlotKind::kSuccess: ++successes; break;
    }
  }
  EXPECT_EQ(stats.successes, successes);
  EXPECT_EQ(stats.collision_slots, collisions);
  EXPECT_EQ(stats.silence_slots, silences);

  // 3. Safety: slots are serialised and non-overlapping.
  for (std::size_t i = 1; i < reference.size(); ++i) {
    EXPECT_LE(reference[i - 1].slot_end, reference[i].slot_start);
  }

  // 4. In arbitration mode without noise, every contended slot delivers.
  if (p.mode == CollisionMode::kArbitration && p.corruption == 0.0) {
    EXPECT_EQ(stats.collision_slots, 0);
  }

  // 5. The differential comparator judges the recorded ground truth.
  // ChaosStations invent frames on the fly, so the message set is
  // synthesized from the delivered frames themselves: frame integrity
  // becomes tautological, but the slot grid, mutual exclusion, exact slot
  // durations, exactly-once delivery and the stats cross-check stay real.
  check::ConformanceInput input;
  input.phy = phy;
  input.collision_mode = p.mode;
  input.protocol_is_ddcr = false;  // chaos stations promise no EDF order
  input.stats = &stats;
  for (const auto& entry : recorder.entries()) {
    const auto& rec = entry.record;
    if (rec.kind != SlotKind::kSuccess || !rec.frame.has_value()) {
      continue;
    }
    traffic::Message msg;
    msg.uid = rec.frame->msg_uid;
    msg.class_id = rec.frame->class_id;
    msg.source = rec.frame->source;
    msg.l_bits = rec.frame->l_bits;
    msg.arrival = rec.frame->enqueue_time;
    msg.absolute_deadline = rec.frame->absolute_deadline;
    input.messages.push_back(msg);
  }
  EXPECT_FALSE(input.messages.empty());
  const auto report =
      check::ConformanceComparator{}.check(input, recorder);
  ASSERT_TRUE(report.checked);
  EXPECT_TRUE(report.ok) << report.summary();
  EXPECT_GT(report.slots_checked, 0);
}

INSTANTIATE_TEST_SUITE_P(
    Modes, ChannelFuzz,
    ::testing::Values(
        FuzzParam{CollisionMode::kDestructive, 0, 0.3, 0, 0.0},
        FuzzParam{CollisionMode::kDestructive, 0, 0.7, 0, 0.0},
        FuzzParam{CollisionMode::kDestructive, 0, 0.3, 4096, 0.0},
        FuzzParam{CollisionMode::kDestructive, 0, 0.5, 0, 0.2},
        FuzzParam{CollisionMode::kArbitration, 0, 0.3, 0, 0.0},
        FuzzParam{CollisionMode::kArbitration, 0, 0.8, 0, 0.0},
        FuzzParam{CollisionMode::kArbitration, 0, 0.5, 2048, 0.1}),
    [](const ::testing::TestParamInfo<FuzzParam>& info) {
      std::string name =
          info.param.mode == CollisionMode::kDestructive ? "Dest" : "Arb";
      name += "P" + std::to_string(static_cast<int>(
                        info.param.intent_prob * 10));
      if (info.param.burst_bits > 0) {
        name += "Burst";
      }
      if (info.param.corruption > 0) {
        name += "Noise";
      }
      return name;
    });

}  // namespace
}  // namespace hrtdm::net
