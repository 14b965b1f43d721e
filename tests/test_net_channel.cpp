// The slotted broadcast channel: outcome resolution, timing, safety
// (mutual exclusion), arbitration mode and packet bursting.
#include "net/channel.hpp"

#include <gtest/gtest.h>

#include <deque>
#include <string>
#include <vector>

#include "sim/simulator.hpp"
#include "util/check.hpp"

namespace hrtdm::net {
namespace {

using sim::Simulator;
using util::Duration;
using util::SimTime;

/// Scripted station: transmits the queued frames whenever polled.
class ScriptedStation final : public Station {
 public:
  explicit ScriptedStation(int id) : id_(id) {}

  int id() const override { return id_; }

  void queue_frame(std::int64_t uid, std::int64_t bits,
                   std::int64_t arb_key = 0) {
    Frame frame;
    frame.source = id_;
    frame.msg_uid = uid;
    frame.class_id = 0;
    frame.l_bits = bits;
    frame.arb_key = arb_key;
    pending_.push_back(frame);
  }

  void set_burst_frames(std::vector<Frame> frames) {
    burst_ = std::move(frames);
  }

  std::optional<Frame> poll_intent(SimTime now) override {
    (void)now;
    if (pending_.empty()) {
      return std::nullopt;
    }
    return pending_.front();
  }

  std::optional<Frame> poll_burst(SimTime now,
                                  std::int64_t budget_bits) override {
    (void)now;
    if (burst_.empty() || burst_.front().l_bits > budget_bits) {
      return std::nullopt;
    }
    Frame next = burst_.front();
    burst_.erase(burst_.begin());
    return next;
  }

  void observe(const SlotObservation& obs) override {
    observations_.push_back(obs);
    if (obs.kind == SlotKind::kSuccess && obs.frame->source == id_ &&
        !pending_.empty() && pending_.front().msg_uid == obs.frame->msg_uid) {
      pending_.pop_front();
    }
  }

  const std::vector<SlotObservation>& observations() const {
    return observations_;
  }

 private:
  int id_;
  std::deque<Frame> pending_;
  std::vector<Frame> burst_;
  std::vector<SlotObservation> observations_;
};

PhyConfig test_phy() {
  PhyConfig phy;
  phy.slot_x = Duration::nanoseconds(100);
  phy.psi_bps = 1e9;  // 1 bit per ns
  phy.overhead_bits = 0;
  return phy;
}

struct Fixture {
  Simulator sim;
  PhyConfig phy = test_phy();
  std::vector<std::unique_ptr<ScriptedStation>> stations;
  std::unique_ptr<BroadcastChannel> channel;

  explicit Fixture(int n, CollisionMode mode = CollisionMode::kDestructive,
                   std::int64_t burst_bits = 0) {
    phy.burst_budget_bits = burst_bits;
    channel = std::make_unique<BroadcastChannel>(sim, phy, mode);
    for (int i = 0; i < n; ++i) {
      stations.push_back(std::make_unique<ScriptedStation>(i));
      channel->attach(*stations.back());
    }
  }
};

TEST(Channel, SilenceSlotsAdvanceBySlotTime) {
  Fixture f(2);
  f.channel->start();
  f.sim.run_until(SimTime::from_ns(1000));
  EXPECT_EQ(f.channel->stats().silence_slots, 10);
  EXPECT_EQ(f.channel->stats().successes, 0);
  // Every station observed every slot.
  EXPECT_EQ(f.stations[0]->observations().size(), 10u);
  EXPECT_EQ(f.stations[1]->observations().size(), 10u);
}

TEST(Channel, SingleTransmitterSucceeds) {
  Fixture f(2);
  f.stations[0]->queue_frame(7, 500);  // 500 ns transmission
  f.channel->start();
  f.sim.run_until(SimTime::from_ns(500));
  const auto& stats = f.channel->stats();
  EXPECT_EQ(stats.successes, 1);
  EXPECT_EQ(stats.bits_delivered, 500);
  // The other station heard the same success.
  const auto& obs = f.stations[1]->observations();
  ASSERT_FALSE(obs.empty());
  EXPECT_EQ(obs.front().kind, SlotKind::kSuccess);
  EXPECT_EQ(obs.front().frame->msg_uid, 7);
  EXPECT_EQ(obs.front().slot_end.ns(), 500);
}

TEST(Channel, ShortFrameStillOccupiesOneSlot) {
  Fixture f(1);
  f.stations[0]->queue_frame(1, 10);  // 10 ns << slot 100 ns
  f.channel->start();
  f.sim.run_until(SimTime::from_ns(100));
  ASSERT_EQ(f.channel->stats().successes, 1);
  EXPECT_EQ(f.stations[0]->observations().front().slot_end.ns(), 100);
}

TEST(Channel, TwoTransmittersCollideDestructively) {
  Fixture f(3);
  f.stations[0]->queue_frame(1, 500);
  f.stations[1]->queue_frame(2, 500);
  f.channel->start();
  f.sim.run_until(SimTime::from_ns(100));
  EXPECT_EQ(f.channel->stats().collision_slots, 1);
  EXPECT_EQ(f.channel->stats().successes, 0);
  for (const auto& station : f.stations) {
    ASSERT_EQ(station->observations().size(), 1u);
    EXPECT_EQ(station->observations().front().kind, SlotKind::kCollision);
    EXPECT_FALSE(station->observations().front().frame.has_value());
  }
}

TEST(Channel, SafetyNoSuccessWithTwoContenders) {
  // HRTDM safety: simultaneous transmissions are never delivered.
  Fixture f(2);
  for (int i = 0; i < 20; ++i) {
    f.stations[0]->queue_frame(100 + i, 300);
    f.stations[1]->queue_frame(200 + i, 300);
  }
  f.channel->start();
  f.sim.run_until(SimTime::from_ns(50'000));
  // Scripted stations never back off, so the collision repeats forever and
  // nothing is ever delivered.
  EXPECT_EQ(f.channel->stats().successes, 0);
  EXPECT_GT(f.channel->stats().collision_slots, 100);
}

TEST(Channel, ArbitrationModeDeliversLowestKey) {
  Fixture f(3, CollisionMode::kArbitration);
  f.stations[0]->queue_frame(10, 400, /*arb_key=*/300);
  f.stations[1]->queue_frame(11, 400, /*arb_key=*/100);  // winner
  f.stations[2]->queue_frame(12, 400, /*arb_key=*/200);
  f.channel->start();
  // Arbitration slot (100 ns) + transmission (400 ns).
  f.sim.run_until(SimTime::from_ns(500));
  const auto& stats = f.channel->stats();
  EXPECT_EQ(stats.successes, 1);
  EXPECT_EQ(stats.arbitration_wins, 1);
  EXPECT_EQ(stats.collision_slots, 0);
  const auto& obs = f.stations[0]->observations();
  ASSERT_EQ(obs.size(), 1u);
  EXPECT_EQ(obs.front().kind, SlotKind::kSuccess);
  EXPECT_TRUE(obs.front().arbitration);
  EXPECT_EQ(obs.front().frame->msg_uid, 11);
  EXPECT_EQ(obs.front().slot_end.ns(), 500);
}

TEST(Channel, ArbitrationDrainsInKeyOrder) {
  Fixture f(2, CollisionMode::kArbitration);
  f.stations[0]->queue_frame(1, 200, 50);
  f.stations[0]->queue_frame(2, 200, 70);
  f.stations[1]->queue_frame(3, 200, 60);
  f.channel->start();
  f.sim.run_until(SimTime::from_ns(5'000));
  const auto& obs = f.stations[0]->observations();
  std::vector<std::int64_t> delivered;
  for (const auto& o : obs) {
    if (o.kind == SlotKind::kSuccess) {
      delivered.push_back(o.frame->msg_uid);
    }
  }
  EXPECT_EQ(delivered, (std::vector<std::int64_t>{1, 3, 2}));
}

TEST(Channel, BurstChainsFramesWithoutContention) {
  Fixture f(2, CollisionMode::kDestructive, /*burst_bits=*/4096);
  f.stations[0]->queue_frame(1, 1000);
  Frame b1;
  b1.source = 0;
  b1.msg_uid = 2;
  b1.l_bits = 2000;
  Frame b2;
  b2.source = 0;
  b2.msg_uid = 3;
  b2.l_bits = 3000;  // exceeds remaining budget (4096 - 2000)
  f.stations[0]->set_burst_frames({b1, b2});
  f.channel->start();
  f.sim.run_until(SimTime::from_ns(10'000));
  const auto& stats = f.channel->stats();
  EXPECT_EQ(stats.burst_continuations, 1);  // b1 fit, b2 did not
  EXPECT_EQ(stats.bits_delivered, 1000 + 2000);
  // The continuation was flagged in_burst for everyone.
  int bursts_seen = 0;
  for (const auto& o : f.stations[1]->observations()) {
    bursts_seen += o.in_burst ? 1 : 0;
  }
  EXPECT_EQ(bursts_seen, 1);
}

TEST(Channel, StopHaltsTheSlotLoop) {
  Fixture f(1);
  f.channel->start();
  f.sim.run_until(SimTime::from_ns(500));
  f.channel->stop();
  const auto fired = f.sim.events_fired();
  f.sim.run_until(SimTime::from_ns(5'000));
  EXPECT_LE(f.sim.events_fired(), fired + 1);  // at most the pending delivery
}

TEST(Channel, UtilizationReflectsBusyTime) {
  Fixture f(1);
  f.stations[0]->queue_frame(1, 900);
  f.channel->start();
  f.sim.run_until(SimTime::from_ns(1000));
  // 900 ns busy out of 1000 ns elapsed, remainder silence.
  EXPECT_NEAR(f.channel->utilization(), 0.9, 1e-9);
}

TEST(Channel, RejectsMisconfiguration) {
  Simulator sim;
  BroadcastChannel channel(sim, test_phy());
  EXPECT_THROW(channel.start(), util::ContractViolation);  // no stations
  ScriptedStation a(0);
  ScriptedStation dup(0);
  channel.attach(a);
  EXPECT_THROW(channel.attach(dup), util::ContractViolation);
}

TEST(Channel, RejectsDuplicateIdsContiguousOrSparse) {
  for (const std::vector<int>& ids :
       {std::vector<int>{0, 1, 2, 3, 4, 5, 6, 7},
        std::vector<int>{42, 7, 1'000'000'007, 3, 65'536}}) {
    Simulator sim;
    BroadcastChannel channel(sim, test_phy());
    std::deque<ScriptedStation> stations;
    for (const int id : ids) {
      channel.attach(stations.emplace_back(id));
    }
    EXPECT_EQ(channel.station_count(), ids.size());
    for (const int id : ids) {
      try {
        channel.attach(stations.emplace_back(id));
        ADD_FAILURE() << "duplicate id " << id << " was accepted";
      } catch (const util::ContractViolation& e) {
        EXPECT_NE(std::string(e.what()).find("duplicate station id " +
                                             std::to_string(id)),
                  std::string::npos)
            << e.what();
      }
    }
    EXPECT_EQ(channel.station_count(), ids.size());
  }
}

}  // namespace
}  // namespace hrtdm::net
