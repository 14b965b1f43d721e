#include "sim/simulator.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <functional>
#include <random>
#include <utility>
#include <vector>

#include "util/check.hpp"

namespace hrtdm::sim {
namespace {

TEST(Simulator, FiresInTimestampOrder) {
  Simulator sim;
  std::vector<int> order;
  sim.schedule_at(SimTime::from_ns(30), [&] { order.push_back(3); });
  sim.schedule_at(SimTime::from_ns(10), [&] { order.push_back(1); });
  sim.schedule_at(SimTime::from_ns(20), [&] { order.push_back(2); });
  sim.run_to_completion();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_EQ(sim.now().ns(), 30);
  EXPECT_EQ(sim.events_fired(), 3u);
}

TEST(Simulator, EqualTimestampsAreFifo) {
  Simulator sim;
  std::vector<int> order;
  for (int i = 0; i < 10; ++i) {
    sim.schedule_at(SimTime::from_ns(5), [&order, i] { order.push_back(i); });
  }
  sim.run_to_completion();
  for (int i = 0; i < 10; ++i) {
    EXPECT_EQ(order[static_cast<std::size_t>(i)], i);
  }
}

TEST(Simulator, ScheduleAfterUsesCurrentTime) {
  Simulator sim;
  SimTime observed;
  sim.schedule_after(Duration::nanoseconds(10), [&] {
    sim.schedule_after(Duration::nanoseconds(5),
                       [&] { observed = sim.now(); });
  });
  sim.run_to_completion();
  EXPECT_EQ(observed.ns(), 15);
}

TEST(Simulator, CancelPreventsFiring) {
  Simulator sim;
  bool fired = false;
  const EventHandle handle =
      sim.schedule_at(SimTime::from_ns(10), [&] { fired = true; });
  EXPECT_TRUE(sim.cancel(handle));
  EXPECT_FALSE(sim.cancel(handle));  // second cancel is a no-op
  sim.run_to_completion();
  EXPECT_FALSE(fired);
  EXPECT_EQ(sim.events_fired(), 0u);
}

TEST(Simulator, CancelNullHandleIsNoop) {
  Simulator sim;
  EXPECT_FALSE(sim.cancel(EventHandle{}));
}

TEST(Simulator, RunUntilStopsAtHorizonButAdvancesClock) {
  Simulator sim;
  std::vector<int> fired;
  sim.schedule_at(SimTime::from_ns(10), [&] { fired.push_back(1); });
  sim.schedule_at(SimTime::from_ns(20), [&] { fired.push_back(2); });
  sim.schedule_at(SimTime::from_ns(30), [&] { fired.push_back(3); });
  sim.run_until(SimTime::from_ns(20));
  EXPECT_EQ(fired, (std::vector<int>{1, 2}));  // horizon-inclusive
  EXPECT_EQ(sim.now().ns(), 20);
  EXPECT_EQ(sim.events_pending(), 1u);
  sim.run_until(SimTime::from_ns(100));
  EXPECT_EQ(fired.size(), 3u);
  EXPECT_EQ(sim.now().ns(), 100);  // clock advances to the horizon
}

TEST(Simulator, SelfReschedulingChainTerminatesAtHorizon) {
  Simulator sim;
  int count = 0;
  std::function<void()> tick = [&] {
    ++count;
    sim.schedule_after(Duration::nanoseconds(10), tick);
  };
  sim.schedule_at(SimTime::zero(), tick);
  sim.run_until(SimTime::from_ns(95));
  EXPECT_EQ(count, 10);  // t = 0, 10, ..., 90
}

TEST(Simulator, RejectsPastScheduling) {
  Simulator sim;
  sim.schedule_at(SimTime::from_ns(10), [] {});
  sim.run_to_completion();
  EXPECT_THROW(sim.schedule_at(SimTime::from_ns(5), [] {}),
               util::ContractViolation);
  EXPECT_THROW(sim.schedule_after(Duration::nanoseconds(-1), [] {}),
               util::ContractViolation);
}

TEST(Simulator, EventsCanScheduleAtTheirOwnTime) {
  Simulator sim;
  bool nested_fired = false;
  sim.schedule_at(SimTime::from_ns(10), [&] {
    sim.schedule_at(SimTime::from_ns(10), [&] { nested_fired = true; });
  });
  sim.run_to_completion();
  EXPECT_TRUE(nested_fired);
}

TEST(Simulator, CancelledEventsDoNotBlockRunUntil) {
  Simulator sim;
  const auto handle = sim.schedule_at(SimTime::from_ns(50), [] {});
  sim.cancel(handle);
  sim.run_until(SimTime::from_ns(100));
  EXPECT_EQ(sim.now().ns(), 100);
  EXPECT_EQ(sim.events_pending(), 0u);
}

TEST(Simulator, CancelAfterFireIsNoop) {
  // A handle to an event that already fired must not cancel whatever event
  // now occupies the recycled pool slot.
  Simulator sim;
  bool first_fired = false;
  bool second_fired = false;
  const auto stale =
      sim.schedule_at(SimTime::from_ns(10), [&] { first_fired = true; });
  sim.run_until(SimTime::from_ns(20));
  EXPECT_TRUE(first_fired);
  EXPECT_FALSE(sim.cancel(stale));
  // The freed slot is recycled by the next schedule; the stale handle must
  // still refuse to touch it.
  sim.schedule_at(SimTime::from_ns(30), [&] { second_fired = true; });
  EXPECT_FALSE(sim.cancel(stale));
  sim.run_to_completion();
  EXPECT_TRUE(second_fired);
}

TEST(Simulator, CancelThenRescheduleAtSameTimestampKeepsOrder) {
  // Cancelling and re-scheduling at the same instant must place the new
  // event at its new (later) position in the equal-time FIFO, not inherit
  // the cancelled event's slot in line.
  Simulator sim;
  std::vector<int> order;
  const auto first =
      sim.schedule_at(SimTime::from_ns(10), [&] { order.push_back(1); });
  sim.schedule_at(SimTime::from_ns(10), [&] { order.push_back(2); });
  EXPECT_TRUE(sim.cancel(first));
  sim.schedule_at(SimTime::from_ns(10), [&] { order.push_back(3); });
  sim.run_to_completion();
  EXPECT_EQ(order, (std::vector<int>{2, 3}));
}

TEST(Simulator, EqualTimeFifoSurvivesPoolRecycling) {
  // Interleave schedules and cancels so freed slots are re-acquired while
  // same-timestamp events are pending; the FIFO order must track scheduling
  // order, never pool-slot order.
  Simulator sim;
  std::vector<int> order;
  std::vector<EventHandle> doomed;
  for (int round = 0; round < 8; ++round) {
    doomed.push_back(
        sim.schedule_at(SimTime::from_ns(5), [&order] { order.push_back(-1); }));
    sim.schedule_at(SimTime::from_ns(5),
                    [&order, round] { order.push_back(round); });
    EXPECT_TRUE(sim.cancel(doomed.back()));
    // This schedule reuses the slot just freed by the cancel above.
    sim.schedule_at(SimTime::from_ns(5),
                    [&order, round] { order.push_back(100 + round); });
  }
  sim.run_to_completion();
  std::vector<int> expected;
  for (int round = 0; round < 8; ++round) {
    expected.push_back(round);
    expected.push_back(100 + round);
  }
  EXPECT_EQ(order, expected);
}

TEST(Simulator, HandleReuseNeverResurrectsCancelledEvents) {
  // Churn the pool hard: every slot is freed and re-acquired many times;
  // every stale handle (fired or cancelled) must stay dead forever.
  Simulator sim;
  std::vector<EventHandle> stale;
  int fired = 0;
  for (int wave = 0; wave < 50; ++wave) {
    const SimTime at = SimTime::from_ns(1000 + wave * 10);
    std::vector<EventHandle> alive;
    for (int i = 0; i < 16; ++i) {
      alive.push_back(sim.schedule_at(at, [&fired] { ++fired; }));
    }
    for (int i = 0; i < 16; i += 2) {
      EXPECT_TRUE(sim.cancel(alive[static_cast<std::size_t>(i)]));
      stale.push_back(alive[static_cast<std::size_t>(i)]);
    }
    for (const EventHandle& handle : stale) {
      EXPECT_FALSE(sim.cancel(handle));  // never matches a recycled slot
    }
    sim.run_until(at);
    for (int i = 1; i < 16; i += 2) {
      stale.push_back(alive[static_cast<std::size_t>(i)]);  // fired handles
    }
  }
  EXPECT_EQ(fired, 50 * 8);
  for (const EventHandle& handle : stale) {
    EXPECT_FALSE(sim.cancel(handle));
  }
  EXPECT_EQ(sim.events_pending(), 0u);
}

// One simulator driven by a seeded script of schedule_at, append and cancel
// calls, made from outside the loop and from inside firing events. With
// `use_lane` off every append becomes a schedule_at: the single-heap
// reference the lane must match.
class LaneMix {
 public:
  LaneMix(std::uint64_t seed, bool use_lane) : seed_(seed), lane_(use_lane) {
    if (lane_) {
      sim_.set_lane_handler(
          [this](std::uint32_t id) { fire(static_cast<int>(id)); });
    }
  }

  void run() {
    std::mt19937_64 outside(seed_);
    for (int i = 0; i < 200; ++i) {
      act(outside);
    }
    while (next_id_ < kEvents) {
      sim_.run_until(sim_.now() + Duration::nanoseconds(100));
      for (int i = 0; i < 20; ++i) {
        act(outside);
      }
    }
    sim_.run_to_completion();
  }

  Simulator& sim() { return sim_; }
  /// (event id, firing time) in firing order.
  const std::vector<std::pair<int, std::int64_t>>& fired() const {
    return fired_;
  }
  const std::vector<bool>& cancels() const { return cancels_; }
  int appends() const { return appends_; }
  int out_of_order() const { return out_of_order_; }

 private:
  static constexpr int kEvents = 4000;

  void fire(int id) {
    fired_.emplace_back(id, sim_.now().ns());
    std::mt19937_64 rng(seed_ ^ (static_cast<std::uint64_t>(id) *
                                 0x9E3779B97F4A7C15ULL));
    const int children = static_cast<int>(rng() % 3);
    for (int i = 0; i < children; ++i) {
      act(rng);
    }
  }

  // One scripted call: cancel a schedule_at event, or create an event at
  // now + [0, 50) ns, by schedule_at or by append (in or out of order).
  void act(std::mt19937_64& rng) {
    const std::uint64_t kind = rng() % 4;
    if (kind == 3) {
      if (!cancellable_.empty()) {
        cancels_.push_back(
            sim_.cancel(cancellable_[rng() % cancellable_.size()]));
      }
      return;
    }
    if (next_id_ >= kEvents) {
      return;
    }
    const auto delay = static_cast<std::int64_t>(rng() % 50);
    const SimTime at = sim_.now() + Duration::nanoseconds(delay);
    const int id = next_id_++;
    if (kind == 0) {
      cancellable_.push_back(sim_.schedule_at(at, [this, id] { fire(id); }));
      return;
    }
    ++appends_;
    out_of_order_ += at < tail_ ? 1 : 0;
    tail_ = std::max(tail_, at);
    if (lane_) {
      sim_.append(at, static_cast<std::uint32_t>(id));
    } else {
      sim_.schedule_at(at, [this, id] { fire(id); });
    }
  }

  std::uint64_t seed_;
  bool lane_;
  Simulator sim_;
  int next_id_ = 0;
  SimTime tail_;
  int appends_ = 0;
  int out_of_order_ = 0;
  std::vector<EventHandle> cancellable_;
  std::vector<bool> cancels_;
  std::vector<std::pair<int, std::int64_t>> fired_;
};

TEST(SimulatorLane, FiresLikeASingleHeap) {
  // Lane entries share the heap's sequence counter, and step() fires the
  // earlier of the lane front and the heap top by (time, seq): any mix of
  // schedule_at, in-order and out-of-order appends and cancels fires
  // exactly as if every append had been a schedule_at.
  for (std::uint64_t seed = 1; seed <= 8; ++seed) {
    LaneMix lane(seed, true);
    LaneMix heap(seed, false);
    lane.run();
    heap.run();
    ASSERT_EQ(lane.fired().size(), heap.fired().size()) << "seed " << seed;
    EXPECT_EQ(lane.fired(), heap.fired()) << "seed " << seed;
    EXPECT_EQ(lane.cancels(), heap.cancels()) << "seed " << seed;
    EXPECT_EQ(lane.sim().events_fired(), heap.sim().events_fired());
    EXPECT_EQ(lane.sim().now().ns(), heap.sim().now().ns());
    EXPECT_EQ(lane.sim().events_pending(), 0u);
    // Non-vacuity: the script appended in order and out of order, and
    // some cancels hit live events.
    EXPECT_GT(lane.appends() - lane.out_of_order(), 100) << "seed " << seed;
    EXPECT_GT(lane.out_of_order(), 100) << "seed " << seed;
    EXPECT_GT(std::count(lane.cancels().begin(), lane.cancels().end(), true),
              0)
        << "seed " << seed;
  }
}

class RecordingWatcher final : public ScheduleWatcher {
 public:
  explicit RecordingWatcher(Simulator& sim) : sim_(sim) {}
  void on_early_schedule(SimTime at) override {
    notified.push_back(at.ns());
    // Scheduled before the intruder takes its sequence number, so it fires
    // first at the same instant.
    sim_.schedule_at(at, [this] { order.push_back(-1); });
  }
  Simulator& sim_;
  std::vector<std::int64_t> notified;
  std::vector<int> order;
};

TEST(SimulatorLane, AppendBelowAWatcherHorizonNotifiesIt) {
  // A watcher covers its horizon too: an append below it or exactly at it
  // notifies the watcher once, and what the watcher schedules then fires
  // first at the same instant. An append past the horizon does not notify.
  for (const std::int64_t at : {40, 100}) {
    Simulator sim;
    RecordingWatcher watcher(sim);
    sim.set_lane_handler([&watcher](std::uint32_t index) {
      watcher.order.push_back(static_cast<int>(index));
    });
    sim.add_schedule_watcher(&watcher, SimTime::from_ns(100));
    sim.append(SimTime::from_ns(101), 1);  // past the horizon
    EXPECT_TRUE(watcher.notified.empty()) << at;
    sim.append(SimTime::from_ns(at), 2);
    EXPECT_EQ(watcher.notified, (std::vector<std::int64_t>{at}));
    sim.append(SimTime::from_ns(30), 3);  // notified once, then unregistered
    EXPECT_EQ(watcher.notified.size(), 1u) << at;
    sim.run_to_completion();
    EXPECT_EQ(watcher.order, (std::vector<int>{3, -1, 2, 1})) << at;
  }
}

TEST(SimulatorLane, CountsLaneEvents) {
  Simulator sim;
  std::vector<std::uint32_t> lane_fired;
  sim.set_lane_handler(
      [&lane_fired](std::uint32_t index) { lane_fired.push_back(index); });
  sim.append(SimTime::from_ns(30), 0);
  sim.schedule_at(SimTime::from_ns(20), [] {});
  sim.append(SimTime::from_ns(10), 1);
  sim.append(SimTime::from_ns(50), 2);
  sim.schedule_at(SimTime::from_ns(40), [] {});
  EXPECT_EQ(sim.events_pending(), 5u);
  // Pending lane entries read back in firing order; the heap-only query
  // skips them.
  ASSERT_EQ(sim.lane().size(), 3u);
  EXPECT_EQ(sim.lane()[0].index, 1u);
  EXPECT_EQ(sim.lane()[1].index, 0u);
  EXPECT_EQ(sim.lane()[2].index, 2u);
  EXPECT_EQ(sim.next_event_time().ns(), 10);
  EXPECT_EQ(sim.next_non_lane_time().ns(), 20);

  sim.run_until(SimTime::from_ns(35));
  EXPECT_EQ(lane_fired, (std::vector<std::uint32_t>{1, 0}));
  EXPECT_EQ(sim.events_fired(), 3u);
  EXPECT_EQ(sim.events_pending(), 2u);
  EXPECT_EQ(sim.lane().size(), 1u);
  sim.run_to_completion();
  EXPECT_EQ(sim.events_fired(), 5u);
  EXPECT_EQ(sim.events_pending(), 0u);
  EXPECT_TRUE(sim.lane().empty());
  EXPECT_EQ(sim.next_event_time(), SimTime::infinity());
  EXPECT_THROW(sim.append(SimTime::from_ns(10), 3), util::ContractViolation);
}

}  // namespace
}  // namespace hrtdm::sim
