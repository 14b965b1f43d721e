// Discrete-event simulation engine.
//
// A single-threaded event loop with a stable priority queue: events at equal
// timestamps fire in scheduling order, which the broadcast-channel model
// relies on for deterministic slot processing. Handles are returned so
// scheduled events can be cancelled (e.g. a station abandoning a planned
// retransmission when the channel state changes).
//
// Steady-state scheduling is allocation-free: events live in a free-list
// pool indexed by the heap entries, callbacks are stored in a
// small-buffer-optimized InlineCallback (no heap for closures up to 64
// bytes), and labels are plain string literals only rendered when the log
// level admits kTrace. Cancellation invalidates the pool slot's sequence
// tag; the heap entry becomes a tombstone skipped on pop, and a recycled
// slot can never resurrect a cancelled event because sequence numbers are
// never reused.
#pragma once

#include <cstdint>
#include <queue>
#include <vector>

#include "sim/inline_callback.hpp"
#include "util/simtime.hpp"

namespace hrtdm::sim {

using util::Duration;
using util::SimTime;

/// Identifies a scheduled event for cancellation. Default-constructed
/// handles are null.
class EventHandle {
 public:
  EventHandle() = default;
  bool is_null() const { return seq_ == 0; }

 private:
  friend class Simulator;
  EventHandle(std::uint32_t index, std::uint64_t seq)
      : index_(index), seq_(seq) {}
  std::uint32_t index_ = 0;
  std::uint64_t seq_ = 0;  ///< unique per schedule; 0 = null
};

/// Notified when an event is scheduled earlier than a registered horizon.
/// Used by the channel's idle fast-forward: a committed idle gap assumes no
/// event will appear inside it, and this hook is how that assumption is
/// revalidated when code outside the event loop (a testbed injecting a
/// message between run() calls) schedules into the gap.
class ScheduleWatcher {
 public:
  virtual ~ScheduleWatcher() = default;
  /// Invoked from schedule_at BEFORE the triggering event takes its
  /// sequence number, so anything the watcher schedules here fires first
  /// at equal timestamps. The watcher is unregistered before the call.
  virtual void on_early_schedule(SimTime at) = 0;
};

class Simulator {
 public:
  using Callback = InlineCallback;

  Simulator() = default;
  Simulator(const Simulator&) = delete;
  Simulator& operator=(const Simulator&) = delete;

  SimTime now() const { return now_; }

  /// Schedules `fn` at absolute time `at` (>= now). Returns a handle that
  /// can be passed to cancel(). `label` must be a string literal (or
  /// otherwise outlive the event); it is only rendered when the log level
  /// admits kTrace.
  EventHandle schedule_at(SimTime at, Callback fn,
                          const char* label = nullptr);

  /// Schedules `fn` after `delay` (>= 0) from now.
  EventHandle schedule_after(Duration delay, Callback fn,
                             const char* label = nullptr);

  /// Cancels a pending event; cancelling an already-fired or null handle is
  /// a no-op. Returns true if something was cancelled.
  bool cancel(EventHandle handle);

  /// Runs until the queue drains or the horizon is passed, whichever comes
  /// first. Events exactly at the horizon still fire; afterwards now() is
  /// at least the horizon.
  void run_until(SimTime horizon);

  /// Runs until the queue is empty. The caller must guarantee termination.
  void run_to_completion();

  /// Fires at most one event; returns false when the queue is empty.
  bool step();

  /// Timestamp of the earliest pending event, or SimTime::infinity() when
  /// none is scheduled. Non-destructive apart from discarding tombstones
  /// of cancelled events.
  SimTime next_event_time();

  std::uint64_t events_fired() const { return events_fired_; }
  std::size_t events_pending() const { return live_events_; }

  /// Registers `watcher` to be notified (once, and then unregistered) the
  /// next time an event is scheduled at a time strictly below `horizon`.
  void add_schedule_watcher(ScheduleWatcher* watcher, SimTime horizon);
  /// Unregisters without notifying; unknown watchers are ignored.
  void remove_schedule_watcher(ScheduleWatcher* watcher);

 private:
  static constexpr std::uint32_t kNullIndex = UINT32_MAX;

  struct Event {
    SimTime at;
    std::uint64_t seq = 0;  ///< 0 while the pool slot is free
    InlineCallback fn;
    const char* label = nullptr;
    std::uint32_t next_free = kNullIndex;
  };
  struct QueueEntry {
    SimTime at;
    std::uint64_t seq;  ///< FIFO tie-break at equal timestamps
    std::uint32_t index;
  };
  struct EntryOrder {
    // std::priority_queue is a max-heap; invert for earliest-first with
    // FIFO tie-breaking on the sequence number.
    bool operator()(const QueueEntry& a, const QueueEntry& b) const {
      if (a.at != b.at) {
        return a.at > b.at;
      }
      return a.seq > b.seq;
    }
  };

  struct WatchEntry {
    ScheduleWatcher* watcher;
    SimTime horizon;
  };

  std::uint32_t acquire_slot();
  void release_slot(std::uint32_t index);
  void notify_watchers(SimTime at);
  /// True when the heap entry still refers to a live (uncancelled,
  /// unfired) event.
  bool live(const QueueEntry& entry) const {
    return pool_[entry.index].seq == entry.seq;
  }

  SimTime now_;
  std::uint64_t next_seq_ = 1;
  std::uint64_t events_fired_ = 0;
  std::size_t live_events_ = 0;
  std::vector<Event> pool_;
  std::uint32_t free_head_ = kNullIndex;
  std::priority_queue<QueueEntry, std::vector<QueueEntry>, EntryOrder> queue_;
  std::vector<WatchEntry> watchers_;
};

/// Runs the classic chunked polling loop
///     while (cond() && sim.now() < cap) sim.run_until(sim.now() + step);
/// with identical observable behaviour (same events fired, same final
/// now(), same chunk boundaries at which cond() is sampled) but without
/// per-chunk wakeups across event-free spans. The premise "cond() can only
/// change when an event fires" is not quite true once the channel buffers
/// compiled epochs or idle gaps: lazily-flushed deliveries become visible
/// as time passes with no event in between. `extra()` patches the premise:
/// it returns the earliest time at which cond()'s inputs may change
/// *without* an event firing (SimTime::infinity() when there is none), and
/// chunk jumps never skip past it — so every chunk boundary at which the
/// plain loop would have sampled a different cond() value is still sampled
/// here, and the stop time is bit-identical.
template <typename Cond, typename Extra>
void run_chunked(Simulator& sim, Duration step, SimTime cap, Cond&& cond,
                 Extra&& extra) {
  while (cond() && sim.now() < cap) {
    const std::int64_t to_cap = (cap - sim.now()).ceil_div(step);
    std::int64_t chunks = to_cap;
    SimTime next = sim.next_event_time();
    const SimTime change = extra();
    if (change < next) {
      next = change;
    }
    if (next != SimTime::infinity()) {
      const Duration gap = next - sim.now();
      if (gap.ns() > 0) {
        chunks = std::min(chunks, gap.ceil_div(step));
      } else {
        chunks = 1;  // an event is due at now(): take a single plain chunk
      }
    }
    sim.run_until(sim.now() + step * std::max<std::int64_t>(1, chunks));
  }
}

/// The common case: cond() depends only on event effects, so event-free
/// chunks are jumped straight to the next scheduled event or the cap.
template <typename Cond>
void run_chunked(Simulator& sim, Duration step, SimTime cap, Cond&& cond) {
  run_chunked(sim, step, cap, static_cast<Cond&&>(cond),
              [] { return SimTime::infinity(); });
}

}  // namespace hrtdm::sim
