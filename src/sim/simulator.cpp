#include "sim/simulator.hpp"

#include <utility>

#include "util/check.hpp"
#include "util/log.hpp"

namespace hrtdm::sim {

std::uint32_t Simulator::acquire_slot() {
  if (free_head_ != kNullIndex) {
    const std::uint32_t index = free_head_;
    free_head_ = pool_[index].next_free;
    return index;
  }
  HRTDM_ENSURE(pool_.size() < kNullIndex, "event pool exhausted");
  pool_.emplace_back();
  return static_cast<std::uint32_t>(pool_.size() - 1);
}

void Simulator::release_slot(std::uint32_t index) {
  Event& event = pool_[index];
  event.seq = 0;
  event.fn.reset();
  event.label = nullptr;
  event.next_free = free_head_;
  free_head_ = index;
  --live_events_;
}

EventHandle Simulator::schedule_at(SimTime at, Callback fn,
                                   const char* label) {
  HRTDM_EXPECT(at >= now_, "cannot schedule into the past");
  HRTDM_EXPECT(static_cast<bool>(fn), "event callback must be callable");
  if (!watchers_.empty()) {
    notify_watchers(at);
  }
  const std::uint64_t seq = next_seq_++;
  const std::uint32_t index = acquire_slot();
  Event& event = pool_[index];
  event.at = at;
  event.seq = seq;
  event.fn = std::move(fn);
  event.label = label;
  ++live_events_;
  queue_.push(QueueEntry{at, seq, index});
  return EventHandle{index, seq};
}

EventHandle Simulator::schedule_after(Duration delay, Callback fn,
                                      const char* label) {
  HRTDM_EXPECT(!delay.is_negative(), "delay cannot be negative");
  return schedule_at(now_ + delay, std::move(fn), label);
}

bool Simulator::cancel(EventHandle handle) {
  if (handle.is_null() || handle.index_ >= pool_.size()) {
    return false;
  }
  if (pool_[handle.index_].seq != handle.seq_) {
    return false;  // already fired, already cancelled, or slot recycled
  }
  // The heap entry stays behind as a tombstone; the sequence mismatch makes
  // step()/run_until()/next_event_time() discard it on pop.
  release_slot(handle.index_);
  return true;
}

bool Simulator::step() {
  while (!queue_.empty()) {
    const QueueEntry entry = queue_.top();
    queue_.pop();
    if (!live(entry)) {
      continue;  // tombstone of a cancelled event
    }
    Event& event = pool_[entry.index];
    HRTDM_ENSURE(event.at >= now_, "event queue went backwards in time");
    now_ = event.at;
    ++events_fired_;
    if (event.label != nullptr &&
        util::log_level() <= util::LogLevel::kTrace) {
      HRTDM_LOG(kTrace) << event.at.str() << " fire: " << event.label;
    }
    // Move the callback out and free the slot BEFORE invoking: the callback
    // may schedule new events, which can recycle this slot or grow the pool
    // (invalidating `event`).
    InlineCallback fn = std::move(event.fn);
    release_slot(entry.index);
    fn();
    return true;
  }
  return false;
}

void Simulator::run_until(SimTime horizon) {
  while (!queue_.empty()) {
    // Peek past tombstones without firing.
    const QueueEntry& entry = queue_.top();
    if (!live(entry)) {
      queue_.pop();
      continue;
    }
    if (entry.at > horizon) {
      break;
    }
    step();
  }
  if (now_ < horizon) {
    now_ = horizon;
  }
}

void Simulator::run_to_completion() {
  while (step()) {
  }
}

void Simulator::add_schedule_watcher(ScheduleWatcher* watcher,
                                     SimTime horizon) {
  HRTDM_EXPECT(watcher != nullptr, "null schedule watcher");
  watchers_.push_back(WatchEntry{watcher, horizon});
}

void Simulator::remove_schedule_watcher(ScheduleWatcher* watcher) {
  for (std::size_t i = 0; i < watchers_.size(); ++i) {
    if (watchers_[i].watcher == watcher) {
      watchers_[i] = watchers_.back();
      watchers_.pop_back();
      return;
    }
  }
}

void Simulator::notify_watchers(SimTime at) {
  // Unregister every triggered watcher before invoking any of them: the
  // callbacks typically call schedule_at themselves, and must not
  // re-trigger (cold path — the local vector allocation is acceptable).
  std::vector<ScheduleWatcher*> triggered;
  for (std::size_t i = 0; i < watchers_.size();) {
    if (at < watchers_[i].horizon) {
      triggered.push_back(watchers_[i].watcher);
      watchers_[i] = watchers_.back();
      watchers_.pop_back();
    } else {
      ++i;
    }
  }
  for (ScheduleWatcher* watcher : triggered) {
    watcher->on_early_schedule(at);
  }
}

SimTime Simulator::next_event_time() {
  while (!queue_.empty()) {
    const QueueEntry& entry = queue_.top();
    if (!live(entry)) {
      queue_.pop();
      continue;
    }
    return entry.at;
  }
  return SimTime::infinity();
}

}  // namespace hrtdm::sim
