#include "net/channel.hpp"

#include <algorithm>
#include <limits>

#include "obs/registry.hpp"
#include "util/check.hpp"
#include "util/log.hpp"

namespace hrtdm::net {

BroadcastChannel::BroadcastChannel(sim::Simulator& simulator, PhyConfig phy,
                                   CollisionMode mode,
                                   std::uint64_t noise_seed)
    : simulator_(simulator),
      phy_(phy),
      mode_(mode),
      noise_rng_(noise_seed),
      ge_rng_(util::SplitMix64(noise_seed ^ 0x6E55'0BAD'600DULL).next()) {
  phy_.validate();
}

void BroadcastChannel::attach(Station& station) {
  HRTDM_EXPECT(!started_once_, "attach stations before start()");
  for (const Station* existing : stations_) {
    HRTDM_EXPECT(existing->id() != station.id(), "duplicate station id");
  }
  stations_.push_back(&station);
}

void BroadcastChannel::add_observer(ChannelObserver& observer) {
  observers_.push_back(&observer);
}

void BroadcastChannel::start() {
  HRTDM_EXPECT(!stations_.empty(), "cannot start a channel with no stations");
  HRTDM_EXPECT(!running_, "channel already running");
  running_ = true;
  if (!started_once_) {
    started_once_ = true;
    started_at_ = simulator_.now();
  }
  simulator_.schedule_after(util::Duration::nanoseconds(0),
                            [this] { begin_slot(); }, "channel:first-slot");
}

void BroadcastChannel::stop() {
  // Re-materialize the in-flight slot of an active span so a run that
  // continues past stop() observes exactly what the slot-by-slot loop would
  // have: the pending slot still completes, then the chain halts on
  // !running_.
  revalidate_span();
  running_ = false;
}

void BroadcastChannel::set_interceptor(SlotInterceptor* interceptor) {
  // An active span was committed under the "no interceptor" predicate; it
  // must not span the installation point.
  revalidate_span();
  interceptor_ = interceptor;
}

void BroadcastChannel::set_span_compiler(SpanCompiler* compiler) {
  HRTDM_EXPECT(!span_active_ || span_.empty(),
               "cannot swap the span compiler mid-span");
  span_compiler_ = compiler;
}

void BroadcastChannel::set_phy(const PhyConfig& phy) {
  phy.validate();
  HRTDM_EXPECT(phy.slot_x.ns() == phy_.slot_x.ns(),
               "slot_x must not change mid-run");
  // Dissolve any committed span FIRST: a span committed under the old PHY
  // must not extend over slots the new PHY would treat differently. In
  // particular an open-ended idle gap committed on a clean channel must not
  // survive a switch to Gilbert–Elliott loss — every slot after the switch
  // advances the GE chain, so each one must be simulated.
  revalidate_span();
  phy_ = phy;
}

double BroadcastChannel::utilization() const {
  flush_span(simulator_.now());
  const util::Duration elapsed = simulator_.now() - started_at_;
  if (elapsed.ns() <= 0) {
    return 0.0;
  }
  return stats_.busy_time.to_seconds() / elapsed.to_seconds();
}

ChannelSnapshot BroadcastChannel::snapshot() const {
  flush_span(simulator_.now());
  ChannelSnapshot snap;
  snap.stations = stations_.size();
  snap.running = running_;
  snap.observations_delivered = observations_delivered_;
  snap.stats = stats_;
  snap.utilization = utilization();
  return snap;
}

ChannelStats& ChannelStats::operator+=(const ChannelStats& delta) {
  silence_slots += delta.silence_slots;
  collision_slots += delta.collision_slots;
  successes += delta.successes;
  burst_continuations += delta.burst_continuations;
  arbitration_wins += delta.arbitration_wins;
  corrupted_frames += delta.corrupted_frames;
  ge_bad_slots += delta.ge_bad_slots;
  ge_losses += delta.ge_losses;
  bits_delivered += delta.bits_delivered;
  busy_time += delta.busy_time;
  idle_time += delta.idle_time;
  contention_time += delta.contention_time;
  return *this;
}

void BroadcastChannel::record_slot(
    [[maybe_unused]] const SlotRecord& record,
    [[maybe_unused]] std::int64_t corrupt_bits) const {
  switch (record.kind) {
    case SlotKind::kSilence:
      HRTDM_FR_RECORD(recorder_, obs::FrKind::kSlotSilence, record.end.ns(),
                      -1, (record.end - record.start).ns());
      break;
    case SlotKind::kCollision:
      HRTDM_FR_RECORD(recorder_, obs::FrKind::kSlotCollision, record.end.ns(),
                      -1, (record.end - record.start).ns(), corrupt_bits);
      break;
    case SlotKind::kSuccess:
      HRTDM_FR_RECORD(recorder_, obs::FrKind::kSlotSuccess, record.end.ns(),
                      record.frame->source, (record.end - record.start).ns(),
                      record.frame->msg_uid);
      break;
  }
}

void BroadcastChannel::count_slots(
    [[maybe_unused]] const ChannelStats& delta,
    [[maybe_unused]] int min_contenders,
    std::span<std::int64_t> per_contenders) const {
  // The stats delta already encodes the slot shape (record_delta): its kind
  // counts are the slots.* counters, in_burst and arbitration the rest.
  if (delta.silence_slots > 0) {
    HRTDM_COUNT_N("channel.slots.silence", delta.silence_slots);
  }
  if (delta.collision_slots > 0) {
    HRTDM_COUNT_N("channel.slots.collision", delta.collision_slots);
  }
  if (delta.successes > 0) {
    HRTDM_COUNT_N("channel.slots.success", delta.successes);
  }
  if (delta.burst_continuations > 0) {
    HRTDM_COUNT_N("channel.burst_continuations", delta.burst_continuations);
  }
  if (delta.arbitration_wins > 0) {
    HRTDM_COUNT_N("channel.arbitration_wins", delta.arbitration_wins);
  }
  for (std::size_t i = 0; i < per_contenders.size(); ++i) {
    if (per_contenders[i] > 0) {
      HRTDM_OBSERVE_N("channel.contenders",
                      min_contenders + static_cast<int>(i),
                      per_contenders[i]);
      per_contenders[i] = 0;
    }
  }
}

void BroadcastChannel::deliver() {
  stats_ += pending_delta_;
  std::int64_t one = 1;
  count_slots(pending_delta_, pending_record_.contenders, {&one, 1});
  record_slot(pending_record_, pending_corrupt_bits_);
  const std::int64_t index = observations_delivered_++;
  pending_obs_.broadcast = interceptor_ == nullptr;
  pending_obs_.index = index;
  for (Station* station : stations_) {
    if (interceptor_ != nullptr) {
      SlotObservation heard =
          interceptor_->deliver_to(station->id(), index, pending_obs_);
      heard.broadcast = false;  // per-receiver: may differ between stations
      station->observe(heard);
    } else {
      station->observe(pending_obs_);
    }
  }
  for (ChannelObserver* observer : observers_) {
    observer->on_slot(pending_record_);
  }
}

void BroadcastChannel::finish_burst() {
  deliver();
  if (running_) {
    continue_burst(*pending_winner_, pending_burst_budget_);
  }
}

void BroadcastChannel::continue_burst(Station& winner,
                                      std::int64_t budget_bits) {
  // Called at the instant the previous frame completed. The winner may
  // chain its next EDF-ranked frame without relinquishing the channel, as
  // long as the continuation fits the remaining burst budget (the 512-byte
  // rule of IEEE 802.3z packet bursting described in section 5).
  if (!running_) {
    return;
  }
  const SimTime now = simulator_.now();
  const auto next = winner.poll_burst(now, budget_bits);
  if (!next.has_value() || next->l_bits > budget_bits) {
    begin_slot();
    return;
  }
  HRTDM_EXPECT(next->source == winner.id(),
               "burst frame source must match winner id");

  pending_obs_ = SlotObservation{};
  pending_record_ = SlotRecord{};
  pending_obs_.kind = pending_record_.kind = SlotKind::kSuccess;
  pending_obs_.in_burst = pending_record_.in_burst = true;
  pending_obs_.frame = pending_record_.frame = *next;
  pending_obs_.slot_start = pending_record_.start = now;
  const util::Duration tx = phy_.tx_time(next->l_bits);
  const SimTime end = now + tx;
  pending_obs_.slot_end = pending_record_.end = end;
  pending_record_.contenders = 1;

  pending_delta_ = ChannelStats{};
  ++pending_delta_.successes;
  ++pending_delta_.burst_continuations;
  pending_delta_.bits_delivered += next->l_bits;
  pending_delta_.busy_time += tx;

  pending_winner_ = &winner;
  pending_burst_budget_ = budget_bits - next->l_bits;
  simulator_.schedule_at(end, [this] { finish_burst(); },
                         "channel:burst-end");
}

void BroadcastChannel::finish_slot() {
  deliver();
  if (!running_) {
    return;
  }
  if (pending_burst_possible_) {
    continue_burst(*pending_winner_, phy_.burst_budget_bits);
  } else {
    begin_slot();
  }
}

void BroadcastChannel::begin_slot() {
  if (!running_) {
    return;
  }
  const SimTime start = simulator_.now();

  // Compiled-span fast path: on a clean destructive channel an installed
  // SpanCompiler may resolve a whole run of slots closed-form. Checked
  // before the GE flip and the polls — the gate excludes GE, so no chain
  // transition is ever skipped, and a committed span replaces the polls.
  if (span_compiler_ != nullptr && clean_for_fast_forward() &&
      phy_.corruption_prob == 0.0 && mode_ == CollisionMode::kDestructive &&
      try_compiled_span(start)) {
    return;  // fast-forwarded; the span resume event continues the chain
  }

  // Gilbert–Elliott chain: the hidden good/bad state flips at every
  // contention-slot boundary, silence included — fading does not wait for
  // traffic. Drawn from ge_rng_ only, and only when the model is enabled.
  if (phy_.ge_enabled) {
    const double flip = ge_bad_ ? phy_.ge_p_bad_good : phy_.ge_p_good_bad;
    if (ge_rng_.bernoulli(flip)) {
      ge_bad_ = !ge_bad_;
      HRTDM_FR_RECORD(recorder_, obs::FrKind::kGeFlip, start.ns(), -1,
                      ge_bad_ ? 1 : 0);
    }
  }

  // Poll every station; the broadcast property requires that intents are
  // decided simultaneously at the slot boundary.
  intents_.clear();
  for (Station* station : stations_) {
    if (auto frame = station->poll_intent(start)) {
      HRTDM_EXPECT(frame->l_bits > 0, "station offered an empty frame");
      HRTDM_EXPECT(frame->source == station->id(),
                   "frame source must match station id");
      intents_.emplace_back(station, *frame);
    }
  }

  pending_obs_ = SlotObservation{};
  pending_record_ = SlotRecord{};
  pending_obs_.slot_start = pending_record_.start = start;
  pending_record_.contenders = static_cast<int>(intents_.size());

  Station* winner = nullptr;
  SimTime end;
  // Stats deltas are applied when the slot *completes* (in the delivery
  // event) so that stats() never includes an in-flight slot.
  pending_delta_ = ChannelStats{};
  ChannelStats& delta = pending_delta_;

  if (intents_.empty()) {
    if (clean_for_fast_forward() && all_quiescent() && try_idle_gap(start)) {
      return;  // fast-forwarded; the gap resume event continues the chain
    }
    pending_obs_.kind = pending_record_.kind = SlotKind::kSilence;
    end = start + phy_.slot_x;
    ++delta.silence_slots;
    delta.idle_time += phy_.slot_x;
  } else if (intents_.size() == 1) {
    pending_obs_.kind = pending_record_.kind = SlotKind::kSuccess;
    winner = intents_.front().first;
    const Frame& frame = intents_.front().second;
    pending_obs_.frame = pending_record_.frame = frame;
    const util::Duration tx =
        std::max(phy_.tx_time(frame.l_bits), phy_.slot_x);
    end = start + tx;
    ++delta.successes;
    delta.bits_delivered += frame.l_bits;
    delta.busy_time += tx;
  } else if (mode_ == CollisionMode::kDestructive) {
    pending_obs_.kind = pending_record_.kind = SlotKind::kCollision;
    end = start + phy_.slot_x;
    ++delta.collision_slots;
    delta.contention_time += phy_.slot_x;
  } else {
    // Wired-OR arbitration: the collision slot itself reveals the winner
    // (lowest arb_key, station id as tie-break), which then transmits.
    pending_obs_.kind = pending_record_.kind = SlotKind::kSuccess;
    pending_obs_.arbitration = pending_record_.arbitration = true;
    auto best = std::min_element(
        intents_.begin(), intents_.end(), [](const auto& a, const auto& b) {
          if (a.second.arb_key != b.second.arb_key) {
            return a.second.arb_key < b.second.arb_key;
          }
          return a.second.source < b.second.source;
        });
    winner = best->first;
    const Frame& frame = best->second;
    pending_obs_.frame = pending_record_.frame = frame;
    const util::Duration tx =
        std::max(phy_.tx_time(frame.l_bits), phy_.slot_x);
    end = start + phy_.slot_x + tx;
    ++delta.successes;
    ++delta.arbitration_wins;
    delta.bits_delivered += frame.l_bits;
    delta.contention_time += phy_.slot_x;
    delta.busy_time += tx;
  }

  // Channel noise: a transmission may be destroyed in flight. Corruption
  // is symmetric — every station, the transmitter included, observes a
  // collision lasting the full transmission time — so the replicated
  // protocol state machines stay consistent and simply retry. An installed
  // interceptor can force the same outcome on scripted slots; its draw is
  // separate from noise_rng_ so plans do not perturb the noise stream.
  const bool noise_corrupts = pending_obs_.kind == SlotKind::kSuccess &&
                              phy_.corruption_prob > 0.0 &&
                              noise_rng_.bernoulli(phy_.corruption_prob);
  const bool ge_corrupts =
      pending_obs_.kind == SlotKind::kSuccess && phy_.ge_enabled &&
      ge_rng_.bernoulli(ge_bad_ ? phy_.ge_loss_bad : phy_.ge_loss_good);
  const bool forced_corrupts =
      pending_obs_.kind == SlotKind::kSuccess && interceptor_ != nullptr &&
      interceptor_->corrupt_slot(observations_delivered_);
  pending_corrupt_bits_ = 0;
  if (noise_corrupts || ge_corrupts || forced_corrupts) {
    pending_corrupt_bits_ =
        (noise_corrupts ? std::int64_t{obs::kCorruptNoise} : 0) |
        (ge_corrupts ? std::int64_t{obs::kCorruptGe} : 0) |
        (forced_corrupts ? std::int64_t{obs::kCorruptFault} : 0);
    pending_obs_.kind = pending_record_.kind = SlotKind::kCollision;
    pending_obs_.frame.reset();
    pending_record_.frame.reset();
    pending_obs_.arbitration = pending_record_.arbitration = false;
    winner = nullptr;
    delta = ChannelStats{};
    ++delta.collision_slots;
    ++delta.corrupted_frames;
    if (ge_corrupts) {
      ++delta.ge_losses;
    }
    delta.contention_time += end - start;
  }
  if (phy_.ge_enabled && ge_bad_) {
    ++delta.ge_bad_slots;
  }

  pending_obs_.slot_end = pending_record_.end = end;
  pending_winner_ = winner;
  pending_burst_possible_ = winner != nullptr &&
                            pending_obs_.kind == SlotKind::kSuccess &&
                            phy_.burst_budget_bits > 0;

  simulator_.schedule_at(end, [this] { finish_slot(); }, "channel:slot-end");
}

// --- fast-forward spans ------------------------------------------------------
//
// Equivalence argument. In a slot-by-slot run the channel would, at each
// boundary of a span's slots: poll every station, resolve the slot, and at
// its end deliver the observation and notify observers. A span commits
// slots whose outcomes are already known:
//  - an idle gap, over quiescent stations: every poll returns nullopt and
//    every silence observation is a state no-op (the quiescent() contract),
//    so the deliveries reduce to stats / counter / observer accounting. The
//    gap may extend only to the next already-scheduled simulator event: any
//    such event (message arrival, another channel's slot) may end
//    quiescence. Its last slot is the one whose poll comes strictly before
//    that event, so the event fires while that slot is in flight, as it
//    would slot by slot.
//  - a compiled span, produced by the SpanCompiler for [start, end): the
//    exact slot records the slot-by-slot loop would have produced, under
//    the contract that every compiled slot ends at or before the next
//    already-scheduled simulator event. Station-side effects are NOT
//    applied per slot: stations stay frozen at the span entry state and
//    receive the bulk end-of-span state in apply_handoff() when the resume
//    event fires. That is unobservable from outside the event loop because
//    every external entry point that reads stations goes through
//    materialize_stations() / revalidate_span(), which dissolve the span.
// Channel-side effects of a completed slot — stats delta, registry
// counters, observation index, observers — are pure functions of its
// record and are flushed lazily (flush_span), mirroring deliver(). Events
// scheduled into a span from outside the event loop (a testbed injecting
// mid-run) hit the ScheduleWatcher, and dissolve_span() replays a compiled
// prefix through the real Station::observe() (the stations were untouched,
// so the replay lands them precisely at the prefix boundary — counters,
// engines, traces and all) and rebuilds the in-flight slot as a regular
// pending slot — before the intruding event takes its sequence number, so
// even same-timestamp ordering matches the slot-by-slot run.

bool BroadcastChannel::all_quiescent() const {
  for (const Station* station : stations_) {
    if (!station->quiescent()) {
      return false;
    }
  }
  return true;
}

bool BroadcastChannel::try_idle_gap(SimTime start) {
  span_.clear();  // implicit silence slots
  const SimTime next = simulator_.next_event_time();
  if (next == SimTime::infinity()) {
    commit_span(start, /*slots=*/-1, SimTime::infinity());
    return true;
  }
  // Largest n with start + (n-1)*x < next: every skipped poll happens
  // strictly before the event that could end quiescence.
  const std::int64_t slots = (next - start).ceil_div(phy_.slot_x);
  if (slots < 2) {
    return false;  // nothing (or a lone slot) to skip — not worth a gap
  }
  commit_span(start, slots, start + phy_.slot_x * slots);
  return true;
}

bool BroadcastChannel::try_compiled_span(SimTime start) {
  const SimTime horizon = simulator_.next_event_time();
  span_.clear();
  if (!span_compiler_->compile(start, horizon, span_)) {
    return false;
  }
  HRTDM_EXPECT(span_.size() >= 2, "compiled span too short to commit");
  HRTDM_EXPECT(span_.back().record.end <= horizon,
               "compiled span crosses a scheduled event");
  HRTDM_FR_RECORD(recorder_, obs::FrKind::kSpanCommit, start.ns(), -1,
                  static_cast<std::int64_t>(span_.size()),
                  span_.back().record.end.ns());
  commit_span(start, static_cast<std::int64_t>(span_.size()),
              span_.back().record.end);
  return true;
}

void BroadcastChannel::commit_span(SimTime start, std::int64_t slots,
                                   SimTime end) {
  span_active_ = true;
  span_start_ = start;
  span_slots_ = slots;
  span_flushed_ = 0;
  span_next_success_ = 0;
  span_deliveries_ = 0;
  // Watcher first: the resume event sits exactly at `end`, and the watcher
  // only fires for times strictly below its horizon.
  simulator_.add_schedule_watcher(this, end);
  span_resume_ = slots < 0 ? sim::EventHandle{}
                           : simulator_.schedule_at(
                                 end, [this] { resume_span(); },
                                 "channel:span-resume");
}

void BroadcastChannel::resume_span() {
  simulator_.remove_schedule_watcher(this);
  flush_span(simulator_.now(), /*resumed=*/true);
  HRTDM_EXPECT(span_flushed_ == span_slots_, "span flush incomplete");
  span_active_ = false;
  if (span_.empty()) {
    begin_slot();
    return;
  }
  span_deliveries_ = 0;
  span_compiler_->apply_handoff();
  for (ChannelObserver* observer : observers_) {
    observer->on_compiled_span_commit(span_start_, simulator_.now(),
                                      span_slots_);
  }
  if (!running_) {
    return;
  }
  // The last slot's burst_budget_next mirrors what finish_slot/finish_burst
  // would do at its end: consult the winner's poll_burst with that budget
  // (continue_burst falls back to begin_slot when it declines), or release
  // the channel into a fresh contention slot.
  const CompiledSlot& last = span_.back();
  if (last.burst_budget_next >= 0) {
    continue_burst(*station_by_id(last.record.frame->source),
                   last.burst_budget_next);
  } else {
    begin_slot();
  }
}

void BroadcastChannel::flush_span(SimTime upto, bool resumed) const {
  if (!span_active_) {
    return;
  }
  // The last slot ends with the resume event. An event at that same
  // instant that fires first (scheduled before the span, so older) sees
  // the slot still in flight, as the slot-by-slot loop would: its slot-end
  // event would have been scheduled later. Only the resume accounts it. An
  // open-ended gap has no last slot.
  const std::int64_t limit =
      span_slots_ < 0 ? std::numeric_limits<std::int64_t>::max()
                      : span_slots_ - (resumed ? 0 : 1);
  const std::int64_t first = span_flushed_;
  // The per-slot observer stream of a compiled span is the contract
  // (metrics, conformance and digests must see the identical slot
  // sequence); the pure-function accounting — stats delta, registry
  // counters, the contenders histogram — is order-insensitive and is
  // batched into one emission per flush.
  ChannelStats batch;
  if (contender_counts_.size() < stations_.size() + 2) {
    contender_counts_.assign(stations_.size() + 2, 0);
  }
  if (span_.empty()) {
    // Slot i of an idle gap covers [start + i*x, start + (i+1)*x); the run
    // of silence slots a flush completes is one record and one on_idle_gap.
    const std::int64_t done =
        std::min(limit, (upto - span_start_).floor_div(phy_.slot_x));
    if (done <= first) {
      return;
    }
    span_flushed_ = done;
    const std::int64_t newly = done - first;
    const SimTime first_start = span_start_ + phy_.slot_x * first;
    batch.silence_slots = newly;
    batch.idle_time = phy_.slot_x * newly;
    contender_counts_[0] = newly;
    HRTDM_FR_RECORD(recorder_, obs::FrKind::kIdleGap,
                    (first_start + batch.idle_time).ns(), -1,
                    batch.idle_time.ns(), newly);
    for (ChannelObserver* observer : observers_) {
      observer->on_idle_gap(newly, first_start, phy_.slot_x);
    }
  } else {
    while (span_flushed_ < limit &&
           span_[static_cast<std::size_t>(span_flushed_)].record.end <=
               upto) {
      const SlotRecord& record =
          span_[static_cast<std::size_t>(span_flushed_)].record;
      batch += record_delta(record);
      if (record.kind == SlotKind::kSuccess) {
        ++span_deliveries_;
      }
      ++contender_counts_[static_cast<std::size_t>(record.contenders)];
      ++span_flushed_;
      // Same causal record deliver() emits; compiled slots are never
      // corrupted (the span gate requires a noise/GE-free channel).
      record_slot(record, 0);
      for (ChannelObserver* observer : observers_) {
        observer->on_slot(record);
      }
    }
    if (span_flushed_ == first) {
      return;
    }
  }
  stats_ += batch;
  observations_delivered_ += span_flushed_ - first;
  count_slots(batch, 0, contender_counts_);
}

void BroadcastChannel::dissolve_span() {
  simulator_.remove_schedule_watcher(this);
  flush_span(simulator_.now());
  if (!span_resume_.is_null()) {
    simulator_.cancel(span_resume_);
    span_resume_ = sim::EventHandle{};
  }
  span_active_ = false;
  HRTDM_EXPECT(span_slots_ < 0 || span_flushed_ < span_slots_,
               "dissolve past the span's end");
  if (!span_.empty()) {
    // Replay the flushed prefix through the stations: their state was left
    // at the span entry point, so feeding them the exact recorded
    // observations lands them precisely at the prefix boundary. No
    // interceptor can be installed while a span is committed, so the plain
    // broadcast delivery is the right one.
    const std::int64_t first_index = observations_delivered_ - span_flushed_;
    for (std::int64_t i = 0; i < span_flushed_; ++i) {
      SlotObservation obs =
          observation_from(span_[static_cast<std::size_t>(i)].record);
      obs.index = first_index + i;
      for (Station* station : stations_) {
        station->observe(obs);
      }
    }
    span_deliveries_ = 0;
    span_compiler_->drop_handoff();
  }
  // Re-materialize the in-flight slot from the span's own record as a
  // regular pending slot, scheduled now — before any intruding event's
  // sequence number is assigned. An idle gap's is a silence slot after
  // which the channel is released.
  CompiledSlot cur;
  if (span_.empty()) {
    cur.record.start = span_start_ + phy_.slot_x * span_flushed_;
    cur.record.end = cur.record.start + phy_.slot_x;
  } else {
    cur = span_[static_cast<std::size_t>(span_flushed_)];
  }
  pending_obs_ = observation_from(cur.record);
  pending_record_ = cur.record;
  pending_delta_ = record_delta(cur.record);
  pending_corrupt_bits_ = 0;
  if (cur.record.in_burst) {
    pending_winner_ = station_by_id(cur.record.frame->source);
    pending_burst_possible_ = false;  // unused by finish_burst
    pending_burst_budget_ = cur.burst_budget_next;
    simulator_.schedule_at(cur.record.end, [this] { finish_burst(); },
                           "channel:burst-end");
  } else {
    pending_winner_ = cur.record.kind == SlotKind::kSuccess
                          ? station_by_id(cur.record.frame->source)
                          : nullptr;
    pending_burst_possible_ =
        pending_winner_ != nullptr && cur.burst_budget_next >= 0;
    simulator_.schedule_at(cur.record.end, [this] { finish_slot(); },
                           "channel:slot-end");
  }
}

void BroadcastChannel::revalidate_span() {
  if (span_active_) {
    dissolve_span();
  }
}

void BroadcastChannel::materialize_stations() {
  if (span_active_ && !span_.empty()) {
    dissolve_span();
  } else {
    flush_span(simulator_.now());
  }
}

void BroadcastChannel::on_early_schedule(SimTime at) {
  (void)at;
  // The simulator has already unregistered us; the dissolve's own
  // remove_schedule_watcher is then a harmless no-op.
  revalidate_span();
}

ChannelStats BroadcastChannel::record_delta(const SlotRecord& record) const {
  // The same numbers begin_slot()/continue_burst() stage for a clean
  // destructive slot of this shape (no noise, no GE, no arbitration).
  ChannelStats delta;
  const util::Duration len = record.end - record.start;
  switch (record.kind) {
    case SlotKind::kSilence:
      ++delta.silence_slots;
      delta.idle_time += len;
      break;
    case SlotKind::kCollision:
      ++delta.collision_slots;
      delta.contention_time += len;
      break;
    case SlotKind::kSuccess:
      ++delta.successes;
      if (record.in_burst) {
        ++delta.burst_continuations;
      }
      delta.bits_delivered += record.frame->l_bits;
      delta.busy_time += len;
      break;
  }
  return delta;
}

SlotObservation BroadcastChannel::observation_from(const SlotRecord& record) {
  SlotObservation obs;
  obs.kind = record.kind;
  obs.slot_start = record.start;
  obs.slot_end = record.end;
  obs.frame = record.frame;
  obs.in_burst = record.in_burst;
  obs.arbitration = record.arbitration;
  obs.broadcast = true;  // a recorded slot every station heard alike
  return obs;
}

Station* BroadcastChannel::station_by_id(int id) const {
  for (Station* station : stations_) {
    if (station->id() == id) {
      return station;
    }
  }
  HRTDM_EXPECT(false, "compiled span references an unknown station id");
  return nullptr;
}

SimTime BroadcastChannel::next_compiled_delivery() const {
  if (!span_active_ || span_.empty()) {
    return SimTime::infinity();  // an idle gap delivers nothing
  }
  span_next_success_ = std::max(span_next_success_, span_flushed_);
  const auto size = static_cast<std::int64_t>(span_.size());
  while (span_next_success_ < size &&
         span_[static_cast<std::size_t>(span_next_success_)].record.kind !=
             SlotKind::kSuccess) {
    ++span_next_success_;
  }
  if (span_next_success_ == size) {
    return SimTime::infinity();
  }
  return span_[static_cast<std::size_t>(span_next_success_)].record.end;
}

}  // namespace hrtdm::net
