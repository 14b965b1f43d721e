#include "core/ddcr_station.hpp"

#include <algorithm>

#include "net/channel.hpp"
#include "obs/registry.hpp"
#include "util/check.hpp"
#include "util/math.hpp"
#include "util/rng.hpp"

namespace hrtdm::core {

const char* DdcrStation::mode_name(Mode mode) {
  switch (mode) {
    case Mode::kCsmaCd:
      return "csma-cd";
    case Mode::kTimeSearch:
      return "tts";
    case Mode::kStaticSearch:
      return "sts";
    case Mode::kResync:
      return "resync";
    case Mode::kOffline:
      return "offline";
  }
  return "?";
}

SharedReplica::SharedReplica(const DdcrConfig& config,
                             net::BroadcastChannel& channel)
    : replica_(config), channel_(channel) {}

DdcrStation::LiveSink::LiveSink(const DdcrStation& emitter)
    : emitter_(emitter),
      shared_(emitter.shares_replica()),
      weight_(shared_ ? emitter.shared_->members_ : 1) {
  tracing_ = shared_ ? emitter.shared_->traced_ : emitter.tracing();
  recording_ = emitter.recorder_ != nullptr;
}

DdcrStation::LiveSink::LiveSink(const DdcrStation& emitter,
                                std::int64_t holders)
    : emitter_(emitter), shared_(true), weight_(holders) {
  tracing_ = emitter.shared_->traced_;
  recording_ = emitter.recorder_ != nullptr;
}

void DdcrStation::LiveSink::count(Count what, std::int64_t n) {
  [[maybe_unused]] const std::int64_t amount = n * weight_;
  switch (what) {
    case Count::kEpochs:
      HRTDM_COUNT_N("ddcr.epochs", amount);
      break;
    case Count::kTtsRuns:
      HRTDM_COUNT_N("ddcr.tts_runs", amount);
      break;
    case Count::kStsRuns:
      HRTDM_COUNT_N("ddcr.sts_runs", amount);
      break;
    case Count::kCompressions:
      HRTDM_COUNT_N("ddcr.compressions", amount);
      break;
    case Count::kStaticLeafRetries:
      HRTDM_COUNT_N("ddcr.static_leaf_retries", amount);
      break;
    case Count::kTreeSearches:
      HRTDM_COUNT_N("tree.searches", amount);
      break;
    case Count::kTreeSilence:
      HRTDM_COUNT_N("tree.silence_slots", amount);
      break;
    case Count::kTreeCollision:
      HRTDM_COUNT_N("tree.collision_slots", amount);
      break;
    case Count::kTreeInferred:
      HRTDM_COUNT_N("tree.inferred_skips", amount);
      break;
    case Count::kCount_:
      HRTDM_EXPECT(false, "not a replica counter");
      break;
  }
}

void DdcrStation::LiveSink::observe([[maybe_unused]] Hist what,
                                    [[maybe_unused]] std::int64_t value) {
  if (what == Hist::kTtsSearchSlots) {
    HRTDM_OBSERVE_N("ddcr.tts_search_slots", value, weight_);
  } else {
    HRTDM_OBSERVE_N("ddcr.sts_search_slots", value, weight_);
  }
}

template <typename Draw>
void DdcrStation::LiveSink::for_each_track(Draw&& draw) const {
  if (!tracing_) {
    return;  // no holder has a tracer: skip the walk
  }
  if (!shared_) {
    draw(emitter_);
    return;
  }
  for (const DdcrStation* s : emitter_.shared_->stations_) {
    if (s->shares_replica() && s->tracing()) {
      draw(*s);
    }
  }
}

void DdcrStation::LiveSink::instant(SimTime ts, const char* name,
                                    const char* args, std::int64_t a0,
                                    std::int64_t a1, std::int64_t a2,
                                    Arg base) {
  for_each_track([&](const DdcrStation& s) {
    // The replica counts for all its holders; each track shows its own
    // station's count.
    std::int64_t arg = a0;
    if (base == Arg::kEpochs) {
      arg += s.tally_.epochs;
    } else if (base == Arg::kTtsRuns) {
      arg += s.tally_.tts_runs;
    }
    s.tracer_->instant(s.trace_pid_, s.id_ + 1, ts.ns(), name, args, arg, a1,
                       a2);
  });
}

void DdcrStation::LiveSink::span(SimTime start, SimTime end, const char* name,
                                 const char* args, std::int64_t a0,
                                 std::int64_t a1, std::int64_t a2) {
  for_each_track([&](const DdcrStation& s) {
    s.tracer_->complete(s.trace_pid_, s.id_ + 1, start.ns(),
                        end.ns() - start.ns(), name, args, a0, a1, a2);
  });
}

void DdcrStation::LiveSink::replicated([[maybe_unused]] obs::FrKind kind,
                                       [[maybe_unused]] SimTime t,
                                       [[maybe_unused]] std::int64_t a,
                                       [[maybe_unused]] std::int64_t b) {
  HRTDM_FR_REPLICATED(emitter_.recorder_, kind, t.ns(), emitter_.id_, a, b);
}

void DdcrStation::set_trace(obs::EventTracer* tracer, int channel_id) {
  tracer_ = tracer;
  trace_pid_ = channel_id;
  if (tracer_ != nullptr) {
    shared_->traced_ = true;
    tracer_->set_thread_name(trace_pid_, id_ + 1,
                             "station " + std::to_string(id_));
  }
}

void DdcrStation::trace_instant(const char* name, const char* arg_names,
                                std::int64_t a0, std::int64_t a1,
                                std::int64_t a2) {
  if (!tracing()) {
    return;
  }
  tracer_->instant(trace_pid_, id_ + 1, replica_->heard_at().ns(), name,
                   arg_names, a0, a1, a2);
}

void DdcrStation::add(Counters& to, const DdcrReplica::Counters& from,
                      std::int64_t sign) {
  to.epochs += sign * from.epochs;
  to.tts_runs += sign * from.tts_runs;
  to.sts_runs += sign * from.sts_runs;
  to.compressions += sign * from.compressions;
  to.search_slots_time += sign * from.search_slots_time;
  to.search_slots_static += sign * from.search_slots_static;
  to.static_leaf_retries += sign * from.static_leaf_retries;
}

DdcrStation::Counters DdcrStation::counters() const {
  Counters c = tally_;
  add(c, replica_->counters());
  return c;
}

StationSnapshot DdcrStation::snapshot() const {
  const DdcrReplica& r = *replica_;
  StationSnapshot snap;
  snap.id = id_;
  snap.mode = mode_name(r.mode());
  snap.synced = synced();
  snap.queue_depth = queue_.size();
  if (const auto head = queue_.head()) {
    snap.has_head = true;
    snap.head_uid = head->uid;
    snap.head_deadline_ns = head->absolute_deadline.ns();
  }
  snap.reft_ns = r.reft().ns();
  snap.tts_active = r.time_engine().active();
  if (snap.tts_active) {
    snap.tts_lo = r.time_engine().current().lo;
    snap.tts_size = r.time_engine().current().size;
  }
  snap.tts_resolved = r.time_engine().resolved_up_to();
  snap.sts_active = r.static_engine().active();
  if (snap.sts_active) {
    snap.sts_lo = r.static_engine().current().lo;
    snap.sts_size = r.static_engine().current().size;
  }
  snap.sts_leaf = r.sts_leaf();
  snap.resync_silences = resync_silences_;
  return snap;
}

DdcrStation::DdcrStation(int id, const DdcrConfig& config,
                         SharedReplica& shared)
    : id_(id),
      config_(config),
      shared_(&shared),
      replica_(&shared.replica_) {
  HRTDM_EXPECT(id >= 0, "station id must be non-negative");
  HRTDM_EXPECT(static_cast<std::size_t>(id) < config.static_indices.size(),
               "config.static_indices has no entry for this station id");
  HRTDM_EXPECT(&shared.replica_.config() == &config,
               "a station views the config its channel's replica views");
  my_indices_ = config.static_indices[static_cast<std::size_t>(id)];
  HRTDM_EXPECT(!my_indices_.empty(), "a source needs >= 1 static index");
  HRTDM_EXPECT(std::is_sorted(my_indices_.begin(), my_indices_.end()),
               "static indices must be ranked increasing");
  HRTDM_EXPECT(my_indices_.front() >= 0 && my_indices_.back() < config.q,
               "static indices must lie in [0, q)");
  shared.stations_.push_back(this);
  ++shared.members_;
}

void DdcrStation::enqueue(const Message& msg) {
  HRTDM_EXPECT(msg.source == id_, "message mapped to the wrong source");
  queue_.push(msg);
}

std::optional<std::int64_t> DdcrStation::effective_time_index(
    const Message& msg) const {
  // f(reft, I.msg) = max(floor((DM - (alpha + reft)) / c), f* + 1). The
  // engine's resolved_up_to() is exactly f* + 1: leaves below it were
  // searched already, and the max guarantees a late message is processed
  // as soon as possible rather than waiting for the next time tree.
  const std::int64_t raw = raw_time_index(msg.absolute_deadline);
  const std::int64_t floor_idx = replica_->time_engine().resolved_up_to();
  const std::int64_t idx = std::max(raw, floor_idx);
  if (idx > config_.F - 1) {
    return std::nullopt;  // beyond the scheduling horizon cF
  }
  return idx;
}

std::optional<Message> DdcrStation::sts_candidate() const {
  // Due-or-late rule (DESIGN.md decision 5): a message may enter the
  // tie-break for leaf j if its raw class index is <= j. The EDF head of
  // the eligible set is simply the queue head if it qualifies (EDF order
  // implies non-decreasing raw indices).
  const auto head = queue_.head();
  if (!head.has_value()) {
    return std::nullopt;
  }
  if (raw_time_index(head->absolute_deadline) > replica_->sts_leaf()) {
    return std::nullopt;
  }
  return head;
}

Frame DdcrStation::make_frame(const Message& msg) const {
  Frame frame;
  frame.source = id_;
  frame.msg_uid = msg.uid;
  frame.class_id = msg.class_id;
  frame.l_bits = msg.l_bits;
  frame.enqueue_time = msg.arrival;
  frame.absolute_deadline = msg.absolute_deadline;
  // Wired-OR arbitration key: earlier deadline wins, station id breaks ties
  // (section 5: message deadlines serve as ATM priorities). A positive
  // quantum models the coarse 802.1p priority field.
  const std::int64_t quantum = config_.arb_priority_quantum.ns();
  frame.arb_key = quantum > 0
                      ? util::floor_div(msg.absolute_deadline.ns(), quantum)
                      : msg.absolute_deadline.ns();
  return frame;
}

void DdcrStation::fork() {
  shared_->channel_.revalidate_span();
  if (!shares_replica()) {
    return;  // already on a private copy
  }
  if (own_ == nullptr) {
    own_ = std::make_unique<DdcrReplica>(shared_->replica_);
  } else {
    *own_ = shared_->replica_;
  }
  replica_ = own_.get();
  --shared_->members_;
  ++shared_->forks_;
}

void DdcrStation::reset_for_rejoin() {
  // Validates that the configuration makes the quiet-period certificate
  // sound (bounded in-epoch silence streaks).
  (void)config_.resync_silence_threshold();
  fork();
  trace_instant("resync-enter");
  HRTDM_FR_RECORD(recorder_, obs::FrKind::kQuarantine,
                  replica_->heard_at().ns(), id_);
  replica_->reset(Mode::kResync);
  static_pos_ = 0;
  sts_retry_streak_ = 0;
  resync_silences_ = 0;
}

void DdcrStation::go_offline() {
  // Clears protocol state through the same path as a crash (the queue
  // survives), then parks the station out of the network entirely.
  reset_for_rejoin();
  replica_->go_offline();
  ++tally_.churn_leaves;
  HRTDM_COUNT("ddcr.churn_leaves");
  trace_instant("offline-enter");
  HRTDM_FR_RECORD(recorder_, obs::FrKind::kChurnLeave,
                  replica_->heard_at().ns(), id_);
}

void DdcrStation::bring_online() {
  fork();
  HRTDM_EXPECT(replica_->mode() == Mode::kOffline,
               "bring_online() is only valid for an offline station");
  ++tally_.churn_joins;
  HRTDM_COUNT("ddcr.churn_joins");
  trace_instant("online-enter");
  HRTDM_FR_RECORD(recorder_, obs::FrKind::kChurnJoin,
                  replica_->heard_at().ns(), id_);
  reset_for_rejoin();
}

bool DdcrStation::note_desync() {
  fork();
  ++tally_.desyncs_detected;
  HRTDM_COUNT("ddcr.desyncs_detected");
  trace_instant("desync-detected");
  HRTDM_FR_RECORD(recorder_, obs::FrKind::kWatchdog,
                  replica_->heard_at().ns(), id_);
  if (!config_.supports_quiet_rejoin()) {
    // No sound quiet-period certificate to re-enter through; record the
    // detection but keep the legacy behaviour (process the observation).
    return false;
  }
  ++tally_.quarantines;
  HRTDM_COUNT("ddcr.quarantines");
  trace_instant("quarantine");
  reset_for_rejoin();
  return true;
}

void DdcrStation::prune_late(SimTime now) {
  std::int64_t dropped = 0;
  while (const auto head = queue_.head()) {
    if (head->absolute_deadline >= now) {
      break;
    }
    queue_.remove(head->uid);
    ++tally_.dropped_late;
    HRTDM_COUNT("ddcr.dropped_late");
    ++dropped;
  }
  if (dropped > 0) {
    HRTDM_FR_RECORD(recorder_, obs::FrKind::kDropLate, now.ns(), id_, dropped);
  }
}

std::optional<Frame> DdcrStation::poll_intent(SimTime now) {
  if (config_.drop_late_messages) {
    prune_late(now);
  }
  const DdcrReplica& r = *replica_;
  switch (r.mode()) {
    case Mode::kOffline:
      return std::nullopt;  // departed: not on the medium at all
    case Mode::kResync:
      return std::nullopt;  // listen-only until the quiet certificate
    case Mode::kCsmaCd: {
      const auto head = queue_.head();
      if (!head.has_value()) {
        return std::nullopt;
      }
      return make_frame(*head);
    }
    case Mode::kTimeSearch: {
      const auto head = queue_.head();
      if (!head.has_value()) {
        return std::nullopt;
      }
      const auto idx = effective_time_index(*head);
      if (!idx.has_value()) {
        return std::nullopt;
      }
      if (!r.time_engine().current().contains(*idx)) {
        return std::nullopt;
      }
      return make_frame(*head);
    }
    case Mode::kStaticSearch: {
      if (static_pos_ >= my_indices_.size()) {
        return std::nullopt;  // all nu_i indices used this STs
      }
      const auto candidate = sts_candidate();
      if (!candidate.has_value()) {
        return std::nullopt;
      }
      if (!r.static_engine().current().contains(my_indices_[static_pos_])) {
        return std::nullopt;
      }
      return make_frame(*candidate);
    }
  }
  return std::nullopt;
}

std::optional<Frame> DdcrStation::poll_burst(SimTime now,
                                             std::int64_t budget_bits) {
  // IEEE 802.3z packet bursting (section 5): having won the channel, chain
  // the next EDF-ranked messages without relinquishing, up to the budget.
  (void)now;
  if (!synced()) {
    // Crashed (or quarantined, or churned out) mid-burst: the station must
    // release the channel immediately.
    return std::nullopt;
  }
  const auto head = queue_.head();
  if (!head.has_value() || head->l_bits > budget_bits) {
    return std::nullopt;
  }
  return make_frame(*head);
}

void DdcrStation::hear_while_resyncing(const SlotObservation& obs) {
  if (obs.kind != net::SlotKind::kSilence) {
    resync_silences_ = 0;
    return;
  }
  if (++resync_silences_ >= config_.resync_silence_threshold()) {
    // Quiet certificate: no epoch can still be in progress, so every live
    // station is in CSMA-CD mode — joining it is consistent.
    ++tally_.rejoins;
    HRTDM_COUNT("ddcr.rejoins");
    trace_instant("rejoin", "quiet_slots", resync_silences_);
    HRTDM_FR_RECORD(recorder_, obs::FrKind::kRejoin, obs.slot_end.ns(), id_,
                    resync_silences_);
    replica_->rejoin();
  }
}

void DdcrStation::follow(DdcrReplica::Step step, const SlotObservation& obs,
                         bool mine) {
  switch (step) {
    case DdcrReplica::Step::kNone:
      return;
    case DdcrReplica::Step::kStsEntered:
      static_pos_ = 0;
      sts_retry_streak_ = 0;
      return;
    case DdcrReplica::Step::kStsProbed:
      sts_retry_streak_ = 0;
      if (obs.kind == net::SlotKind::kSuccess && mine) {
        // "Next index in the ranking is used to keep conducting m-ts."
        ++static_pos_;
      }
      return;
    case DdcrReplica::Step::kStsRetried:
      // The watchdog's third rule: repeated noise on one leaf has
      // vanishing probability, but a diverged replica contending out of
      // turn collides there every slot, so an unbounded streak means this
      // search can never complete.
      if (config_.enable_divergence_watchdog &&
          config_.sts_retry_desync_threshold > 0 &&
          ++sts_retry_streak_ == config_.sts_retry_desync_threshold) {
        note_desync();
      }
      return;
  }
}

void DdcrStation::observe(const SlotObservation& obs) {
  if (!obs.broadcast) {
    fork();  // heard by this replica alone, or not as the others
  }
  if (replica_->mode() == Mode::kOffline) {
    return;  // not listening: off the medium entirely
  }
  const bool mine = obs.frame.has_value() && obs.frame->source == id_;

  // Frame bookkeeping is mode-independent: every delivered frame of ours
  // leaves the queue.
  if (obs.kind == net::SlotKind::kSuccess && mine) {
    const bool removed = queue_.remove(obs.frame->msg_uid);
    HRTDM_ENSURE(removed, "delivered frame was not queued");
    ++tally_.transmitted;
    HRTDM_COUNT("ddcr.transmitted");
    if (obs.in_burst) {
      ++tally_.burst_transmitted;
      HRTDM_COUNT("ddcr.burst_transmitted");
    }
  }

  // A holder of the shared replica that an earlier holder already stepped
  // for this observation only follows up on its own part.
  if (shares_replica() && shared_->stepped_index_ == obs.index) {
    if (!obs.in_burst) {
      follow(shared_->last_step_, obs, mine);
    }
    return;
  }
  DdcrReplica& r = *replica_;
  r.set_heard_at(obs.slot_end);

  // Burst continuations never advance protocol search state: the channel
  // was not relinquished, so no new probe happened.
  DdcrReplica::Step step = DdcrReplica::Step::kNone;
  if (obs.in_burst) {
    r.hear_burst(obs.kind);
  } else if (r.mode() == Mode::kResync) {
    hear_while_resyncing(obs);
  } else if (r.impossible_success(obs) && note_desync()) {
    return;  // quarantined: the observation proves we are the outlier
  } else {
    // note_desync() may have forked this station onto a private copy.
    LiveSink sink(*this);
    step = replica_->feedback(obs.kind, obs.slot_start, obs.slot_end, sink);
  }
  if (shares_replica()) {
    shared_->stepped_index_ = obs.index;
    shared_->last_step_ = step;
  }
  follow(step, obs, mine);
}

}  // namespace hrtdm::core
