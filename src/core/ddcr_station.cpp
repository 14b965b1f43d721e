#include "core/ddcr_station.hpp"

#include <algorithm>

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

void DdcrStation::set_trace(obs::EventTracer* tracer, int channel_id) {
  tracer_ = tracer;
  trace_pid_ = channel_id;
  if (tracer_ != nullptr) {
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
  tracer_->instant(trace_pid_, id_ + 1, trace_now_.ns(), name, arg_names, a0,
                   a1, a2);
}

void DdcrStation::trace_span(SimTime start, SimTime end, const char* name,
                             const char* arg_names, std::int64_t a0,
                             std::int64_t a1, std::int64_t a2) {
  if (!tracing()) {
    return;
  }
  tracer_->complete(trace_pid_, id_ + 1, start.ns(), end.ns() - start.ns(),
                    name, arg_names, a0, a1, a2);
}

StationSnapshot DdcrStation::snapshot() const {
  StationSnapshot snap;
  snap.id = id_;
  snap.mode = mode_name(mode_);
  snap.synced = synced();
  snap.queue_depth = queue_.size();
  if (const auto head = queue_.head()) {
    snap.has_head = true;
    snap.head_uid = head->uid;
    snap.head_deadline_ns = head->absolute_deadline.ns();
  }
  snap.reft_ns = reft_.ns();
  snap.tts_active = time_engine_.active();
  if (snap.tts_active) {
    snap.tts_lo = time_engine_.current().lo;
    snap.tts_size = time_engine_.current().size;
  }
  snap.tts_resolved = time_engine_.resolved_up_to();
  snap.sts_active = static_engine_.active();
  if (snap.sts_active) {
    snap.sts_lo = static_engine_.current().lo;
    snap.sts_size = static_engine_.current().size;
  }
  snap.sts_leaf = sts_leaf_;
  snap.resync_silences = resync_silences_;
  return snap;
}

DdcrStation::DdcrStation(int id, const DdcrConfig& config)
    : id_(id),
      config_(config),
      time_engine_(config.m_time, config.F, config.infer_last_child),
      static_engine_(config.m_static, config.q, config.infer_last_child) {
  HRTDM_EXPECT(id >= 0, "station id must be non-negative");
  HRTDM_EXPECT(static_cast<std::size_t>(id) < config.static_indices.size(),
               "config.static_indices has no entry for this station id");
  my_indices_ = config.static_indices[static_cast<std::size_t>(id)];
  HRTDM_EXPECT(!my_indices_.empty(), "a source needs >= 1 static index");
  HRTDM_EXPECT(std::is_sorted(my_indices_.begin(), my_indices_.end()),
               "static indices must be ranked increasing");
  HRTDM_EXPECT(my_indices_.front() >= 0 && my_indices_.back() < config.q,
               "static indices must lie in [0, q)");
}

void DdcrStation::enqueue(const Message& msg) {
  HRTDM_EXPECT(msg.source == id_, "message mapped to the wrong source");
  queue_.push(msg);
}

std::int64_t DdcrStation::raw_time_index(SimTime absolute_deadline) const {
  const util::Duration slack = absolute_deadline - (reft_ + config_.alpha);
  return slack.floor_div(config_.class_width_c);
}

std::optional<std::int64_t> DdcrStation::effective_time_index(
    const Message& msg) const {
  // f(reft, I.msg) = max(floor((DM - (alpha + reft)) / c), f* + 1). The
  // engine's resolved_up_to() is exactly f* + 1: leaves below it were
  // searched already, and the max guarantees a late message is processed
  // as soon as possible rather than waiting for the next time tree.
  const std::int64_t raw = raw_time_index(msg.absolute_deadline);
  const std::int64_t floor_idx = time_engine_.resolved_up_to();
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
  if (raw_time_index(head->absolute_deadline) > sts_leaf_) {
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

void DdcrStation::reset_for_rejoin() {
  // Validates that the configuration makes the quiet-period certificate
  // sound (bounded in-epoch silence streaks).
  (void)config_.resync_silence_threshold();
  ++local_events_;
  trace_instant("resync-enter");
  HRTDM_FR_RECORD(recorder_, obs::FrKind::kQuarantine, trace_now_.ns(), id_);
  time_engine_.abort();
  static_engine_.abort();
  mode_ = Mode::kResync;
  sts_leaf_ = -1;
  static_pos_ = 0;
  tts_saw_transmission_ = false;
  post_tts_attempt_ = false;
  consecutive_empty_tts_ = 0;
  sts_retry_streak_ = 0;
  resync_silences_ = 0;
  reft_ = SimTime();
  carried_reft_ = SimTime();
}

void DdcrStation::go_offline() {
  // Clears protocol state through the same path as a crash (the queue
  // survives), then parks the station out of the network entirely.
  reset_for_rejoin();
  mode_ = Mode::kOffline;
  ++counters_.churn_leaves;
  HRTDM_COUNT("ddcr.churn_leaves");
  trace_instant("offline-enter");
  HRTDM_FR_RECORD(recorder_, obs::FrKind::kChurnLeave, trace_now_.ns(), id_);
}

void DdcrStation::bring_online() {
  HRTDM_EXPECT(mode_ == Mode::kOffline,
               "bring_online() is only valid for an offline station");
  ++counters_.churn_joins;
  HRTDM_COUNT("ddcr.churn_joins");
  trace_instant("online-enter");
  HRTDM_FR_RECORD(recorder_, obs::FrKind::kChurnJoin, trace_now_.ns(), id_);
  reset_for_rejoin();
}

bool DdcrStation::impossible_tts_success(const Frame& frame) const {
  // A synced sender transmits in TTs only when its effective index
  // max(f(reft, msg), f* + 1) lies in the probed interval; both inputs are
  // replicated, so an out-of-interval index proves local divergence.
  const std::int64_t idx = std::max(raw_time_index(frame.absolute_deadline),
                                    time_engine_.resolved_up_to());
  return idx > config_.F - 1 || !time_engine_.current().contains(idx);
}

bool DdcrStation::impossible_sts_success(const Frame& frame) const {
  if (frame.source < 0 ||
      frame.source >= static_cast<int>(config_.static_indices.size())) {
    return false;  // partition unknown to this station: cannot judge
  }
  const auto& indices =
      config_.static_indices[static_cast<std::size_t>(frame.source)];
  if (indices.empty()) {
    return false;
  }
  const auto probed = static_engine_.current();
  return std::none_of(indices.begin(), indices.end(),
                      [&probed](std::int64_t leaf) {
                        return probed.contains(leaf);
                      });
}

bool DdcrStation::note_desync() {
  ++local_events_;
  ++counters_.desyncs_detected;
  HRTDM_COUNT("ddcr.desyncs_detected");
  trace_instant("desync-detected");
  HRTDM_FR_RECORD(recorder_, obs::FrKind::kWatchdog, trace_now_.ns(), id_);
  if (!config_.supports_quiet_rejoin()) {
    // No sound quiet-period certificate to re-enter through; record the
    // detection but keep the legacy behaviour (process the observation).
    return false;
  }
  ++counters_.quarantines;
  HRTDM_COUNT("ddcr.quarantines");
  trace_instant("quarantine");
  reset_for_rejoin();
  return true;
}

void DdcrStation::prune_late(SimTime now) {
  if (!config_.drop_late_messages) {
    return;
  }
  std::int64_t dropped = 0;
  while (const auto head = queue_.head()) {
    if (head->absolute_deadline >= now) {
      break;
    }
    queue_.remove(head->uid);
    ++counters_.dropped_late;
    HRTDM_COUNT("ddcr.dropped_late");
    ++dropped;
  }
  if (dropped > 0) {
    HRTDM_FR_RECORD(recorder_, obs::FrKind::kDropLate, now.ns(), id_, dropped);
  }
}

std::optional<Frame> DdcrStation::poll_intent(SimTime now) {
  prune_late(now);
  switch (mode_) {
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
      if (!time_engine_.current().contains(*idx)) {
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
      if (!static_engine_.current().contains(my_indices_[static_pos_])) {
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
  if (mode_ == Mode::kResync || mode_ == Mode::kOffline) {
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

void DdcrStation::start_epoch(SimTime now) {
  ++counters_.epochs;
  HRTDM_COUNT("ddcr.epochs");
  trace_instant("epoch-start", "epoch", counters_.epochs);
  // Replicated: every synced station opens the epoch at this same slot
  // boundary — the recorder keeps the first emitter's record only.
  HRTDM_FR_REPLICATED(recorder_, obs::FrKind::kEpochStart, now.ns(), id_,
                      std::max(now, carried_reft_).ns());
  // "reft is always set to local physical time whenever CSMA/DDCR is
  // started" — except that compression progress carried out of an epoch
  // the max_empty_tts cap closed must not be lost (every station carries
  // the same value, so consistency is preserved).
  reft_ = std::max(now, carried_reft_);
  post_tts_attempt_ = false;
  consecutive_empty_tts_ = 0;
  start_tts();
}

void DdcrStation::start_tts() {
  ++counters_.tts_runs;
  HRTDM_COUNT("ddcr.tts_runs");
  trace_instant("tts-start", "run,resolved", counters_.tts_runs,
                time_engine_.resolved_up_to());
  tts_saw_transmission_ = false;
  time_engine_.begin();  // root already probed by the triggering collision
  mode_ = Mode::kTimeSearch;
}

void DdcrStation::finish_tts(SimTime now) {
  (void)now;  // only consumed by the (compile-out-able) recorder hooks
  // Boolean `out`: true iff at least one message was transmitted during
  // this time tree search (including inside nested static searches).
  const bool out = tts_saw_transmission_;
  HRTDM_OBSERVE("ddcr.tts_search_slots", time_engine_.search_slots());
  trace_instant("tts-end", "out,search_slots", out ? 1 : 0,
                time_engine_.search_slots());
  if (out) {
    // "attempt transmit msg* à la CSMA-CD": the next contention slot is a
    // plain CSMA-CD attempt; a collision there starts a fresh epoch.
    // The compressed-time carry is cleared: transmissions succeeded, so
    // the horizon crawl it was preserving has ended. (This also lets a
    // crash-recovered station — whose carry is necessarily empty —
    // converge to the live replicas' state.)
    consecutive_empty_tts_ = 0;
    carried_reft_ = SimTime();
    mode_ = Mode::kCsmaCd;
    post_tts_attempt_ = (config_.epoch_mode == EpochMode::kPerpetual);
    trace_instant("epoch-end", "epoch", counters_.epochs);
    HRTDM_FR_REPLICATED(recorder_, obs::FrKind::kEpochEnd, now.ns(), id_,
                        reft_.ns());
    return;
  }
  // out = false: pending messages sit beyond the horizon. Compressed time
  // shifts reft forward to pull them in; with theta = 0 the epoch closes
  // and physical time does the pulling on the next collision.
  ++consecutive_empty_tts_;
  if (config_.theta_factor > 0.0) {
    ++counters_.compressions;
    HRTDM_COUNT("ddcr.compressions");
    reft_ += config_.theta();
    if (config_.epoch_mode == EpochMode::kCsmaCdFallback &&
        config_.max_empty_tts > 0 &&
        consecutive_empty_tts_ >= config_.max_empty_tts) {
      // The cap closes the epoch but the compressed reference time is
      // carried into the next one, so compression still accumulates.
      carried_reft_ = reft_;
      consecutive_empty_tts_ = 0;
      mode_ = Mode::kCsmaCd;
      trace_instant("epoch-end", "epoch", counters_.epochs);
      HRTDM_FR_REPLICATED(recorder_, obs::FrKind::kEpochEnd, now.ns(), id_,
                          reft_.ns());
      return;
    }
    start_tts();
    return;
  }
  consecutive_empty_tts_ = 0;
  mode_ = Mode::kCsmaCd;
  post_tts_attempt_ = (config_.epoch_mode == EpochMode::kPerpetual);
  trace_instant("epoch-end", "epoch", counters_.epochs);
  HRTDM_FR_REPLICATED(recorder_, obs::FrKind::kEpochEnd, now.ns(), id_,
                      reft_.ns());
}

void DdcrStation::finish_sts(SimTime now) {
  // "Variable reft is updated by STs, upon completion."
  HRTDM_OBSERVE("ddcr.sts_search_slots", static_engine_.search_slots());
  trace_instant("sts-end", "leaf,search_slots", sts_leaf_,
                static_engine_.search_slots());
  reft_ = now;
  sts_leaf_ = -1;
  mode_ = Mode::kTimeSearch;
  if (time_engine_.done()) {
    finish_tts(now);
  }
}

void DdcrStation::observe(const SlotObservation& obs) {
  if (!obs.broadcast) {
    ++local_events_;  // heard by this replica alone, or not as the others
  }
  if (mode_ == Mode::kOffline) {
    return;  // not listening: off the medium entirely
  }
  const bool mine = obs.frame.has_value() && obs.frame->source == id_;
  const SimTime now = obs.slot_end;
  trace_now_ = now;

  // Frame bookkeeping is mode-independent: every delivered frame of ours
  // leaves the queue.
  if (obs.kind == net::SlotKind::kSuccess && mine) {
    const bool removed = queue_.remove(obs.frame->msg_uid);
    HRTDM_ENSURE(removed, "delivered frame was not queued");
    ++counters_.transmitted;
    HRTDM_COUNT("ddcr.transmitted");
    if (obs.in_burst) {
      ++counters_.burst_transmitted;
      HRTDM_COUNT("ddcr.burst_transmitted");
    }
  }

  // Burst continuations never advance protocol search state: the channel
  // was not relinquished, so no new probe happened.
  if (obs.in_burst) {
    if (mode_ != Mode::kCsmaCd) {
      tts_saw_transmission_ = tts_saw_transmission_ ||
                              obs.kind == net::SlotKind::kSuccess;
    }
    return;
  }

  switch (mode_) {
    case Mode::kOffline:
      return;  // unreachable (early return above); keeps the switch total
    case Mode::kResync: {
      if (obs.kind == net::SlotKind::kSilence) {
        if (++resync_silences_ >= config_.resync_silence_threshold()) {
          // Quiet certificate: no epoch can still be in progress, so every
          // live station is in CSMA-CD mode — joining it is consistent.
          ++counters_.rejoins;
          HRTDM_COUNT("ddcr.rejoins");
          trace_instant("rejoin", "quiet_slots", resync_silences_);
          HRTDM_FR_RECORD(recorder_, obs::FrKind::kRejoin, now.ns(), id_,
                          resync_silences_);
          mode_ = Mode::kCsmaCd;
        }
      } else {
        resync_silences_ = 0;
      }
      return;
    }
    case Mode::kCsmaCd: {
      if (obs.kind == net::SlotKind::kCollision) {
        // Every source initiates CSMA/DDCR, message or not.
        start_epoch(now);
        return;
      }
      // Silence, successes and arbitration wins keep CSMA-CD going; in
      // perpetual mode the post-TTs attempt slot has now resolved, so the
      // next time tree search starts immediately.
      if (post_tts_attempt_) {
        post_tts_attempt_ = false;
        start_tts();
      }
      return;
    }
    case Mode::kTimeSearch: {
      if (config_.enable_divergence_watchdog &&
          obs.kind == net::SlotKind::kSuccess && !obs.arbitration &&
          obs.frame.has_value() && impossible_tts_success(*obs.frame) &&
          note_desync()) {
        return;  // quarantined: the observation proves we are the outlier
      }
      ++counters_.search_slots_time;
      if (obs.kind == net::SlotKind::kSuccess) {
        --counters_.search_slots_time;  // successes are not search slots
        tts_saw_transmission_ = true;
        // "whenever a message is successfully transmitted during a time
        //  tree search": reft advances to local physical time.
        reft_ = now;
      }
      const auto fb =
          obs.kind == net::SlotKind::kSilence
              ? TreeSearchEngine::Feedback::kSilence
              : obs.kind == net::SlotKind::kSuccess
                    ? TreeSearchEngine::Feedback::kSuccess
                    : TreeSearchEngine::Feedback::kCollision;
      const auto probed_time = time_engine_.current();
      const auto leaf_hint = obs.kind == net::SlotKind::kCollision &&
                                     probed_time.size == 1
                                 ? probed_time.lo
                                 : -1;
      const auto result = time_engine_.feedback(fb);
      // Descent step span: the probed deadline-class interval laid over the
      // slot it consumed, on this station's Perfetto track.
      trace_span(obs.slot_start, obs.slot_end, "tts-probe", "lo,size,resolved",
                 probed_time.lo, probed_time.size,
                 time_engine_.resolved_up_to());
      // Replicated poll result: one record per search slot, first synced
      // emitter wins.
      HRTDM_FR_REPLICATED(recorder_, obs::FrKind::kTtsProbe, now.ns(), id_,
                          probed_time.lo,
                          static_cast<std::int64_t>(
                              fb == TreeSearchEngine::Feedback::kSilence
                                  ? obs::kOutcomeSilence
                                  : fb == TreeSearchEngine::Feedback::kSuccess
                                        ? obs::kOutcomeSuccess
                                        : obs::kOutcomeCollision));
      if (result == TreeSearchEngine::StepResult::kLeafCollision) {
        // s > 1 messages share one deadline class: run the static tree
        // tie-break. Its root probe was this very collision.
        HRTDM_ENSURE(leaf_hint >= 0, "leaf collision without a leaf");
        sts_leaf_ = leaf_hint;
        static_pos_ = 0;
        sts_retry_streak_ = 0;
        ++counters_.sts_runs;
        HRTDM_COUNT("ddcr.sts_runs");
        trace_instant("sts-start", "leaf", sts_leaf_);
        static_engine_.begin();
        mode_ = Mode::kStaticSearch;
        return;
      }
      if (time_engine_.done()) {
        finish_tts(now);
      }
      return;
    }
    case Mode::kStaticSearch: {
      if (config_.enable_divergence_watchdog &&
          obs.kind == net::SlotKind::kSuccess && !obs.arbitration &&
          obs.frame.has_value() && impossible_sts_success(*obs.frame) &&
          note_desync()) {
        return;  // quarantined: the observation proves we are the outlier
      }
      ++counters_.search_slots_static;
      TreeSearchEngine::Feedback fb;
      switch (obs.kind) {
        case net::SlotKind::kSilence:
          fb = TreeSearchEngine::Feedback::kSilence;
          break;
        case net::SlotKind::kSuccess:
          --counters_.search_slots_static;
          fb = TreeSearchEngine::Feedback::kSuccess;
          tts_saw_transmission_ = true;
          if (mine) {
            // "Next index in the ranking is used to keep conducting m-ts."
            ++static_pos_;
          }
          break;
        case net::SlotKind::kCollision:
          fb = TreeSearchEngine::Feedback::kCollision;
          break;
        default:
          HRTDM_ENSURE(false, "unreachable slot kind");
          return;
      }
      const auto probed = static_engine_.current();
      const auto result = static_engine_.feedback(fb);
      trace_span(obs.slot_start, obs.slot_end, "sts-probe", "lo,size,leaf",
                 probed.lo, probed.size, sts_leaf_);
      HRTDM_FR_REPLICATED(recorder_, obs::FrKind::kStsProbe, now.ns(), id_,
                          probed.lo,
                          static_cast<std::int64_t>(
                              fb == TreeSearchEngine::Feedback::kSilence
                                  ? obs::kOutcomeSilence
                                  : fb == TreeSearchEngine::Feedback::kSuccess
                                        ? obs::kOutcomeSuccess
                                        : obs::kOutcomeCollision));
      if (result == TreeSearchEngine::StepResult::kLeafCollision) {
        // Static indices are unique per source, so a genuine tie is
        // impossible — this is a lone transmission destroyed by channel
        // noise. The leaf cannot be split further; probe it again. A
        // *streak* of such retries is the watchdog's third rule: repeated
        // noise has vanishing probability, but a diverged replica
        // contending out of turn collides here every slot, so an unbounded
        // streak means this search can never complete.
        ++counters_.static_leaf_retries;
        HRTDM_COUNT("ddcr.static_leaf_retries");
        if (config_.enable_divergence_watchdog &&
            config_.sts_retry_desync_threshold > 0 &&
            ++sts_retry_streak_ == config_.sts_retry_desync_threshold &&
            note_desync()) {
          return;  // quarantined: the retry loop proves divergence
        }
        static_engine_.requeue(probed);
        return;
      }
      sts_retry_streak_ = 0;
      if (static_engine_.done()) {
        finish_sts(now);
      }
      return;
    }
  }
}

std::uint64_t DdcrStation::protocol_digest() const {
  util::SplitMix64 seed_mix(0xDDC12ULL);
  std::uint64_t h = seed_mix.next();
  auto mix = [&h](std::uint64_t v) {
    util::SplitMix64 m(h ^ v);
    h = m.next();
  };
  mix(static_cast<std::uint64_t>(mode_));
  mix(static_cast<std::uint64_t>(reft_.ns()));
  mix(static_cast<std::uint64_t>(carried_reft_.ns()));
  mix(static_cast<std::uint64_t>(consecutive_empty_tts_));
  mix(static_cast<std::uint64_t>(sts_leaf_));
  mix(static_cast<std::uint64_t>(tts_saw_transmission_));
  mix(static_cast<std::uint64_t>(post_tts_attempt_));
  mix(time_engine_.digest());
  mix(static_engine_.digest());
  return h;
}

}  // namespace hrtdm::core
