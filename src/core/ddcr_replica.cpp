#include "core/ddcr_replica.hpp"

#include <algorithm>

#include "util/check.hpp"
#include "util/rng.hpp"

namespace hrtdm::core {

namespace {

std::int64_t fr_outcome(TreeSearchEngine::Feedback fb) {
  return fb == TreeSearchEngine::Feedback::kSilence   ? obs::kOutcomeSilence
         : fb == TreeSearchEngine::Feedback::kSuccess ? obs::kOutcomeSuccess
                                                      : obs::kOutcomeCollision;
}

TreeSearchEngine::Feedback engine_feedback(net::SlotKind kind) {
  return kind == net::SlotKind::kSilence   ? TreeSearchEngine::Feedback::kSilence
         : kind == net::SlotKind::kSuccess ? TreeSearchEngine::Feedback::kSuccess
                                           : TreeSearchEngine::Feedback::kCollision;
}

}  // namespace

DdcrReplica::DdcrReplica(const DdcrConfig& config)
    : config_(&config),
      time_engine_(config.m_time, config.F, config.infer_last_child),
      static_engine_(config.m_static, config.q, config.infer_last_child) {
  // Replicas report their searches' registry amounts through their sink.
  time_engine_.set_registry_muted(true);
  static_engine_.set_registry_muted(true);
}

std::int64_t DdcrReplica::raw_time_index(SimTime absolute_deadline) const {
  const util::Duration slack = absolute_deadline - (reft_ + config_->alpha);
  return slack.floor_div(config_->class_width_c);
}

void DdcrReplica::reset(Mode mode) {
  time_engine_.abort();
  static_engine_.abort();
  mode_ = mode;
  sts_leaf_ = -1;
  tts_saw_transmission_ = false;
  post_tts_attempt_ = false;
  consecutive_empty_tts_ = 0;
  reft_ = SimTime();
  carried_reft_ = SimTime();
}

bool DdcrReplica::impossible_success(const net::SlotObservation& obs) const {
  if (!config_->enable_divergence_watchdog ||
      obs.kind != net::SlotKind::kSuccess || obs.arbitration ||
      !obs.frame.has_value()) {
    return false;
  }
  const net::Frame& frame = *obs.frame;
  if (mode_ == Mode::kTimeSearch) {
    // A synced sender transmits in TTs only when its effective index
    // max(f(reft, msg), f* + 1) lies in the probed interval; both inputs
    // are replicated, so an out-of-interval index proves local divergence.
    const std::int64_t idx = std::max(raw_time_index(frame.absolute_deadline),
                                      time_engine_.resolved_up_to());
    return idx > config_->F - 1 || !time_engine_.current().contains(idx);
  }
  if (mode_ == Mode::kStaticSearch) {
    // The sender must own a static index in the probed interval (judged
    // only when config.static_indices covers the sender).
    if (frame.source < 0 ||
        frame.source >= static_cast<int>(config_->static_indices.size())) {
      return false;  // partition unknown to this station: cannot judge
    }
    const auto& indices =
        config_->static_indices[static_cast<std::size_t>(frame.source)];
    const auto probed = static_engine_.current();
    return !indices.empty() &&
           std::none_of(indices.begin(), indices.end(),
                        [&probed](std::int64_t leaf) {
                          return probed.contains(leaf);
                        });
  }
  return false;
}

void DdcrReplica::begin_search(TreeSearchEngine& engine, ReplicaSink& sink) {
  // The registry totals TreeSearchEngine::begin() would flush for the
  // previous search — once per search, not per feedback slot.
  sink.count(ReplicaSink::Count::kTreeSearches, 1);
  sink.count(ReplicaSink::Count::kTreeSilence, engine.silence_slots());
  sink.count(ReplicaSink::Count::kTreeCollision, engine.collision_slots());
  sink.count(ReplicaSink::Count::kTreeInferred, engine.inferred_skips());
  engine.begin();
}

void DdcrReplica::start_epoch(SimTime now, ReplicaSink& sink) {
  ++counters_.epochs;
  sink.count(ReplicaSink::Count::kEpochs, 1);
  sink.instant(now, "epoch-start", "epoch", counters_.epochs, 0, 0,
               ReplicaSink::Arg::kEpochs);
  // Replicated: every synced station opens the epoch at this same slot
  // boundary — the recorder keeps the first emitter's record only.
  sink.replicated(obs::FrKind::kEpochStart, now,
                  std::max(now, carried_reft_).ns(), 0);
  // "reft is always set to local physical time whenever CSMA/DDCR is
  // started" — except that compression progress carried out of an epoch
  // the max_empty_tts cap closed must not be lost (every station carries
  // the same value, so consistency is preserved).
  reft_ = std::max(now, carried_reft_);
  post_tts_attempt_ = false;
  consecutive_empty_tts_ = 0;
  start_tts(now, sink);
}

void DdcrReplica::start_tts(SimTime now, ReplicaSink& sink) {
  ++counters_.tts_runs;
  sink.count(ReplicaSink::Count::kTtsRuns, 1);
  sink.instant(now, "tts-start", "run,resolved", counters_.tts_runs,
               time_engine_.resolved_up_to(), 0, ReplicaSink::Arg::kTtsRuns);
  tts_saw_transmission_ = false;
  begin_search(time_engine_, sink);  // root already probed by the collision
  mode_ = Mode::kTimeSearch;
}

void DdcrReplica::finish_tts(SimTime now, ReplicaSink& sink) {
  // Boolean `out`: true iff at least one message was transmitted during
  // this time tree search (including inside nested static searches).
  const bool out = tts_saw_transmission_;
  sink.observe(ReplicaSink::Hist::kTtsSearchSlots, time_engine_.search_slots());
  sink.instant(now, "tts-end", "out,search_slots", out ? 1 : 0,
               time_engine_.search_slots(), 0, ReplicaSink::Arg::kNone);
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
    post_tts_attempt_ = (config_->epoch_mode == EpochMode::kPerpetual);
    sink.instant(now, "epoch-end", "epoch", counters_.epochs, 0, 0,
                 ReplicaSink::Arg::kEpochs);
    sink.replicated(obs::FrKind::kEpochEnd, now, reft_.ns(), 0);
    return;
  }
  // out = false: pending messages sit beyond the horizon. Compressed time
  // shifts reft forward to pull them in; with theta = 0 the epoch closes
  // and physical time does the pulling on the next collision.
  ++consecutive_empty_tts_;
  if (config_->theta_factor > 0.0) {
    ++counters_.compressions;
    sink.count(ReplicaSink::Count::kCompressions, 1);
    reft_ += config_->theta();
    if (config_->epoch_mode == EpochMode::kCsmaCdFallback &&
        config_->max_empty_tts > 0 &&
        consecutive_empty_tts_ >= config_->max_empty_tts) {
      // The cap closes the epoch but the compressed reference time is
      // carried into the next one, so compression still accumulates.
      carried_reft_ = reft_;
      consecutive_empty_tts_ = 0;
      mode_ = Mode::kCsmaCd;
      sink.instant(now, "epoch-end", "epoch", counters_.epochs, 0, 0,
                   ReplicaSink::Arg::kEpochs);
      sink.replicated(obs::FrKind::kEpochEnd, now, reft_.ns(), 0);
      return;
    }
    start_tts(now, sink);
    return;
  }
  consecutive_empty_tts_ = 0;
  mode_ = Mode::kCsmaCd;
  post_tts_attempt_ = (config_->epoch_mode == EpochMode::kPerpetual);
  sink.instant(now, "epoch-end", "epoch", counters_.epochs, 0, 0,
               ReplicaSink::Arg::kEpochs);
  sink.replicated(obs::FrKind::kEpochEnd, now, reft_.ns(), 0);
}

void DdcrReplica::finish_sts(SimTime now, ReplicaSink& sink) {
  // "Variable reft is updated by STs, upon completion."
  sink.observe(ReplicaSink::Hist::kStsSearchSlots,
               static_engine_.search_slots());
  sink.instant(now, "sts-end", "leaf,search_slots", sts_leaf_,
               static_engine_.search_slots(), 0, ReplicaSink::Arg::kNone);
  reft_ = now;
  sts_leaf_ = -1;
  mode_ = Mode::kTimeSearch;
  if (time_engine_.done()) {
    finish_tts(now, sink);
  }
}

DdcrReplica::Step DdcrReplica::feedback(net::SlotKind kind, SimTime start,
                                        SimTime end, ReplicaSink& sink) {
  switch (mode_) {
    case Mode::kResync:
    case Mode::kOffline:
      HRTDM_ENSURE(false, "a resyncing or offline replica takes no feedback");
      return Step::kNone;
    case Mode::kCsmaCd: {
      if (kind == net::SlotKind::kCollision) {
        // Every source initiates CSMA/DDCR, message or not.
        start_epoch(end, sink);
        return Step::kNone;
      }
      // Silence, successes and arbitration wins keep CSMA-CD going; in
      // perpetual mode the post-TTs attempt slot has now resolved, so the
      // next time tree search starts immediately.
      if (post_tts_attempt_) {
        post_tts_attempt_ = false;
        start_tts(end, sink);
      }
      return Step::kNone;
    }
    case Mode::kTimeSearch: {
      const auto fb = engine_feedback(kind);
      if (kind == net::SlotKind::kSuccess) {
        // Successes are not search slots. "Whenever a message is
        // successfully transmitted during a time tree search": reft
        // advances to local physical time.
        tts_saw_transmission_ = true;
        reft_ = end;
      } else {
        ++counters_.search_slots_time;
      }
      const auto probed = time_engine_.current();
      const auto result = time_engine_.feedback(fb);
      // Descent step span: the probed deadline-class interval laid over the
      // slot it consumed, on each holder's Perfetto track.
      if (sink.tracing()) {
        sink.span(start, end, "tts-probe", "lo,size,resolved", probed.lo,
                  probed.size, time_engine_.resolved_up_to());
      }
      // Replicated poll result: one record per search slot.
      if (sink.recording()) {
        sink.replicated(obs::FrKind::kTtsProbe, end, probed.lo,
                        fr_outcome(fb));
      }
      if (result == TreeSearchEngine::StepResult::kLeafCollision) {
        // s > 1 messages share one deadline class: run the static tree
        // tie-break. Its root probe was this very collision.
        HRTDM_ENSURE(probed.size == 1, "leaf collision without a leaf");
        sts_leaf_ = probed.lo;
        ++counters_.sts_runs;
        sink.count(ReplicaSink::Count::kStsRuns, 1);
        sink.instant(end, "sts-start", "leaf", sts_leaf_, 0, 0,
                     ReplicaSink::Arg::kNone);
        begin_search(static_engine_, sink);
        mode_ = Mode::kStaticSearch;
        return Step::kStsEntered;
      }
      if (time_engine_.done()) {
        finish_tts(end, sink);
      }
      return Step::kNone;
    }
    case Mode::kStaticSearch: {
      const auto fb = engine_feedback(kind);
      if (kind == net::SlotKind::kSuccess) {
        tts_saw_transmission_ = true;
      } else {
        ++counters_.search_slots_static;
      }
      const auto probed = static_engine_.current();
      const auto result = static_engine_.feedback(fb);
      if (sink.tracing()) {
        sink.span(start, end, "sts-probe", "lo,size,leaf", probed.lo,
                  probed.size, sts_leaf_);
      }
      if (sink.recording()) {
        sink.replicated(obs::FrKind::kStsProbe, end, probed.lo,
                        fr_outcome(fb));
      }
      if (result == TreeSearchEngine::StepResult::kLeafCollision) {
        // Static indices are unique per source, so a genuine tie is
        // impossible — this is a lone transmission destroyed by channel
        // noise. The leaf cannot be split further; probe it again (each
        // holder counts the retry streak, the watchdog's third rule).
        ++counters_.static_leaf_retries;
        sink.count(ReplicaSink::Count::kStaticLeafRetries, 1);
        static_engine_.requeue(probed);
        return Step::kStsRetried;
      }
      if (static_engine_.done()) {
        finish_sts(end, sink);
      }
      return Step::kStsProbed;
    }
  }
  return Step::kNone;
}

bool DdcrReplica::same_pending_reports(const DdcrReplica& other) const {
  const auto same = [](const TreeSearchEngine& a, const TreeSearchEngine& b) {
    return a.silence_slots() == b.silence_slots() &&
           a.collision_slots() == b.collision_slots();
  };
  return same(time_engine_, other.time_engine_) &&
         same(static_engine_, other.static_engine_);
}

std::uint64_t DdcrReplica::digest() const {
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
