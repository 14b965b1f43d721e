#include "core/epoch_compiler.hpp"

#include <algorithm>
#include <cstdlib>
#include <cstring>

#include "obs/registry.hpp"
#include "util/check.hpp"

namespace hrtdm::core {

bool epoch_compiler_enabled(EpochCompilerMode mode) {
  switch (mode) {
    case EpochCompilerMode::kOn:
      return true;
    case EpochCompilerMode::kOff:
      return false;
    case EpochCompilerMode::kAuto:
      break;
  }
  const char* value = std::getenv("HRTDM_EPOCH_COMPILER");
  if (value == nullptr) {
    return true;
  }
  return std::strcmp(value, "off") != 0 && std::strcmp(value, "0") != 0 &&
         std::strcmp(value, "false") != 0;
}

EpochCompiler::EpochCompiler(net::BroadcastChannel& channel,
                             std::vector<DdcrStation*> stations)
    : channel_(channel), stations_(std::move(stations)) {
  HRTDM_EXPECT(!stations_.empty(), "epoch compiler needs >= 1 station");
}

void EpochCompiler::push_instant(SimTime ts, const char* name,
                                 const char* args, std::int64_t a0,
                                 std::int64_t a1, std::int64_t a2,
                                 ArgBase base) {
  if (!trace_on_) {
    return;
  }
  TraceEvent ev;
  ev.is_span = false;
  ev.ts = ts;
  ev.name = name;
  ev.args = args;
  ev.a0 = a0;
  ev.a1 = a1;
  ev.a2 = a2;
  ev.base = base;
  trace_.push_back(ev);
}

void EpochCompiler::push_span(SimTime ts, SimTime end, const char* name,
                              const char* args, std::int64_t a0,
                              std::int64_t a1, std::int64_t a2) {
  if (!trace_on_) {
    return;
  }
  TraceEvent ev;
  ev.is_span = true;
  ev.ts = ts;
  ev.end = end;
  ev.name = name;
  ev.args = args;
  ev.a0 = a0;
  ev.a1 = a1;
  ev.a2 = a2;
  trace_.push_back(ev);
}

void EpochCompiler::note_tree_begin(const TreeSearchEngine& engine) {
  // Mirror of the registry flush TreeSearchEngine::begin() performs; the
  // replica is muted, so the amounts are buffered here and emitted (once
  // per synced station) at hand-off.
  ++tree_begins_;
  tree_silence_ += engine.silence_slots();
  tree_collision_ += engine.collision_slots();
  tree_inferred_ += engine.inferred_skips();
}

void EpochCompiler::replay_start_tts(SimTime now) {
  // Mirrors DdcrStation::start_tts().
  ++d_tts_runs_;
  push_instant(now, "tts-start", "run,resolved", d_tts_runs_,
               time_engine_->resolved_up_to(), 0, ArgBase::kTtsRuns);
  tts_saw_ = false;
  note_tree_begin(*time_engine_);
  time_engine_->begin();
  mode_ = Mode::kTimeSearch;
}

void EpochCompiler::replay_finish_tts(SimTime now) {
  // Mirrors DdcrStation::finish_tts().
  const bool out = tts_saw_;
  tts_slot_obs_.push_back(time_engine_->search_slots());
  push_instant(now, "tts-end", "out,search_slots", out ? 1 : 0,
               time_engine_->search_slots());
  if (out) {
    consecutive_empty_tts_ = 0;
    carried_reft_ = SimTime();
    mode_ = Mode::kCsmaCd;
    post_tts_attempt_ = cfg_->epoch_mode == EpochMode::kPerpetual;
    push_instant(now, "epoch-end", "epoch", 0, 0, 0, ArgBase::kEpochs);
    return;
  }
  ++consecutive_empty_tts_;
  if (cfg_->theta_factor > 0.0) {
    ++d_compressions_;
    reft_ += cfg_->theta();
    ++reft_gen_;
    tts_index_valid_ = false;
    sts_index_valid_ = false;
    if (cfg_->epoch_mode == EpochMode::kCsmaCdFallback &&
        cfg_->max_empty_tts > 0 &&
        consecutive_empty_tts_ >= cfg_->max_empty_tts) {
      carried_reft_ = reft_;
      consecutive_empty_tts_ = 0;
      mode_ = Mode::kCsmaCd;
      push_instant(now, "epoch-end", "epoch", 0, 0, 0, ArgBase::kEpochs);
      return;
    }
    replay_start_tts(now);
    return;
  }
  consecutive_empty_tts_ = 0;
  mode_ = Mode::kCsmaCd;
  post_tts_attempt_ = cfg_->epoch_mode == EpochMode::kPerpetual;
  push_instant(now, "epoch-end", "epoch", 0, 0, 0, ArgBase::kEpochs);
}

void EpochCompiler::replay_finish_sts(SimTime now) {
  // Mirrors DdcrStation::finish_sts().
  sts_slot_obs_.push_back(static_engine_->search_slots());
  push_instant(now, "sts-end", "leaf,search_slots", sts_leaf_,
               static_engine_->search_slots());
  reft_ = now;
  ++reft_gen_;
  tts_index_valid_ = false;
  sts_index_valid_ = false;
  sts_leaf_ = -1;
  mode_ = Mode::kTimeSearch;
  if (time_engine_->done()) {
    replay_finish_tts(now);
  }
}

void EpochCompiler::rebuild_tts_index() {
  const std::size_t buckets = static_cast<std::size_t>(cfg_->F) + 1;
  tts_prefix_.assign(buckets, 0);
  const SimTime ref_time = reft_ + cfg_->alpha;
  for (PerStation& ps : per_) {
    if (ps.it == ps.s->queue_.end()) {
      continue;
    }
    if (ps.raw_gen != reft_gen_) {
      ps.raw = (ps.it->absolute_deadline - ref_time)
                   .floor_div(cfg_->class_width_c);
      ps.raw_gen = reft_gen_;
    }
    // Bucket F collects raw >= F heads: idx = max(raw, floor) >= F is out
    // of the class range whatever the frontier does. Negative raws clamp
    // to 0, which is exact because the frontier never goes below 0.
    const std::int64_t b =
        std::clamp<std::int64_t>(ps.raw, 0, static_cast<std::int64_t>(cfg_->F));
    ++tts_prefix_[static_cast<std::size_t>(b)];
  }
  for (std::size_t b = 1; b < buckets; ++b) {
    tts_prefix_[b] += tts_prefix_[b - 1];
  }
  tts_index_valid_ = true;
}

void EpochCompiler::rebuild_sts_index() {
  const std::size_t q = static_cast<std::size_t>(cfg_->q);
  sts_prefix_.assign(q, 0);
  sts_owner_.assign(q, nullptr);
  const SimTime ref_time = reft_ + cfg_->alpha;
  for (PerStation& ps : per_) {
    if (ps.static_pos >= ps.s->my_indices_.size()) {
      continue;
    }
    if (ps.it == ps.s->queue_.end()) {
      continue;
    }
    if (ps.raw_gen != reft_gen_) {
      ps.raw = (ps.it->absolute_deadline - ref_time)
                   .floor_div(cfg_->class_width_c);
      ps.raw_gen = reft_gen_;
    }
    if (ps.raw > sts_leaf_) {
      continue;  // due-or-late rule: not eligible for this tie-break
    }
    const auto key =
        static_cast<std::size_t>(ps.s->my_indices_[ps.static_pos]);
    ++sts_prefix_[key];
    sts_owner_[key] = &ps;
  }
  for (std::size_t b = 1; b < q; ++b) {
    sts_prefix_[b] += sts_prefix_[b - 1];
  }
  sts_index_valid_ = true;
}

bool EpochCompiler::bail(obs::FrBail reason, [[maybe_unused]] SimTime now) {
  ++bailouts_[static_cast<std::size_t>(reason)];
  switch (reason) {
    case obs::FrBail::kHorizon:
      HRTDM_COUNT("ddcr.compile_bailout.horizon");
      break;
    case obs::FrBail::kFault:
      HRTDM_COUNT("ddcr.compile_bailout.fault");
      break;
    case obs::FrBail::kResync:
      HRTDM_COUNT("ddcr.compile_bailout.resync");
      break;
    case obs::FrBail::kNoise:
      HRTDM_COUNT("ddcr.compile_bailout.noise");
      break;
    case obs::FrBail::kCap:
      HRTDM_COUNT("ddcr.compile_bailout.cap");
      break;
    case obs::FrBail::kDesync:
      HRTDM_COUNT("ddcr.compile_bailout.desync");
      break;
    case obs::FrBail::kCount_:
      HRTDM_EXPECT(false, "not a bail reason");
      break;
  }
  HRTDM_FR_RECORD(channel_.flight_recorder(), obs::FrKind::kSpanBail, now.ns(),
                  -1, static_cast<std::int64_t>(reason));
  return false;
}

bool EpochCompiler::compile(SimTime start, SimTime horizon,
                            std::vector<net::CompiledSlot>& out) {
  handoff_valid_ = false;
  const net::PhyConfig& phy = channel_.phy();

  // --- eligibility (station side; the channel gated its own side) ---
  DdcrStation* ref = nullptr;
  for (DdcrStation* s : stations_) {
    if (s->mode_ != Mode::kOffline) {
      ref = s;
      break;
    }
  }
  if (ref == nullptr) {
    return false;
  }
  // The digest-equality gate below (run in full, or vouched for by the
  // replica ledger) implies every synced station shares ref's mode, so one
  // mode check suffices (a resyncing ref fails it too).
  // A decline here is NOT a compile attempt: the stations are simply not
  // mid-epoch, so there was nothing to compile in the first place.
  if (ref->mode_ != Mode::kTimeSearch && ref->mode_ != Mode::kStaticSearch) {
    return false;
  }

  // Mid-epoch consultation: from here on every outcome is either a
  // committed span or exactly one ddcr.compile_bailout.<reason> (satellite
  // invariant asserted in test_epoch_compiler).
  ++compile_attempts_;
  HRTDM_COUNT("ddcr.compile_attempts");

  // A span needs >= 2 slots and the first (contention) slot alone spans at
  // least slot_x, so a horizon this close can never commit.
  if (horizon <= start + phy.slot_x) {
    return bail(obs::FrBail::kHorizon, start);
  }
  if (ref->config_.drop_late_messages) {
    // poll_intent prunes by wall time: polls are not pure.
    return bail(obs::FrBail::kFault, start);
  }
  // Replica ledger: replicas that agreed at the last full compare and have
  // since consumed only broadcast observations (plus hand-offs, which
  // install one state everywhere) still agree, so the full compare only
  // reruns once some station's local-event tally has moved.
  std::int64_t local_events = 0;
  for (const DdcrStation* s : stations_) {
    local_events += s->local_events_;
  }
  const bool recheck = local_events != verified_local_events_;
  std::uint64_t digest = 0;
  if (recheck) {
    ++replica_checks_;
    digest = ref->protocol_digest();
  }
  per_.clear();
  for (DdcrStation* s : stations_) {
    if (s->mode_ == Mode::kOffline) {
      continue;  // inert: neither polls nor observes
    }
    if (s->mode_ == Mode::kResync) {
      // A resyncing station counts silent slots per observation.
      return bail(obs::FrBail::kResync, start);
    }
    if (recheck && s->protocol_digest() != digest) {
      // Latent desync: bail out, never miscompile.
      return bail(obs::FrBail::kDesync, start);
    }
    PerStation ps;
    ps.s = s;
    ps.it = s->queue_.begin();
    ps.static_pos = s->static_pos_;
    per_.push_back(ps);
  }
  verified_local_events_ = local_events;

  // --- working copies ---
  cfg_ = &ref->config_;
  time_engine_.emplace(ref->time_engine_);
  time_engine_->set_registry_muted(true);
  static_engine_.emplace(ref->static_engine_);
  static_engine_->set_registry_muted(true);
  mode_ = ref->mode_;
  reft_ = ref->reft_;
  reft_gen_ = 1;  // per_ entries start with raw_gen = 0: all caches stale
  tts_index_valid_ = false;
  sts_index_valid_ = false;
  carried_reft_ = ref->carried_reft_;
  sts_leaf_ = ref->sts_leaf_;
  tts_saw_ = ref->tts_saw_transmission_;
  post_tts_attempt_ = ref->post_tts_attempt_;
  consecutive_empty_tts_ = ref->consecutive_empty_tts_;
  sts_streak_touched_ = false;
  d_tts_runs_ = d_sts_runs_ = d_compressions_ = 0;
  d_search_time_ = d_search_static_ = 0;
  tree_begins_ = tree_silence_ = tree_collision_ = tree_inferred_ = 0;
  tts_slot_obs_.clear();
  sts_slot_obs_.clear();
  trace_.clear();
  trace_on_ = false;
  for (const PerStation& ps : per_) {
    trace_on_ = trace_on_ || ps.s->tracing();
  }
  epoch_completed_ = false;

  // --- replay loop: one contention slot (+ burst chain) per iteration ---
  // Every compiled slot ends at or before `horizon`; a decision the channel
  // would make exactly AT the horizon (a burst poll, the next contention
  // poll) ends the span instead, so the pre-existing event — which fires
  // first at equal timestamps, having the older sequence number — is seen
  // by the live re-decision after hand-off, exactly as interpreted.
  constexpr std::size_t kMaxSlots = std::size_t{1} << 20;
  // Why the span stopped growing — decides the bail reason if it stopped
  // before reaching the 2-slot commit threshold. Defaults to kHorizon: an
  // epoch that closes inside the first slot is a span the horizon (span
  // geometry) made too short, not a replay failure.
  obs::FrBail stop_reason = obs::FrBail::kHorizon;
  SimTime now = start;
  out.clear();
  if (out.capacity() < 4096) {
    out.reserve(4096);  // skip the early growth reallocations; the
                        // channel's span buffer keeps its capacity after
  }                     // this, so deep spans only ever pay growth once
  while (out.size() < kMaxSlots) {
    if (mode_ != Mode::kTimeSearch && mode_ != Mode::kStaticSearch) {
      epoch_completed_ = true;  // the epoch closed inside the span
      break;
    }

    // Poll mirror (DdcrStation::poll_intent; drop_late is off, so polls
    // are pure reads of queue heads + replicated state).
    int contenders = 0;
    PerStation* winner = nullptr;
    const Message* winner_msg = nullptr;
    if (mode_ == Mode::kTimeSearch) {
      const auto interval = time_engine_->current();
      const std::int64_t floor_idx = time_engine_->resolved_up_to();
      if (!tts_index_valid_) {
        rebuild_tts_index();
      }
      // Counting form of the per-station scan: a station contends iff
      // idx = max(raw, floor) lands in [lo, min(hi, F-1)]. Stations with
      // raw > floor contribute the band [max(lo, floor+1), hi_cap]; every
      // raw <= floor station folds onto the frontier leaf and joins iff
      // the probe covers it. resolved_up_to() and interval.lo are both
      // >= 0, so the clamped buckets preserve max(raw, floor) exactly.
      const std::int64_t hi_cap =
          std::min(interval.hi() - 1, static_cast<std::int64_t>(cfg_->F) - 1);
      if (hi_cap >= interval.lo) {
        const std::int64_t from = std::max(interval.lo, floor_idx + 1);
        if (from <= hi_cap) {
          contenders += tts_prefix_[static_cast<std::size_t>(hi_cap)] -
                        tts_prefix_[static_cast<std::size_t>(from - 1)];
        }
        if (floor_idx >= interval.lo && floor_idx <= hi_cap) {
          contenders += tts_prefix_[static_cast<std::size_t>(floor_idx)];
        }
      }
      if (contenders == 1) {
        // Unique contender: the walk's order no longer matters, so a
        // first-match scan names the same winner the full scan would.
        for (PerStation& ps : per_) {
          if (ps.it == ps.s->queue_.end()) {
            continue;
          }
          const std::int64_t idx = std::max(ps.raw, floor_idx);
          if (idx > cfg_->F - 1 || !interval.contains(idx)) {
            continue;
          }
          winner = &ps;
          winner_msg = &*ps.it;
          break;
        }
        HRTDM_EXPECT(winner != nullptr, "contender index out of sync");
      }
    } else {
      const auto interval = static_engine_->current();
      if (!sts_index_valid_) {
        rebuild_sts_index();
      }
      // Counting form of the per-station scan: a due-or-late station
      // contends iff its current static index lies in the probed band
      // (no frontier folding here — the STs predicate is plain
      // containment), so the count is one prefix-sum difference.
      const std::int64_t lo = interval.lo;
      const std::int64_t hi_cap =
          std::min(interval.hi() - 1, static_cast<std::int64_t>(cfg_->q) - 1);
      const std::int32_t below =
          lo > 0 ? sts_prefix_[static_cast<std::size_t>(lo - 1)] : 0;
      if (hi_cap >= lo) {
        contenders += sts_prefix_[static_cast<std::size_t>(hi_cap)] - below;
      }
      if (contenders == 1) {
        // Binary-search the band for the lone prefix step, then resolve
        // the station through the owner map (static indices partition
        // [0, q), so the keyed leaf has exactly one holder).
        std::int64_t b_lo = lo;
        std::int64_t b_hi = hi_cap;
        while (b_lo < b_hi) {
          const std::int64_t mid = b_lo + (b_hi - b_lo) / 2;
          if (sts_prefix_[static_cast<std::size_t>(mid)] - below >= 1) {
            b_hi = mid;
          } else {
            b_lo = mid + 1;
          }
        }
        winner = sts_owner_[static_cast<std::size_t>(b_lo)];
        HRTDM_EXPECT(winner != nullptr, "STs contender index out of sync");
        winner_msg = &*winner->it;
      }
    }

    // Slot resolution (clean destructive channel: no corruption draws).
    net::SlotKind kind;
    SimTime end;
    if (contenders == 0) {
      kind = net::SlotKind::kSilence;
      end = now + phy.slot_x;
    } else if (contenders == 1) {
      kind = net::SlotKind::kSuccess;
      end = now + std::max(phy.tx_time(winner_msg->l_bits), phy.slot_x);
    } else {
      kind = net::SlotKind::kCollision;
      end = now + phy.slot_x;
    }
    if (end > horizon) {
      break;  // the slot would contain a scheduled event
    }
    if (mode_ == Mode::kStaticSearch && kind == net::SlotKind::kCollision &&
        static_engine_->current().size == 1) {
      // A genuine STs leaf collision (two sources sharing a static index):
      // the requeue/retry-streak/watchdog semantics stay interpreted. Stop
      // before this slot — no replay state has been touched yet.
      stop_reason = obs::FrBail::kNoise;
      break;
    }

    net::CompiledSlot slot;
    slot.record.kind = kind;
    slot.record.contenders = contenders;
    slot.record.start = now;
    slot.record.end = end;

    // Observe mirror (DdcrStation::observe at slot end). The divergence
    // watchdog cannot fire: every compiled success comes from a station
    // whose index was inside the probed interval by construction.
    if (kind == net::SlotKind::kSuccess) {
      slot.record.frame = winner->s->make_frame(*winner_msg);
      winner->delivered.push_back(winner_msg->uid);
      ++winner->it;
      winner->raw_gen = 0;  // head advanced: cached raw index is stale
      tts_index_valid_ = false;
      // The STs index survives a TTs success untouched: it is rebuilt on
      // tie-break entry (kLeafCollision resets every static_pos); an STs
      // success patches it incrementally below.
      ++winner->transmitted;
    }
    if (mode_ == Mode::kTimeSearch) {
      ++d_search_time_;
      TreeSearchEngine::Feedback fb;
      if (kind == net::SlotKind::kSilence) {
        fb = TreeSearchEngine::Feedback::kSilence;
      } else if (kind == net::SlotKind::kSuccess) {
        --d_search_time_;  // successes are not search slots
        fb = TreeSearchEngine::Feedback::kSuccess;
        tts_saw_ = true;
        reft_ = end;
        ++reft_gen_;
      } else {
        fb = TreeSearchEngine::Feedback::kCollision;
      }
      const auto probed = time_engine_->current();
      const std::int64_t leaf_hint =
          kind == net::SlotKind::kCollision && probed.size == 1 ? probed.lo
                                                                : -1;
      const auto result = time_engine_->feedback(fb);
      push_span(now, end, "tts-probe", "lo,size,resolved", probed.lo,
                probed.size, time_engine_->resolved_up_to());
      if (result == TreeSearchEngine::StepResult::kLeafCollision) {
        HRTDM_EXPECT(leaf_hint >= 0, "leaf collision without a leaf");
        sts_leaf_ = leaf_hint;
        for (PerStation& ps : per_) {
          ps.static_pos = 0;
        }
        sts_index_valid_ = false;
        sts_streak_touched_ = true;
        ++d_sts_runs_;
        push_instant(end, "sts-start", "leaf", sts_leaf_);
        note_tree_begin(*static_engine_);
        static_engine_->begin();
        mode_ = Mode::kStaticSearch;
      } else if (time_engine_->done()) {
        replay_finish_tts(end);
      }
    } else {
      ++d_search_static_;
      TreeSearchEngine::Feedback fb;
      if (kind == net::SlotKind::kSilence) {
        fb = TreeSearchEngine::Feedback::kSilence;
      } else if (kind == net::SlotKind::kSuccess) {
        --d_search_static_;
        fb = TreeSearchEngine::Feedback::kSuccess;
        tts_saw_ = true;
        // "next index in the ranking" — and patch the contender index in
        // place: only the winner changed, so its old key leaves the
        // tie-break and its next key re-enters if it is still due. A full
        // rebuild here would dominate the compile cost (one per success).
        const std::size_t kw = static_cast<std::size_t>(
            winner->s->my_indices_[winner->static_pos]);
        ++winner->static_pos;
        if (sts_index_valid_) {
          sts_owner_[kw] = nullptr;
          for (std::size_t b = kw; b < sts_prefix_.size(); ++b) {
            --sts_prefix_[b];
          }
          if (winner->static_pos < winner->s->my_indices_.size() &&
              winner->it != winner->s->queue_.end()) {
            if (winner->raw_gen != reft_gen_) {
              winner->raw =
                  (winner->it->absolute_deadline - (reft_ + cfg_->alpha))
                      .floor_div(cfg_->class_width_c);
              winner->raw_gen = reft_gen_;
            }
            if (winner->raw <= sts_leaf_) {
              const std::size_t k2 = static_cast<std::size_t>(
                  winner->s->my_indices_[winner->static_pos]);
              sts_owner_[k2] = winner;
              for (std::size_t b = k2; b < sts_prefix_.size(); ++b) {
                ++sts_prefix_[b];
              }
            }
          }
        }
      } else {
        fb = TreeSearchEngine::Feedback::kCollision;
      }
      const auto probed = static_engine_->current();
      const auto result = static_engine_->feedback(fb);
      push_span(now, end, "sts-probe", "lo,size,leaf", probed.lo, probed.size,
                sts_leaf_);
      HRTDM_EXPECT(result != TreeSearchEngine::StepResult::kLeafCollision,
                   "STs leaf collision was excluded above");
      sts_streak_touched_ = true;
      if (static_engine_->done()) {
        replay_finish_sts(end);
      }
    }

    const bool bursting =
        kind == net::SlotKind::kSuccess && phy.burst_budget_bits > 0;
    slot.burst_budget_next = bursting ? phy.burst_budget_bits : -1;
    out.push_back(std::move(slot));
    now = end;

    // Burst chain mirror (finish_slot -> continue_burst -> finish_burst
    // ...): the winner chains EDF heads while the budget lasts, regardless
    // of any mode change its last observe performed.
    if (bursting) {
      std::int64_t budget = phy.burst_budget_bits;
      bool close_span = false;
      while (out.size() < kMaxSlots) {
        if (now >= horizon) {
          close_span = true;  // the poll decision belongs after the event
          break;
        }
        // poll_burst mirror (the winner is synced, so never declines on
        // mode grounds).
        if (winner->it == winner->s->queue_.end()) {
          break;  // channel released: next contention slot
        }
        const Message& head = *winner->it;
        if (head.l_bits > budget) {
          break;
        }
        const SimTime bend = now + phy.tx_time(head.l_bits);
        if (bend > horizon) {
          close_span = true;
          break;
        }
        net::CompiledSlot burst;
        burst.record.kind = net::SlotKind::kSuccess;
        burst.record.contenders = 1;
        burst.record.in_burst = true;
        burst.record.start = now;
        burst.record.end = bend;
        burst.record.frame = winner->s->make_frame(head);
        winner->delivered.push_back(head.uid);
        ++winner->it;
        winner->raw_gen = 0;  // head advanced: cached raw index is stale
        tts_index_valid_ = false;
        sts_index_valid_ = false;
        ++winner->transmitted;
        ++winner->burst_transmitted;
        // In-burst observe mirror: no engine feedback, no probes — only
        // the out flag, and only while still inside the epoch.
        if (mode_ != Mode::kCsmaCd) {
          tts_saw_ = true;
        }
        budget -= head.l_bits;
        burst.burst_budget_next = budget;
        out.push_back(std::move(burst));
        now = bend;
      }
      if (close_span) {
        break;  // resume re-consults poll_burst right after the event fires
      }
    }
  }

  if (out.size() < 2) {
    // Nothing worth committing; the interpreted path continues. The safety
    // cap cannot be the reason here (kMaxSlots >> 2), but the reason enum
    // keeps kCap so the taxonomy stays exhaustive over every stop site.
    if (out.size() >= kMaxSlots) {
      stop_reason = obs::FrBail::kCap;
    }
    return bail(stop_reason, now);
  }
  last_end_ = out.back().record.end;
  slots_compiled_ += static_cast<std::int64_t>(out.size());
  handoff_valid_ = true;
  return true;
}

void EpochCompiler::apply_handoff() {
  HRTDM_EXPECT(handoff_valid_, "no compiled span pending");
  handoff_valid_ = false;
  [[maybe_unused]] const std::int64_t z =
      static_cast<std::int64_t>(per_.size());

  // Traces first: the per-station arg bases (tts-start's run number,
  // epoch-end's epoch number) read pre-hand-off counters.
  if (!trace_.empty()) {
    for (const TraceEvent& ev : trace_) {
      for (const PerStation& ps : per_) {
        DdcrStation* s = ps.s;
        if (!s->tracing()) {
          continue;
        }
        std::int64_t a0 = ev.a0;
        if (ev.base == ArgBase::kTtsRuns) {
          a0 += s->counters_.tts_runs;
        } else if (ev.base == ArgBase::kEpochs) {
          a0 += s->counters_.epochs;
        }
        if (ev.is_span) {
          s->tracer_->complete(s->trace_pid_, s->id_ + 1, ev.ts.ns(),
                               ev.end.ns() - ev.ts.ns(), ev.name, ev.args, a0,
                               ev.a1, ev.a2);
        } else {
          s->tracer_->instant(s->trace_pid_, s->id_ + 1, ev.ts.ns(), ev.name,
                              ev.args, a0, ev.a1, ev.a2);
        }
      }
    }
  }

  std::int64_t delivered_total = 0;
  std::int64_t burst_total = 0;
  for (PerStation& ps : per_) {
    DdcrStation* s = ps.s;
    for (const std::int64_t uid : ps.delivered) {
      const bool removed = s->queue_.remove(uid);
      HRTDM_EXPECT(removed, "compiled delivery was not queued");
    }
    s->mode_ = mode_;
    s->reft_ = reft_;
    s->carried_reft_ = carried_reft_;
    s->sts_leaf_ = sts_leaf_;
    s->tts_saw_transmission_ = tts_saw_;
    s->post_tts_attempt_ = post_tts_attempt_;
    s->consecutive_empty_tts_ = consecutive_empty_tts_;
    s->static_pos_ = ps.static_pos;
    if (sts_streak_touched_) {
      s->sts_retry_streak_ = 0;
    }
    s->time_engine_ = *time_engine_;
    s->time_engine_.set_registry_muted(false);
    s->static_engine_ = *static_engine_;
    s->static_engine_.set_registry_muted(false);
    s->counters_.tts_runs += d_tts_runs_;
    s->counters_.sts_runs += d_sts_runs_;
    s->counters_.compressions += d_compressions_;
    s->counters_.search_slots_time += d_search_time_;
    s->counters_.search_slots_static += d_search_static_;
    s->counters_.transmitted += ps.transmitted;
    s->counters_.burst_transmitted += ps.burst_transmitted;
    s->trace_now_ = last_end_;
    delivered_total += ps.transmitted;
    burst_total += ps.burst_transmitted;
  }

  // Registry: the exact amounts the interpreted slots would have emitted.
  if (d_tts_runs_ > 0) {
    HRTDM_COUNT_N("ddcr.tts_runs", d_tts_runs_ * z);
  }
  if (d_sts_runs_ > 0) {
    HRTDM_COUNT_N("ddcr.sts_runs", d_sts_runs_ * z);
  }
  if (d_compressions_ > 0) {
    HRTDM_COUNT_N("ddcr.compressions", d_compressions_ * z);
  }
  if (delivered_total > 0) {
    HRTDM_COUNT_N("ddcr.transmitted", delivered_total);
  }
  if (burst_total > 0) {
    HRTDM_COUNT_N("ddcr.burst_transmitted", burst_total);
  }
  if (tree_begins_ > 0) {
    HRTDM_COUNT_N("tree.searches", tree_begins_ * z);
    HRTDM_COUNT_N("tree.silence_slots", tree_silence_ * z);
    HRTDM_COUNT_N("tree.collision_slots", tree_collision_ * z);
    HRTDM_COUNT_N("tree.inferred_skips", tree_inferred_ * z);
  }
#if !defined(HRTDM_OBS_OFF)
  for (const std::int64_t v : tts_slot_obs_) {
    HRTDM_OBSERVE_N("ddcr.tts_search_slots", v, z);
  }
  for (const std::int64_t v : sts_slot_obs_) {
    HRTDM_OBSERVE_N("ddcr.sts_search_slots", v, z);
  }
#endif

  ++spans_compiled_;
  HRTDM_COUNT("ddcr.spans_compiled");
  if (epoch_completed_) {
    ++epochs_compiled_;
    HRTDM_COUNT("ddcr.epochs_compiled");
  }
}

void EpochCompiler::drop_handoff() {
  // The channel replayed the flushed prefix through the real stations; the
  // retained end-of-span state is simply discarded.
  HRTDM_EXPECT(handoff_valid_, "no compiled span pending");
  handoff_valid_ = false;
}

}  // namespace hrtdm::core
