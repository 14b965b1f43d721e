#include "core/epoch_compiler.hpp"

#include <algorithm>
#include <cstdlib>
#include <cstring>
#include <iterator>
#include <utility>

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
                             SharedReplica& shared, sim::Simulator& simulator,
                             const std::vector<Arrival>& arrivals)
    : channel_(channel),
      shared_(shared),
      simulator_(simulator),
      arrivals_(arrivals),
      work_(shared.replica_) {
  HRTDM_EXPECT(!shared_.stations_.empty(), "epoch compiler needs >= 1 station");
}

void EpochCompiler::SpanReports::clear(bool tracing) {
  std::fill(std::begin(counts_), std::end(counts_), 0);
  std::fill(std::begin(touched_), std::end(touched_), false);
  for (std::vector<std::int64_t>& values : values_) {
    values.clear();
  }
  trace_.clear();
  tracing_ = tracing;
}

void EpochCompiler::SpanReports::count(Count what, std::int64_t n) {
  counts_[static_cast<std::size_t>(what)] += n;
  touched_[static_cast<std::size_t>(what)] = true;
}

void EpochCompiler::SpanReports::observe(Hist what, std::int64_t value) {
  values_[static_cast<std::size_t>(what)].push_back(value);
}

void EpochCompiler::SpanReports::instant(SimTime ts, const char* name,
                                         const char* args, std::int64_t a0,
                                         std::int64_t a1, std::int64_t a2,
                                         Arg base) {
  if (tracing_) {
    trace_.push_back(TraceEvent{false, ts, ts, name, args, a0, a1, a2, base});
  }
}

void EpochCompiler::SpanReports::span(SimTime start, SimTime end,
                                      const char* name, const char* args,
                                      std::int64_t a0, std::int64_t a1,
                                      std::int64_t a2) {
  if (tracing_) {
    trace_.push_back(
        TraceEvent{true, start, end, name, args, a0, a1, a2, Arg::kNone});
  }
}

void EpochCompiler::SpanReports::flush(ReplicaSink& sink) const {
  // Only the names the interpreted slots would have touched: a counter
  // the span never advanced is not materialized in the registry.
  for (std::size_t c = 0; c < std::size(counts_); ++c) {
    if (touched_[c]) {
      sink.count(static_cast<Count>(c), counts_[c]);
    }
  }
  for (std::size_t h = 0; h < std::size(values_); ++h) {
    for (const std::int64_t v : values_[h]) {
      sink.observe(static_cast<Hist>(h), v);
    }
  }
  for (const TraceEvent& ev : trace_) {
    if (ev.is_span) {
      sink.span(ev.ts, ev.end, ev.name, ev.args, ev.a0, ev.a1, ev.a2);
    } else {
      sink.instant(ev.ts, ev.name, ev.args, ev.a0, ev.a1, ev.a2, ev.base);
    }
  }
}

std::int64_t EpochCompiler::class_end(std::int64_t b) const {
  // raw = floor((D - ref) / c) <= b  iff  D - ref < (b + 1) * c. Exact in
  // int64: DdcrConfig::validate bounds alpha + (F + 1) * c.
  return work_.reft().ns() + cfg_->alpha.ns() +
         (b + 1) * cfg_->class_width_c.ns();
}

void EpochCompiler::rebuild_sts_index() {
  const std::size_t q = static_cast<std::size_t>(cfg_->q);
  sts_prefix_.assign(q, 0);
  sts_owner_.assign(q, nullptr);
  // Due-or-late rule: only heads with raw index <= the tie-break leaf.
  const std::int64_t due_before = class_end(work_.sts_leaf());
  for (std::size_t i = 0; i < queued_per_.size(); ++i) {
    PerStation& ps = per_[static_cast<std::size_t>(queued_per_[i])];
    if (ps.static_pos >= ps.s->my_indices_.size() ||
        queued_deadline_[i] >= due_before) {
      continue;
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

void EpochCompiler::absorb_arrivals(SimTime t) {
  while (next_lane_ < lane_.size() && lane_[next_lane_].at <= t) {
    const Arrival& arrival = arrivals_[lane_[next_lane_++].index];
    const std::int32_t p = per_of_[static_cast<std::size_t>(arrival.station)];
    if (p < 0) {
      continue;  // offline: neither polls nor observes
    }
    PerStation& ps = per_[static_cast<std::size_t>(p)];
    const Message* head = ps.head();
    if (head == nullptr) {
      ps.slot = static_cast<std::int32_t>(queued_per_.size());
      queued_deadline_.push_back(arrival.msg.absolute_deadline.ns());
      queued_per_.push_back(p);
      sts_index_valid_ = false;
    } else if (EdfQueue::precedes(arrival.msg, *head)) {
      queued_deadline_[static_cast<std::size_t>(ps.slot)] =
          arrival.msg.absolute_deadline.ns();
      sts_index_valid_ = false;
    }
    const auto unserved =
        ps.absorbed.begin() + static_cast<std::ptrdiff_t>(ps.next_absorbed);
    ps.absorbed.insert(std::upper_bound(unserved, ps.absorbed.end(),
                                        arrival.msg, EdfQueue::precedes),
                       arrival.msg);
  }
}

bool EpochCompiler::collision_ahead() const {
  int queued = 0;
  for (const DdcrStation* s : shared_.stations_) {
    if (s->online() && !s->queue_.empty() && ++queued == 2) {
      return true;
    }
  }
  return false;
}

void EpochCompiler::serve(PerStation& ps, const Message* head, SimTime end) {
  ps.delivered.push_back(PerStation::Served{head->uid, end});
  if (ps.next_absorbed < ps.absorbed.size() &&
      head == &ps.absorbed[ps.next_absorbed]) {
    ++ps.next_absorbed;
  } else {
    ++ps.it;
  }
  ++ps.transmitted;
  const auto slot = static_cast<std::size_t>(ps.slot);
  if (const Message* next = ps.head()) {
    queued_deadline_[slot] = next->absolute_deadline.ns();
    return;
  }
  // The queue emptied: the last entry takes its place.
  const std::int32_t moved = queued_per_.back();
  queued_deadline_[slot] = queued_deadline_.back();
  queued_per_[slot] = moved;
  per_[static_cast<std::size_t>(moved)].slot = ps.slot;
  queued_deadline_.pop_back();
  queued_per_.pop_back();
  ps.slot = -1;
}

std::size_t EpochCompiler::served_before(int station, SimTime now) {
  if (!handoff_valid_) {
    return 0;
  }
  const std::int32_t p = per_of_[static_cast<std::size_t>(station)];
  if (p < 0) {
    return 0;
  }
  PerStation& ps = per_[static_cast<std::size_t>(p)];
  while (ps.served < ps.delivered.size() &&
         ps.delivered[ps.served].end < now) {
    ++ps.served;
  }
  return ps.served;
}

bool EpochCompiler::compile(SimTime start, SimTime horizon,
                            std::vector<net::CompiledSlot>& out) {
  handoff_valid_ = false;
  const net::PhyConfig& phy = channel_.phy();

  // --- eligibility (station side; the channel gated its own side) ---
  DdcrStation* ref = nullptr;
  for (DdcrStation* s : shared_.stations_) {
    if (s->online()) {
      ref = s;
      break;
    }
  }
  if (ref == nullptr) {
    return false;
  }
  // The digest-equality gate below implies every synced station shares
  // ref's mode, so one mode check suffices (a resyncing ref fails it too).
  // A decline here is NOT a compile attempt: the stations are not mid-epoch
  // and no collision or post-TTs attempt is ahead, so the next slot is a
  // lone CSMA-CD transmission or silence, with nothing to compile.
  const DdcrReplica& base = *ref->replica_;
  switch (base.mode()) {
    case Mode::kTimeSearch:
    case Mode::kStaticSearch:
      break;
    case Mode::kCsmaCd:
      if (!base.post_tts_attempt() && !collision_ahead()) {
        return false;
      }
      break;
    case Mode::kResync:
    case Mode::kOffline:
      return false;
  }

  // From here on every outcome is either a committed span or exactly one
  // ddcr.compile_bailout.<reason> (invariant asserted in
  // test_epoch_compiler).
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
  // Holders of one replica agree by construction; a station on another
  // one (a private copy forked at a receiver-local event, or the shared
  // replica while ref holds a copy) must match ref's digest, and its
  // engines must hold the registry amounts ref's would flush: a committed
  // span merges it into one replica, whose flush then counts for it.
  std::optional<std::uint64_t> base_digest;
  const DdcrReplica* agreed = &base;  // the last replica found to match
  merge_ = false;
  per_of_.assign(shared_.stations_.size(), -1);
  queued_deadline_.clear();
  queued_per_.clear();
  std::size_t online = 0;
  for (std::size_t i = 0; i < shared_.stations_.size(); ++i) {
    DdcrStation* s = shared_.stations_[i];
    const Mode mode = s->mode();
    if (mode == Mode::kOffline) {
      continue;  // inert: neither polls nor observes
    }
    if (mode == Mode::kResync) {
      // A resyncing station counts silent slots per observation.
      return bail(obs::FrBail::kResync, start);
    }
    if (s->replica_ != &base && s->replica_ != agreed) {
      if (!base_digest.has_value()) {
        base_digest = base.digest();
      }
      if (s->replica_->digest() != *base_digest ||
          !s->replica_->same_pending_reports(base)) {
        // Latent desync: bail out, never miscompile.
        return bail(obs::FrBail::kDesync, start);
      }
      agreed = s->replica_;
    }
    merge_ = merge_ || !s->shares_replica();
    if (online == per_.size()) {
      per_.emplace_back();
    }
    PerStation& ps = per_[online];
    per_of_[i] = static_cast<std::int32_t>(online++);
    ps.s = s;
    ps.it = s->queue_.begin();
    ps.absorbed.clear();
    ps.next_absorbed = 0;
    ps.static_pos = s->static_pos_;
    ps.delivered.clear();
    ps.served = 0;
    ps.transmitted = 0;
    ps.burst_transmitted = 0;
    ps.slot = -1;
    if (ps.it != s->queue_.end()) {
      ps.slot = static_cast<std::int32_t>(queued_per_.size());
      queued_deadline_.push_back(ps.it->absolute_deadline.ns());
      queued_per_.push_back(per_of_[i]);
    }
  }
  per_.resize(online);
  lane_ = simulator_.lane();
  next_lane_ = 0;

  // --- working copy ---
  cfg_ = &ref->config_;
  work_ = base;  // reuses the engines' stack capacity
  base_counters_ = base.counters();
  sts_index_valid_ = false;
  sts_streak_touched_ = false;
  reports_.clear(shared_.traced_);
  span_epochs_ = 0;
  DdcrReplica& work = work_;

  // --- replay loop: one contention slot (+ burst chain) per iteration ---
  // Every compiled slot ends at or before `horizon`; a decision the channel
  // would make exactly AT the horizon (a burst poll, the next contention
  // poll) ends the span instead, so the pre-existing event — which fires
  // first at equal timestamps, having the older sequence number — is seen
  // by the live re-decision after hand-off, exactly as interpreted. Lane
  // arrivals are absorbed before every poll past `start` (header comment).
  // The cap bounds the span buffer (a capped span simply resumes into the
  // next compile), and with it the memory a busy channel's span holds.
  constexpr std::size_t kMaxSlots = std::size_t{1} << 12;
  // Why the span stopped growing — decides the bail reason if it stopped
  // before reaching the 2-slot commit threshold. Defaults to kHorizon: a
  // channel that falls quiescent after the first slot makes a span the
  // span geometry cut too short, not a replay failure.
  obs::FrBail stop_reason = obs::FrBail::kHorizon;
  SimTime now = start;
  out.clear();
  // The channel's span buffer keeps its capacity, so it is allocated once
  // and never grows.
  out.reserve(kMaxSlots);
  while (out.size() < kMaxSlots) {
    const Mode mode = work.mode();
    if (now > start) {
      absorb_arrivals(now);
    }

    // Poll mirror (DdcrStation::poll_intent; drop_late is off, so polls
    // are pure reads of queue heads + replicated state).
    int contenders = 0;
    PerStation* winner = nullptr;
    const Message* winner_msg = nullptr;
    if (mode == Mode::kCsmaCd) {
      // Every station with a queued message transmits its EDF head.
      contenders = static_cast<int>(queued_per_.size());
      if (contenders == 0 && !work.post_tts_attempt()) {
        break;  // quiescent: the channel's idle gap takes over
      }
      if (contenders == 1) {
        winner = &per_[static_cast<std::size_t>(queued_per_.front())];
        winner_msg = winner->head();
      }
    } else if (mode == Mode::kTimeSearch) {
      // Counting form of the per-station scan: a station contends iff
      // idx = max(raw, frontier) lies in the probed [lo, hi). While a search
      // runs, the frontier (resolved_up_to()) is the probe's own lo, so
      // every raw <= lo head folds onto it and joins: the contenders are
      // the heads with raw <= hi - 1, i.e. D < class_end(hi - 1). hi <= F,
      // so a head with raw >= F never contends.
      const std::int64_t before =
          class_end(work.time_engine().current().hi() - 1);
      for (const std::int64_t d : queued_deadline_) {
        contenders += d < before ? 1 : 0;
      }
      if (contenders == 1) {
        std::size_t lone = 0;
        while (queued_deadline_[lone] >= before) {
          ++lone;
        }
        winner = &per_[static_cast<std::size_t>(queued_per_[lone])];
        winner_msg = winner->head();
      }
    } else {
      const auto interval = work.static_engine().current();
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
        winner_msg = winner->head();
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
    if (mode == Mode::kStaticSearch && kind == net::SlotKind::kCollision &&
        work.static_engine().current().size == 1) {
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

    // The replica's own transition (DdcrStation::observe at slot end).
    // The divergence watchdog cannot fire: every compiled success comes
    // from a station whose index was inside the probed interval by
    // construction.
    if (kind == net::SlotKind::kSuccess) {
      slot.record.frame = winner->s->make_frame(*winner_msg);
      serve(*winner, winner_msg, end);
      // The STs index survives a TTs success untouched: it is rebuilt on
      // tie-break entry (kStsEntered resets every static_pos); an STs
      // success patches it incrementally below.
      if (mode == Mode::kStaticSearch) {
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
              winner->slot >= 0 &&
              queued_deadline_[static_cast<std::size_t>(winner->slot)] <
                  class_end(work.sts_leaf())) {
            const std::size_t k2 = static_cast<std::size_t>(
                winner->s->my_indices_[winner->static_pos]);
            sts_owner_[k2] = winner;
            for (std::size_t b = k2; b < sts_prefix_.size(); ++b) {
              ++sts_prefix_[b];
            }
          }
        }
      }
    }
    const SimTime reft_before = work.reft();
    const DdcrReplica::Step step = work.feedback(kind, now, end, reports_);
    HRTDM_EXPECT(step != DdcrReplica::Step::kStsRetried,
                 "STs leaf collision was excluded above");
    if (step == DdcrReplica::Step::kStsEntered) {
      for (PerStation& ps : per_) {
        ps.static_pos = 0;
      }
      sts_index_valid_ = false;
    }
    sts_streak_touched_ =
        sts_streak_touched_ || step != DdcrReplica::Step::kNone;
    if (mode != Mode::kCsmaCd && work.mode() == Mode::kCsmaCd) {
      ++span_epochs_;  // the epoch closed inside the span
    }
    if (work.reft() != reft_before) {
      // A TTs success, a theta compression or the STs hand-back moved
      // reft, and with it the STs index's due-or-late cut.
      sts_index_valid_ = false;
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
        absorb_arrivals(now);  // an arrival may become the burst's head
        // poll_burst mirror (the winner is synced, so never declines on
        // mode grounds).
        const Message* head = winner->head();
        if (head == nullptr) {
          break;  // channel released: next contention slot
        }
        if (head->l_bits > budget) {
          break;
        }
        const std::int64_t l_bits = head->l_bits;
        const SimTime bend = now + phy.tx_time(l_bits);
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
        burst.record.frame = winner->s->make_frame(*head);
        serve(*winner, head, bend);
        sts_index_valid_ = false;
        ++winner->burst_transmitted;
        // In-burst observe: no engine feedback, no probes — only the out
        // flag, and only while still inside the epoch.
        work.hear_burst(net::SlotKind::kSuccess);
        budget -= l_bits;
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
  span_slots_ = static_cast<std::int64_t>(out.size());
  handoff_valid_ = true;
  return true;
}

void EpochCompiler::apply_handoff() {
  HRTDM_EXPECT(handoff_valid_, "no compiled span pending");
  handoff_valid_ = false;
  const std::int64_t z = static_cast<std::int64_t>(per_.size());

  // Per station: the winners' deliveries, the static-index cursors, and a
  // private copy merged back. Its counter offset is taken against the
  // replica the replay started from, so counters() reads on exactly.
  std::int64_t delivered_total = 0;
  std::int64_t burst_total = 0;
  for (PerStation& ps : per_) {
    DdcrStation* s = ps.s;
    for (const PerStation::Served& served : ps.delivered) {
      const bool removed = s->queue_.remove(served.uid);
      HRTDM_EXPECT(removed, "compiled delivery was not queued");
    }
    s->static_pos_ = ps.static_pos;
    if (sts_streak_touched_) {
      s->sts_retry_streak_ = 0;
    }
    if (ps.transmitted > 0) {
      s->tally_.transmitted += ps.transmitted;
      s->tally_.burst_transmitted += ps.burst_transmitted;
    }
    delivered_total += ps.transmitted;
    burst_total += ps.burst_transmitted;
    if (merge_) {
      DdcrStation::add(s->tally_, s->replica_->counters());
      DdcrStation::add(s->tally_, base_counters_, -1);
      if (!s->shares_replica()) {
        s->replica_ = &shared_.replica_;
        ++shared_.members_;
        ++shared_.merges_;
      }
    }
  }
  HRTDM_ENSURE(shared_.members_ == z,
               "every online station holds the shared replica after a span");

  // One install: the replayed replica becomes the shared one.
  work_.set_heard_at(last_end_);
  std::swap(shared_.replica_, work_);

  // Registry and traces: the exact amounts and events the interpreted
  // slots would have emitted, once per holder.
  DdcrStation::LiveSink holders(*per_.front().s, z);
  reports_.flush(holders);
  if (delivered_total > 0) {
    HRTDM_COUNT_N("ddcr.transmitted", delivered_total);
  }
  if (burst_total > 0) {
    HRTDM_COUNT_N("ddcr.burst_transmitted", burst_total);
  }

  ++spans_compiled_;
  slots_compiled_ += span_slots_;
  HRTDM_COUNT("ddcr.spans_compiled");
  if (span_epochs_ > 0) {
    epochs_compiled_ += span_epochs_;
    HRTDM_COUNT_N("ddcr.epochs_compiled", span_epochs_);
  }
}

void EpochCompiler::drop_handoff() {
  // The channel replayed the flushed prefix through the real stations; the
  // retained end-of-span state is simply discarded.
  HRTDM_EXPECT(handoff_valid_, "no compiled span pending");
  handoff_valid_ = false;
}

}  // namespace hrtdm::core
