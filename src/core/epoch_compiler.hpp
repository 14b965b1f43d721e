// Compiled epoch fast path (ROADMAP item 1).
//
// On a clean channel the outcome of a CSMA/DDCR epoch is a pure function of
// the contender set at the TTs boundary: the m-ary tree recursion (whose
// cost is exactly xi(k, t, m), Eq. 1/3) is deterministic, so the full
// winner order, per-winner slot offsets, TTs/STs search costs and epoch
// length can be computed closed-form by replaying the station state machine
// in memory instead of slot by slot on the simulator. EpochCompiler is the
// net::SpanCompiler that performs that replay; BroadcastChannel commits the
// resulting slot list as a compiled span (one resume event at the far
// boundary, lazy per-slot accounting) and hands the bulk end-of-span state
// back to the stations when the span elapses.
//
// Eligibility (the channel gates its own side: destructive mode, no
// interceptor, no noise draw, no Gilbert–Elliott chain):
//  - at least one online station, none in listen-only resync (a resyncing
//    station counts silent slots per observation, so slots cannot be
//    skipped under it);
//  - the synced stations sit mid-epoch (kTimeSearch / kStaticSearch) with
//    bit-identical protocol digests (a defensive gate: a latent desync
//    becomes a bail-out to the interpreted path, never a miscompile);
//    the full digest compare is paid only when a replica could have moved
//    (the replica ledger, below);
//  - drop_late_messages is off (with it on, poll_intent prunes the queue
//    by wall time, so polls are not pure).
// Disqualifying conditions during the span — a scheduled event (mid-epoch
// arrival, fault action, another channel's slot) inside the horizon — cap
// the compiled span at that event, and anything scheduled into a committed
// span from outside the event loop dissolves it through the same
// ScheduleWatcher mechanism idle gaps use (docs/PERFORMANCE.md).
//
// Replica ledger. Every DdcrStation counts its receiver-local events, the
// only ways a replica can leave lock-step:
//  - an observe() of an observation the channel did not mark broadcast (an
//    interceptor's per-receiver copy, a phantom or scramble fed to one
//    station directly);
//  - reset_for_rejoin(), which covers crash recovery, watchdog quarantine,
//    go_offline() and bring_online();
//  - note_desync(), the divergence watchdog's detection.
// compile() sums the tallies and reruns the all-replica protocol_digest()
// compare only when the sum differs from the one recorded at the last
// compare that passed. In between, synced replicas with equal state consume
// the same broadcast observations and make the same transition, and a
// hand-off installs one state into all of them, so the compare would repeat
// its last answer. The offline and resync mode checks still run on every
// attempt; check_consistency and the conformance audit keep full compares.
#pragma once

#include <cstdint>
#include <optional>
#include <utility>
#include <vector>

#include "core/ddcr_station.hpp"
#include "net/channel.hpp"
#include "obs/flight_recorder.hpp"

namespace hrtdm::core {

/// DdcrRunOptions knob for the fast path. kAuto defers to the
/// HRTDM_EPOCH_COMPILER environment variable ("off" / "0" / "false"
/// disables; anything else, or unset, enables).
enum class EpochCompilerMode { kAuto, kOn, kOff };

/// Resolves the effective on/off decision for a run.
bool epoch_compiler_enabled(EpochCompilerMode mode);

class EpochCompiler final : public net::SpanCompiler {
 public:
  /// `stations` are the stations attached to `channel`, in attach order.
  /// Both must outlive the compiler.
  EpochCompiler(net::BroadcastChannel& channel,
                std::vector<DdcrStation*> stations);

  bool compile(SimTime start, SimTime horizon,
               std::vector<net::CompiledSlot>& out) override;
  void apply_handoff() override;
  void drop_handoff() override;

  std::int64_t spans_compiled() const { return spans_compiled_; }
  std::int64_t slots_compiled() const { return slots_compiled_; }
  std::int64_t epochs_compiled() const { return epochs_compiled_; }

  /// Mid-epoch compile() consultations: calls that passed the mode gate
  /// (the stations sat in TTs/STs), so every one either committed a span
  /// or took exactly one of the bail-out reasons below.
  /// Invariant: compile_attempts() == spans_compiled() + sum of bailouts().
  std::int64_t compile_attempts() const { return compile_attempts_; }
  /// Attempts that re-ran the full protocol_digest() compare across the
  /// replicas (the rest trusted the replica ledger; see the header note).
  std::int64_t replica_checks() const { return replica_checks_; }
  /// Per-reason mid-epoch bail-outs (registry family
  /// ddcr.compile_bailout.{horizon,fault,resync,noise,cap,desync}).
  std::int64_t bailouts(obs::FrBail reason) const {
    return bailouts_[static_cast<std::size_t>(reason)];
  }

 private:
  using Mode = DdcrStation::Mode;
  using QueueIter = decltype(std::declval<const EdfQueue&>().begin());

  /// Per-station replay cursor. The station's live queue is untouched
  /// during compile; because every transmission a station makes is its
  /// current EDF head (poll_intent, sts_candidate and poll_burst all serve
  /// the head), deliveries advance a const iterator in EDF order.
  struct PerStation {
    DdcrStation* s = nullptr;
    QueueIter it;
    std::size_t static_pos = 0;
    std::vector<std::int64_t> delivered;  ///< uids, removed at hand-off
    std::int64_t transmitted = 0;
    std::int64_t burst_transmitted = 0;
    /// Cached raw deadline-class index of the queue head relative to the
    /// replay reft_ (valid while raw_gen matches the compiler's reft_gen_
    /// and the head is unchanged; 0 = invalid).
    std::int64_t raw = 0;
    std::uint32_t raw_gen = 0;
  };

  /// Buffered protocol trace event, replayed per traced station at
  /// hand-off. a0 is relative when `base` names a per-station counter
  /// (tts-start's run number, epoch-end's epoch number).
  enum class ArgBase { kNone, kTtsRuns, kEpochs };
  struct TraceEvent {
    bool is_span = false;
    SimTime ts;
    SimTime end;
    const char* name = nullptr;
    const char* args = nullptr;
    std::int64_t a0 = 0;
    std::int64_t a1 = 0;
    std::int64_t a2 = 0;
    ArgBase base = ArgBase::kNone;
  };

  // Replay mirrors of the DdcrStation transition helpers (see the friend
  // note in ddcr_station.hpp; formulas are kept line-for-line in sync with
  // ddcr_station.cpp).
  void replay_start_tts(SimTime now);
  void replay_finish_tts(SimTime now);
  void replay_finish_sts(SimTime now);
  /// Mirrors the registry flush a (muted) TreeSearchEngine::begin() would
  /// have emitted; call immediately before begin().
  void note_tree_begin(const TreeSearchEngine& engine);

  void push_instant(SimTime ts, const char* name, const char* args = "",
                    std::int64_t a0 = 0, std::int64_t a1 = 0,
                    std::int64_t a2 = 0, ArgBase base = ArgBase::kNone);
  void push_span(SimTime ts, SimTime end, const char* name, const char* args,
                 std::int64_t a0, std::int64_t a1, std::int64_t a2);

  /// Rebuilds tts_prefix_ (and refreshes every stale raw cache) from the
  /// current replay cursors; called lazily from the TTs poll mirror.
  void rebuild_tts_index();
  /// Rebuilds sts_prefix_/sts_owner_ from the current replay cursors;
  /// called lazily from the STs poll mirror.
  void rebuild_sts_index();

  /// Accounts one mid-epoch bail-out (counter family + kSpanBail flight
  /// record) and returns false so `return bail(...)` reads as a decline.
  bool bail(obs::FrBail reason, SimTime now);

  net::BroadcastChannel& channel_;
  std::vector<DdcrStation*> stations_;

  // --- replay state (reset per compile(); the hand-off subset stays valid
  // until apply_handoff()/drop_handoff()) ---
  const DdcrConfig* cfg_ = nullptr;
  std::optional<TreeSearchEngine> time_engine_;
  std::optional<TreeSearchEngine> static_engine_;
  Mode mode_ = Mode::kCsmaCd;
  SimTime reft_;
  /// Generation tag for PerStation::raw caches; bumped whenever reft_
  /// moves (TTs success, theta compression, STs hand-back). Never 0, so a
  /// zeroed raw_gen is always stale.
  std::uint32_t reft_gen_ = 1;
  SimTime carried_reft_;
  std::int64_t sts_leaf_ = -1;
  bool tts_saw_ = false;
  bool post_tts_attempt_ = false;
  int consecutive_empty_tts_ = 0;
  bool sts_streak_touched_ = false;
  // Counter deltas, identical for every synced station.
  std::int64_t d_tts_runs_ = 0;
  std::int64_t d_sts_runs_ = 0;
  std::int64_t d_compressions_ = 0;
  std::int64_t d_search_time_ = 0;
  std::int64_t d_search_static_ = 0;
  // Registry amounts the muted replica engines withheld.
  std::int64_t tree_begins_ = 0;
  std::int64_t tree_silence_ = 0;
  std::int64_t tree_collision_ = 0;
  std::int64_t tree_inferred_ = 0;
  std::vector<std::int64_t> tts_slot_obs_;  ///< ddcr.tts_search_slots values
  std::vector<std::int64_t> sts_slot_obs_;  ///< ddcr.sts_search_slots values
  std::vector<TraceEvent> trace_;
  bool trace_on_ = false;
  bool epoch_completed_ = false;
  SimTime last_end_;
  std::vector<PerStation> per_;
  /// TTs contender index: tts_prefix_[b] = number of stations with a
  /// non-empty replay queue whose raw index, clamped to [0, F], is <= b
  /// (bucket F collects heads beyond the class range — never eligible).
  /// Because idx = max(raw, frontier) folds every raw <= frontier station
  /// onto the frontier leaf, a poll's contender count is two prefix-sum
  /// lookups; the O(z) station walk then only runs on successes, to name
  /// the unique winner. Invalidated (tts_index_valid_) by exactly the
  /// events that invalidate a raw cache: a head advance or a reft_ move.
  std::vector<std::int32_t> tts_prefix_;
  bool tts_index_valid_ = false;
  /// STs contender index over the static leaf range [0, q): sts_prefix_[b]
  /// counts due-or-late stations whose current static index is <= b, and
  /// sts_owner_[b] names the station holding leaf b (static indices
  /// partition [0, q), so a leaf has at most one holder). A poll is one
  /// prefix-sum band; a success finds its winner by binary-searching the
  /// band for the lone step, then the owner map. Same invalidation rule
  /// as the TTs index, plus the tie-break entry that resets static_pos.
  std::vector<std::int32_t> sts_prefix_;
  std::vector<PerStation*> sts_owner_;
  bool sts_index_valid_ = false;
  bool handoff_valid_ = false;

  std::int64_t spans_compiled_ = 0;
  std::int64_t slots_compiled_ = 0;
  std::int64_t epochs_compiled_ = 0;
  std::int64_t compile_attempts_ = 0;
  std::int64_t replica_checks_ = 0;
  /// Sum of the stations' local-event tallies at the last full compare
  /// that passed; -1 until one has (tallies start at 0, so the first
  /// attempt always compares).
  std::int64_t verified_local_events_ = -1;
  std::int64_t bailouts_[static_cast<std::size_t>(obs::FrBail::kCount_)] = {};
};

}  // namespace hrtdm::core
