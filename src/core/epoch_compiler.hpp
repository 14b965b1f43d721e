// Compiled epoch fast path (docs/PERFORMANCE.md, "Compiled epoch fast
// path").
//
// On a clean channel the outcome of a CSMA/DDCR epoch is a pure function of
// the contender set at the TTs boundary: the m-ary tree recursion (whose
// cost is exactly xi(k, t, m), Eq. 1/3) is deterministic, so the full
// winner order, per-winner slot offsets, TTs/STs search costs and epoch
// length can be computed closed-form by replaying the station state machine
// in memory instead of slot by slot on the simulator. The CSMA-CD slots
// between epochs are as deterministic: a synced source transmits iff its
// EDF queue is non-empty, and a collision starts the next epoch at every
// source. EpochCompiler is the net::SpanCompiler that performs that replay;
// BroadcastChannel commits the resulting slot list as a compiled span (one
// resume event at the far boundary, lazy per-slot accounting) and hands the
// bulk end-of-span state back to the stations when the span elapses.
//
// Eligibility (the channel gates its own side: destructive mode, no
// interceptor, no noise draw, no Gilbert–Elliott chain):
//  - at least one online station, none in listen-only resync (a resyncing
//    station counts silent slots per observation, so slots cannot be
//    skipped under it);
//  - the synced stations sit mid-epoch (kTimeSearch / kStaticSearch), or in
//    CSMA-CD with a collision ahead (at least two online stations have a
//    queued message) or a pending post-TTs attempt; a lone CSMA-CD
//    transmission or a quiescent channel is not an attempt;
//  - their protocol digests are bit-identical (a defensive gate: a latent
//    desync becomes a bail-out to the interpreted path, never a
//    miscompile), and so are the registry amounts their tree engines would
//    flush (a committed span merges every copy into one replica);
//  - drop_late_messages is off (with it on, poll_intent prunes the queue
//    by wall time, so polls are not pure).
// A span runs across as many epochs as fit and stops only where the
// interpreted channel would stop polling or could not be replayed: at
// quiescence (CSMA-CD with no post-TTs attempt and every replay queue
// empty, DdcrStation::quiescent(); the channel's idle gap takes over), at
// the horizon, before an STs leaf collision, or at the kMaxSlots cap.
// A scheduled event off the simulator's arrival lane (a fault action, a
// bridge relay, a test callback) caps the compiled span at that event, and
// anything scheduled or appended into a committed span from outside the
// event loop dissolves it through the same ScheduleWatcher mechanism idle
// gaps use (docs/PERFORMANCE.md).
//
// Arrivals do not cap a span. The testbed appends every injected message
// to the simulator's arrival lane, and the replay applies the pending lane
// entries at the slot boundaries where the slot-by-slot loop would have
// seen them: before every replayed poll at t > start (contention and burst
// polls alike), every lane arrival with time <= t joins its station's
// replay queue, in lane order. Those arrival events are older than every
// slot-end event the loop would schedule inside the span, so they fire
// before the poll at t. A pending arrival at exactly `start` is newer than
// the event running the poll at `start`, so it joins from the next
// boundary. An arrival for an offline station is ignored. The arrival
// events still fire at their own times during the span, so the live queues
// fill as they would slot by slot; the span's deliveries leave them at
// hand-off, and served_before() lets an arrival record the queue depth the
// slot-by-slot run would have seen.
//
// Shared replica. The synced stations hold one SharedReplica
// (ddcr_station.hpp), so while no online station holds a private copy the
// digest gate holds by construction and costs nothing. A private copy
// exists only after a receiver-local event forked it (an observation the
// channel did not mark broadcast, reset_for_rejoin(), go_offline(),
// bring_online(), a watchdog detection); while one does, compile() reruns
// the full digest compare against the first online station's replica, and
// a committed span merges every online copy back: the replay runs on one
// copy of that replica and apply_handoff() installs the result as the
// shared replica, with each merged station's counter offset carried over.
// A span that bails merges nothing, so every station keeps exactly the
// state the interpreted loop would have left it in.
#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <utility>
#include <vector>

#include "core/ddcr_station.hpp"
#include "net/channel.hpp"
#include "obs/flight_recorder.hpp"
#include "sim/simulator.hpp"

namespace hrtdm::core {

/// One injected message and the station (its index on the channel) it
/// arrives at. The testbed keeps them in a ledger that the simulator's
/// arrival lane indexes.
struct Arrival {
  int station = 0;
  Message msg;
};

/// DdcrRunOptions knob for the fast path. kAuto defers to the
/// HRTDM_EPOCH_COMPILER environment variable ("off" / "0" / "false"
/// disables; anything else, or unset, enables).
enum class EpochCompilerMode { kAuto, kOn, kOff };

/// Resolves the effective on/off decision for a run.
bool epoch_compiler_enabled(EpochCompilerMode mode);

class EpochCompiler final : public net::SpanCompiler {
 public:
  /// `shared` is the replica the stations attached to `channel` hold.
  /// `simulator`'s arrival lane indexes `arrivals`, whose station fields
  /// index shared.stations_. All must outlive the compiler.
  EpochCompiler(net::BroadcastChannel& channel, SharedReplica& shared,
                sim::Simulator& simulator,
                const std::vector<Arrival>& arrivals);

  bool compile(SimTime start, SimTime horizon,
               std::vector<net::CompiledSlot>& out) override;
  void apply_handoff() override;
  void drop_handoff() override;

  /// Messages the committed span delivered for `station` in slots that
  /// ended before `now`: still in its queue until the hand-off, already
  /// gone slot by slot. 0 while no span is pending. Calls for one station
  /// must come in non-decreasing `now` (arrival events do).
  std::size_t served_before(int station, SimTime now);

  /// Spans handed off, the slots they held and the epochs that closed
  /// inside them (several per span). A span dissolved before its end
  /// counts in none of them: its slots ran slot by slot after all.
  std::int64_t spans_compiled() const { return spans_compiled_; }
  std::int64_t slots_compiled() const { return slots_compiled_; }
  std::int64_t epochs_compiled() const { return epochs_compiled_; }

  /// compile() calls that passed the entry gate (the stations sat mid-epoch,
  /// or in CSMA-CD with a collision or a post-TTs attempt ahead), so every
  /// one either committed a span or took exactly one of the bail-out
  /// reasons below. Invariant: compile_attempts() == spans_compiled() + sum
  /// of bailouts() + the committed spans that were dissolved.
  std::int64_t compile_attempts() const { return compile_attempts_; }
  /// Per-reason bail-outs (registry family
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
  /// the head), deliveries advance a const iterator in EDF order, merged
  /// with the arrivals the replay absorbed. Entries are reused across
  /// compiles, so their buffers keep their capacity.
  struct PerStation {
    struct Served {
      std::int64_t uid;
      SimTime end;  ///< the delivering slot's end
    };

    DdcrStation* s = nullptr;
    QueueIter it;
    /// Lane arrivals the replay absorbed, in EDF order; those from
    /// next_absorbed on are still queued in the replay.
    std::vector<Message> absorbed;
    std::size_t next_absorbed = 0;
    std::size_t static_pos = 0;
    std::vector<Served> delivered;  ///< in slot order; removed at hand-off
    std::size_t served = 0;         ///< served_before()'s cursor
    std::int64_t transmitted = 0;
    std::int64_t burst_transmitted = 0;
    /// Position in queued_deadline_/queued_per_, or -1 while the replay
    /// queue is empty.
    std::int32_t slot = -1;

    /// The replay queue's EDF head, or nullptr when it is empty.
    const Message* head() const {
      const bool live = it != s->queue_.end();
      if (next_absorbed == absorbed.size()) {
        return live ? &*it : nullptr;
      }
      const Message& arrived = absorbed[next_absorbed];
      return live && EdfQueue::precedes(*it, arrived) ? &*it : &arrived;
    }
  };

  /// Buffers the replay's reports until hand-off: registry amounts summed
  /// per name, histogram values and trace events in order. The compiled
  /// path leaves no replicated flight records (kSpanCommit stands for
  /// them), so those are dropped.
  class SpanReports final : public ReplicaSink {
   public:
    void clear(bool tracing);
    /// Emits everything through `sink` (the shared replica's holders).
    void flush(ReplicaSink& sink) const;

    void count(Count what, std::int64_t n) override;
    void observe(Hist what, std::int64_t value) override;
    void instant(SimTime ts, const char* name, const char* args,
                 std::int64_t a0, std::int64_t a1, std::int64_t a2,
                 Arg base) override;
    void span(SimTime start, SimTime end, const char* name, const char* args,
              std::int64_t a0, std::int64_t a1, std::int64_t a2) override;
    void replicated(obs::FrKind, SimTime, std::int64_t,
                    std::int64_t) override {}

   private:
    struct TraceEvent {
      bool is_span = false;
      SimTime ts;
      SimTime end;
      const char* name = nullptr;
      const char* args = nullptr;
      std::int64_t a0 = 0;
      std::int64_t a1 = 0;
      std::int64_t a2 = 0;
      Arg base = Arg::kNone;
    };
    std::int64_t counts_[static_cast<std::size_t>(Count::kCount_)] = {};
    bool touched_[static_cast<std::size_t>(Count::kCount_)] = {};
    std::vector<std::int64_t>
        values_[static_cast<std::size_t>(Hist::kCount_)];
    std::vector<TraceEvent> trace_;
  };

  /// The earliest absolute deadline (ns) whose raw class index
  /// floor((D - (reft + alpha)) / c) exceeds `b` in the replay: raw <= b
  /// iff D < class_end(b), so no class index is ever divided out.
  std::int64_t class_end(std::int64_t b) const;
  /// Rebuilds sts_prefix_/sts_owner_ from the queued heads; called lazily
  /// from the STs poll mirror.
  void rebuild_sts_index();

  /// Accounts one mid-epoch bail-out (counter family + kSpanBail flight
  /// record) and returns false so `return bail(...)` reads as a decline.
  bool bail(obs::FrBail reason, SimTime now);

  /// Moves every pending lane arrival with time <= `t` into its station's
  /// replay queue, in lane order; a new head updates (or adds) the
  /// station's queued-head entry and invalidates the STs index.
  void absorb_arrivals(SimTime t);

  /// True when at least two online stations have a queued message: the
  /// next CSMA-CD slot is a collision that starts an epoch.
  bool collision_ahead() const;

  /// Transmits `head` (ps.head()'s result) in a slot ending at `end`: the
  /// station's replay queue advances, and its queued-head entry follows
  /// (swap-removed when the queue empties).
  void serve(PerStation& ps, const Message* head, SimTime end);

  net::BroadcastChannel& channel_;
  SharedReplica& shared_;
  sim::Simulator& simulator_;
  const std::vector<Arrival>& arrivals_;

  // --- replay state (reset per compile(); the hand-off subset stays valid
  // until apply_handoff()/drop_handoff()) ---
  const DdcrConfig* cfg_ = nullptr;
  /// Working copy of the replica the stations held at compile time.
  DdcrReplica work_;
  /// Counters of the replica work_ was copied from (the merged stations'
  /// counter offsets are taken against them at hand-off).
  DdcrReplica::Counters base_counters_;
  /// Some online station held a private copy at compile time.
  bool merge_ = false;
  bool sts_streak_touched_ = false;
  SpanReports reports_;
  /// Slots and closed epochs of the span pending hand-off.
  std::int64_t span_slots_ = 0;
  std::int64_t span_epochs_ = 0;
  SimTime last_end_;
  std::vector<PerStation> per_;
  /// The queued heads: one entry per per_ station whose replay queue is
  /// non-empty, in no order — its head's absolute deadline (ns) and its
  /// per_ index, in two parallel arrays (PerStation::slot is the position).
  /// These are the CSMA-CD contenders, and a TTs probe of [lo, hi) counts
  /// its contenders in one pass over the deadlines: max(raw, frontier)
  /// lies in it iff D < class_end(hi - 1), because the frontier is lo
  /// while the search runs. A reft move costs nothing; a head change
  /// rewrites one entry.
  std::vector<std::int64_t> queued_deadline_;
  std::vector<std::int32_t> queued_per_;
  /// per_ index of each station (shared.stations_ order); -1 = offline.
  std::vector<std::int32_t> per_of_;
  /// The lane's pending entries, and the first one not yet absorbed. Set
  /// by each compile() and read only inside it: the simulator appends and
  /// fires nothing while a compile runs, so the view stays valid.
  std::span<const sim::LaneEntry> lane_;
  std::size_t next_lane_ = 0;
  /// STs contender index over the static leaf range [0, q): sts_prefix_[b]
  /// counts due-or-late stations (head deadline < class_end(leaf)) whose
  /// current static index is <= b, and sts_owner_[b] names the station
  /// holding leaf b (static indices partition [0, q), so a leaf has at most
  /// one holder). A poll is one prefix-sum band; a success finds its winner
  /// by binary-searching the band for the lone step, then the owner map,
  /// and patches the index in place. A new head, a burst, a reft move or
  /// the tie-break entry that resets static_pos invalidates it. It stays a
  /// prefix array rather than a pass over the queued heads because wide
  /// tie-breaks (a thousand queued heads, docs/PERFORMANCE.md) poll it far
  /// more often than they rebuild it.
  std::vector<std::int32_t> sts_prefix_;
  std::vector<PerStation*> sts_owner_;
  bool sts_index_valid_ = false;
  bool handoff_valid_ = false;

  std::int64_t spans_compiled_ = 0;
  std::int64_t slots_compiled_ = 0;
  std::int64_t epochs_compiled_ = 0;
  std::int64_t compile_attempts_ = 0;
  std::int64_t bailouts_[static_cast<std::size_t>(obs::FrBail::kCount_)] = {};
};

}  // namespace hrtdm::core
