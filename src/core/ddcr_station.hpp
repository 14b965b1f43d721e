// The CSMA/DDCR protocol state machine (section 3.2).
//
// Each station runs:
//  - LA: a local EDF queue; msg* is its head.
//  - CSMA-CD sharing while no unresolved collision is pending.
//  - On a collision, every station (with or without messages) initiates
//    CSMA/DDCR: a *time tree search* (TTs) over F deadline-equivalence
//    classes of width c, where a message's leaf is
//        f(reft, msg) = max(floor((DM - (alpha + reft)) / c), f* + 1),
//    and, on a time-leaf collision (several messages in one deadline
//    class), a *static tree search* (STs) over q per-source static indices
//    as the deterministic tie-break. The combination emulates distributed
//    non-preemptive EDF.
//
// The protocol state that must stay identical across stations (mode, tree
// engines, reft, the leaf under tie-break) is driven exclusively by channel
// observations, so it is one state machine per channel: a DdcrReplica the
// channel's SharedReplica holds and every synced station points at. A
// broadcast observation advances it once — the first station that hears it
// steps it, the others read what the step did — and each station then does
// only its own part: its queue, its static-index cursor and its tallies.
// A receiver-local event (an observation not marked broadcast, a reset, a
// churn leave or join, a watchdog detection) forks a private copy for the
// station it hits; the epoch compiler merges a converged copy back at the
// next committed span (epoch_compiler.hpp). protocol_digest() reads
// whichever replica the station holds.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <span>
#include <vector>

#include "core/ddcr_config.hpp"
#include "core/ddcr_replica.hpp"
#include "core/edf_queue.hpp"
#include "net/station.hpp"
#include "obs/event_tracer.hpp"
#include "obs/flight_recorder.hpp"
#include "traffic/message.hpp"

namespace hrtdm::net {
class BroadcastChannel;
}  // namespace hrtdm::net

namespace hrtdm::core {

using net::Frame;
using net::SlotObservation;
using traffic::Message;
using util::SimTime;

/// Point-in-time introspection of one station (docs/OBSERVABILITY.md).
/// Plain data; the bench harness serializes it into the "obs" section.
struct StationSnapshot {
  int id = 0;
  const char* mode = "csma-cd";
  bool synced = true;
  std::size_t queue_depth = 0;
  bool has_head = false;
  std::int64_t head_uid = -1;
  std::int64_t head_deadline_ns = 0;
  std::int64_t reft_ns = 0;
  bool tts_active = false;
  std::int64_t tts_lo = 0;       ///< probed interval (valid iff tts_active)
  std::int64_t tts_size = 0;
  std::int64_t tts_resolved = 0; ///< f* + 1: leaves already searched
  bool sts_active = false;
  std::int64_t sts_lo = 0;       ///< probed interval (valid iff sts_active)
  std::int64_t sts_size = 0;
  std::int64_t sts_leaf = -1;    ///< time leaf under tie-break
  std::int64_t resync_silences = 0;
};

class DdcrStation;

/// The channel's one protocol replica and the stations that hold it
/// (docs/PERFORMANCE.md, "Shared replica"). Owned by the testbed, one per
/// channel; stations register in attach order and start out sharing.
class SharedReplica {
 public:
  /// `channel` is the channel the stations attach to: a station mutated
  /// from outside the event loop materializes it before forking.
  SharedReplica(const DdcrConfig& config, net::BroadcastChannel& channel);
  SharedReplica(const SharedReplica&) = delete;
  SharedReplica& operator=(const SharedReplica&) = delete;

  /// Stations currently holding the shared replica.
  std::int64_t members() const { return members_; }
  /// Stations that left the shared replica for a private copy (each at a
  /// receiver-local event), and private copies merged back at a committed
  /// span. Plain run totals, not registry counters.
  std::int64_t forks() const { return forks_; }
  std::int64_t merges() const { return merges_; }

 private:
  friend class DdcrStation;
  friend class EpochCompiler;

  DdcrReplica replica_;
  /// The channel delivery index the replica last stepped for, and what
  /// that step did: later holders of the same observation read it
  /// instead of stepping again.
  std::int64_t stepped_index_ = -1;
  DdcrReplica::Step last_step_ = DdcrReplica::Step::kNone;
  net::BroadcastChannel& channel_;
  std::vector<DdcrStation*> stations_;  ///< attach order
  std::int64_t members_ = 0;
  std::int64_t forks_ = 0;
  std::int64_t merges_ = 0;
  bool traced_ = false;  ///< some station has a tracer attached
};

class DdcrStation final : public net::Station {
 public:
  using Mode = DdcrReplica::Mode;

  static const char* mode_name(Mode mode);

  struct Counters {
    std::int64_t epochs = 0;            ///< CSMA/DDCR invocations
    std::int64_t tts_runs = 0;          ///< time tree searches started
    std::int64_t sts_runs = 0;          ///< static tree searches started
    std::int64_t compressions = 0;      ///< reft += theta applications
    std::int64_t rejoins = 0;           ///< crash-recovery resyncs completed
    std::int64_t transmitted = 0;       ///< own frames delivered
    std::int64_t burst_transmitted = 0; ///< own frames delivered in bursts
    std::int64_t search_slots_time = 0;   ///< time-tree search slots heard
    std::int64_t search_slots_static = 0; ///< static-tree search slots heard
    std::int64_t static_leaf_retries = 0; ///< noise-corrupted static leaves
    std::int64_t dropped_late = 0;        ///< shed past-deadline messages
    std::int64_t desyncs_detected = 0;    ///< protocol-impossible observations
    std::int64_t quarantines = 0;         ///< watchdog-triggered self-resets
    std::int64_t churn_leaves = 0;        ///< go_offline() departures
    std::int64_t churn_joins = 0;         ///< bring_online() re-entries
  };

  /// The station keeps a reference to `config`, which must outlive it:
  /// every station of a channel views the one config its owner resolved.
  /// Its own indices are config.static_indices[id], a ranked subset of
  /// [0, q). It registers with `shared` and starts out holding it.
  DdcrStation(int id, const DdcrConfig& config, SharedReplica& shared);
  /// A temporary config would dangle.
  DdcrStation(int id, const DdcrConfig&& config, SharedReplica& shared) =
      delete;

  /// Delivers a message to the local queue (LA runs on arrival).
  /// `served` is EdfQueue::push's: queued messages a committed compiled
  /// span has already delivered.
  void enqueue(const Message& msg, std::size_t served = 0);

  // --- net::Station ---
  int id() const override { return id_; }
  std::optional<Frame> poll_intent(SimTime now) override;
  void observe(const SlotObservation& obs) override;
  std::optional<Frame> poll_burst(SimTime now,
                                  std::int64_t budget_bits) override;
  /// Idle CSMA-CD with an empty queue: poll_intent stays nullopt and
  /// observe(silence) is a state no-op (only a collision, a queued message
  /// or a pending post-TTs attempt changes anything). kResync is NOT
  /// quiescent — it counts silent slots toward the quiet certificate.
  /// kOffline IS quiescent: an offline station neither transmits nor
  /// processes observations, so every slot is a state no-op for it.
  bool quiescent() const override {
    const Mode mode = replica_->mode();
    return (mode == Mode::kCsmaCd && !replica_->post_tts_attempt() &&
            queue_.empty()) ||
           mode == Mode::kOffline;
  }

  /// Crash recovery — and the divergence watchdog's quarantine path:
  /// discards all protocol state (the queue survives — a
  /// MAC reset does not lose locally buffered messages) and re-enters via
  /// a listen-only resync phase. The station transmits nothing until it
  /// has heard config.resync_silence_threshold() consecutive silent slots,
  /// which certifies that no collision-resolution epoch is in progress, so
  /// rejoining in CSMA-CD mode is consistent with every live station.
  /// Requires a configuration with bounded in-epoch silence streaks
  /// (fallback mode with theta = 0 or max_empty_tts > 0).
  void reset_for_rejoin();

  /// Churn departure (fault::ChurnPlan): discards protocol state exactly
  /// like reset_for_rejoin() but parks the station fully offline — it
  /// neither transmits nor listens. The local queue survives, as for a
  /// crash. Requires a rejoinable configuration: the only way back is
  /// bring_online()'s listen-only resync.
  void go_offline();

  /// Churn re-entry: the station powers back up with no protocol state and
  /// re-enters through the same quiet-period resync path as a crash
  /// recovery. Only valid while offline.
  void bring_online();

  bool online() const { return replica_->mode() != Mode::kOffline; }

  /// False while the station is in the listen-only resync phase or
  /// offline.
  bool synced() const {
    const Mode mode = replica_->mode();
    return mode != Mode::kResync && mode != Mode::kOffline;
  }

  /// True while the station holds the channel's shared replica (false
  /// from a receiver-local event until a committed span merges it back).
  bool shares_replica() const { return replica_ == &shared_->replica_; }

  // --- introspection ---
  Mode mode() const { return replica_->mode(); }
  const EdfQueue& queue() const { return queue_; }
  SimTime reft() const { return replica_->reft(); }
  /// The replica's counters plus this station's own tallies.
  Counters counters() const;
  /// The shared, read-only channel config this station views.
  const DdcrConfig& config() const { return config_; }
  /// This source's static indices: a view into config().static_indices.
  std::span<const std::int64_t> static_indices() const { return my_indices_; }
  /// Digest over the replicated protocol state only (identical across all
  /// stations at every slot boundary).
  std::uint64_t protocol_digest() const { return replica_->digest(); }

  /// Plain-data snapshot of mode, queue, tree positions and counters.
  StationSnapshot snapshot() const;

  /// Attaches a protocol event tracer: epoch/TTs/STs/watchdog events land
  /// on track (pid = channel_id, tid = id() + 1). nullptr detaches.
  /// Tracing never touches replicated state or protocol_digest().
  void set_trace(obs::EventTracer* tracer, int channel_id);

  /// Attaches the channel's flight recorder: epoch/TTs/STs/watchdog/churn
  /// causal records land in the shared per-channel ring (protocol-
  /// replicated events deduped across synced stations). nullptr detaches.
  /// Like tracing, recording never touches replicated state or
  /// protocol_digest().
  void set_flight_recorder(obs::FlightRecorder* recorder) {
    recorder_ = recorder;
  }

  /// The raw deadline-class index floor((DM - (alpha + reft)) / c).
  std::int64_t raw_time_index(SimTime absolute_deadline) const {
    return replica_->raw_time_index(absolute_deadline);
  }

 private:
  /// The epoch compiler replays the shared replica on a working copy,
  /// reads the queues and static-index cursors and hands the end-of-span
  /// state back (one replica install, plus the winners' queues).
  friend class EpochCompiler;
  /// Emits a replica's reports live. The shared replica's reports count
  /// once per holder (the registry amounts the holders' own copies would
  /// have added up to), land on every holder's track, and reach the flight
  /// recorder under the stepping station's id; a private copy's reports
  /// are its station's alone.
  class LiveSink final : public ReplicaSink {
   public:
    /// Reports of the replica `emitter` holds.
    explicit LiveSink(const DdcrStation& emitter);
    /// Reports of the shared replica, held by `holders` stations.
    LiveSink(const DdcrStation& emitter, std::int64_t holders);

    void count(Count what, std::int64_t n) override;
    void observe(Hist what, std::int64_t value) override;
    void instant(SimTime ts, const char* name, const char* args,
                 std::int64_t a0, std::int64_t a1, std::int64_t a2,
                 Arg base) override;
    void span(SimTime start, SimTime end, const char* name, const char* args,
              std::int64_t a0, std::int64_t a1, std::int64_t a2) override;
    void replicated(obs::FrKind kind, SimTime t, std::int64_t a,
                    std::int64_t b) override;

   private:
    template <typename Draw>
    void for_each_track(Draw&& draw) const;

    const DdcrStation& emitter_;
    bool shared_;
    std::int64_t weight_;
  };

  /// Adds `sign` times the replica counters `from` to their fields in `to`.
  static void add(Counters& to, const DdcrReplica::Counters& from,
                  std::int64_t sign = 1);

  /// Sheds queue heads already past their deadline at `now`. Called only
  /// with drop_late_messages set: poll_intent tests the flag inline, so
  /// the common case makes no call.
  void prune_late(SimTime now);

  /// Every mutator's first step: materializes the channel (so a call from
  /// a simulator callback at a compiled span's end acts on stations at the
  /// state the slot-by-slot loop would have) and, when this station holds
  /// the shared replica, moves it to a private copy of it.
  void fork();
  /// The divergence watchdog's detection (docs/FAULTS.md): counts it and,
  /// when the configuration supports the quiet-period certificate,
  /// quarantines via reset_for_rejoin(). Returns true when quarantined
  /// (the observation must not be processed).
  bool note_desync();
  /// The quiet-period rejoin count of a resyncing station.
  void hear_while_resyncing(const SlotObservation& obs);
  /// This station's part of a feedback step its replica took.
  void follow(DdcrReplica::Step step, const SlotObservation& obs, bool mine);

  /// f(reft, msg) with the f* + 1 floor; nullopt when the message cannot
  /// enter the current time tree (index beyond F - 1).
  std::optional<std::int64_t> effective_time_index(const Message& msg) const;

  /// EDF-first queued message due at or before the tie-break leaf.
  std::optional<Message> sts_candidate() const;

  Frame make_frame(const Message& msg) const;

  /// True when an attached tracer is live (the emit helpers below bail out
  /// early otherwise, keeping the uninstrumented path to one branch).
  bool tracing() const { return tracer_ != nullptr && tracer_->enabled(); }
  void trace_instant(const char* name, const char* arg_names = "",
                     std::int64_t a0 = 0, std::int64_t a1 = 0,
                     std::int64_t a2 = 0);

  int id_;
  const DdcrConfig& config_;
  std::span<const std::int64_t> my_indices_;
  SharedReplica* shared_;
  /// The replica this station holds: &shared_->replica_, or own_.
  DdcrReplica* replica_;
  /// Private copy, allocated at the first fork and reused by later ones.
  std::unique_ptr<DdcrReplica> own_;

  EdfQueue queue_;
  std::size_t static_pos_ = 0;       ///< next of my indices usable this STs
  int sts_retry_streak_ = 0;         ///< consecutive lone-leaf STs retries
                                     ///< (watchdog rule: bounded unless
                                     ///< replicas diverged)
  std::int64_t resync_silences_ = 0; ///< quiet streak heard while resyncing
  /// This station's own tallies; the fields the replica also counts hold
  /// the offset between this station's value and its replica's, so
  /// counters() reads the same through forks and merges.
  Counters tally_;

  // --- observability only (never part of protocol_digest()) ---
  obs::EventTracer* tracer_ = nullptr;
  std::int32_t trace_pid_ = 0;       ///< channel id = Perfetto process id
  obs::FlightRecorder* recorder_ = nullptr;
};

}  // namespace hrtdm::core
