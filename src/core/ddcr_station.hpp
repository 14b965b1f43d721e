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
// observations; protocol_digest() exposes it for the consistency tests.
#pragma once

#include <cstdint>
#include <optional>
#include <span>

#include "core/ddcr_config.hpp"
#include "core/edf_queue.hpp"
#include "core/tree_search.hpp"
#include "net/station.hpp"
#include "obs/event_tracer.hpp"
#include "obs/flight_recorder.hpp"
#include "traffic/message.hpp"

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

class DdcrStation final : public net::Station {
 public:
  enum class Mode { kCsmaCd, kTimeSearch, kStaticSearch, kResync, kOffline };

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
  /// [0, q).
  DdcrStation(int id, const DdcrConfig& config);
  /// A temporary config would dangle.
  DdcrStation(int id, const DdcrConfig&& config) = delete;

  /// Delivers a message to the local queue (LA runs on arrival).
  void enqueue(const Message& msg);

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
    return (mode_ == Mode::kCsmaCd && !post_tts_attempt_ && queue_.empty()) ||
           mode_ == Mode::kOffline;
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

  bool online() const { return mode_ != Mode::kOffline; }

  /// False while the station is in the listen-only resync phase or
  /// offline.
  bool synced() const {
    return mode_ != Mode::kResync && mode_ != Mode::kOffline;
  }

  // --- introspection ---
  Mode mode() const { return mode_; }
  const EdfQueue& queue() const { return queue_; }
  SimTime reft() const { return reft_; }
  const Counters& counters() const { return counters_; }
  /// The shared, read-only channel config this station views.
  const DdcrConfig& config() const { return config_; }
  /// This source's static indices: a view into config().static_indices.
  std::span<const std::int64_t> static_indices() const { return my_indices_; }
  /// Digest over the replicated protocol state only (identical across all
  /// stations at every slot boundary).
  std::uint64_t protocol_digest() const;

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
  std::int64_t raw_time_index(SimTime absolute_deadline) const;

 private:
  /// The epoch compiler replays this state machine closed-form on working
  /// copies and bulk-installs the end-of-span state (epoch_compiler.cpp
  /// mirrors observe()/poll_intent() line by line — keep them in sync).
  friend class EpochCompiler;

  /// With drop_late_messages set, sheds queue heads already past their
  /// deadline at `now`.
  void prune_late(SimTime now);

  // --- divergence watchdog (docs/FAULTS.md) ---
  // On consistent replicas a transmitter only speaks when its address falls
  // inside the interval every station is probing, so a success that fails
  // these checks proves the *local* replica has diverged (an asymmetric
  // receive fault rewrote some earlier observation). The checks are exact:
  // no false positives in fault-free operation.

  /// TTs: the sender's effective deadline-class index must lie in the
  /// probed interval.
  bool impossible_tts_success(const Frame& frame) const;
  /// STs: the sender must own a static index in the probed interval
  /// (judged only when config_.static_indices covers the sender).
  bool impossible_sts_success(const Frame& frame) const;
  /// Counts the detection and, when the configuration supports the
  /// quiet-period certificate, quarantines via reset_for_rejoin().
  /// Returns true when quarantined (the observation must not be processed).
  bool note_desync();


  /// f(reft, msg) with the f* + 1 floor; nullopt when the message cannot
  /// enter the current time tree (index beyond F - 1).
  std::optional<std::int64_t> effective_time_index(const Message& msg) const;

  /// EDF-first queued message due at or before the tie-break leaf.
  std::optional<Message> sts_candidate() const;

  Frame make_frame(const Message& msg) const;

  void start_epoch(SimTime now);
  void start_tts();
  void finish_tts(SimTime now);
  void finish_sts(SimTime now);

  /// True when an attached tracer is live (the emit helpers below bail out
  /// early otherwise, keeping the uninstrumented path to one branch).
  bool tracing() const { return tracer_ != nullptr && tracer_->enabled(); }
  void trace_instant(const char* name, const char* arg_names = "",
                     std::int64_t a0 = 0, std::int64_t a1 = 0,
                     std::int64_t a2 = 0);
  void trace_span(SimTime start, SimTime end, const char* name,
                  const char* arg_names = "", std::int64_t a0 = 0,
                  std::int64_t a1 = 0, std::int64_t a2 = 0);

  int id_;
  const DdcrConfig& config_;
  std::span<const std::int64_t> my_indices_;

  EdfQueue queue_;
  Mode mode_ = Mode::kCsmaCd;
  TreeSearchEngine time_engine_;
  TreeSearchEngine static_engine_;
  SimTime reft_;
  std::int64_t sts_leaf_ = -1;       ///< time leaf under tie-break
  std::size_t static_pos_ = 0;       ///< next of my indices usable this STs
  bool tts_saw_transmission_ = false;  ///< the `out` boolean of TTs
  bool post_tts_attempt_ = false;    ///< perpetual mode: restart TTs after
                                     ///< the à-la-CSMA-CD attempt slot
  int consecutive_empty_tts_ = 0;    ///< for the max_empty_tts cap
  int sts_retry_streak_ = 0;         ///< consecutive lone-leaf STs retries
                                     ///< (watchdog rule: bounded unless
                                     ///< replicas diverged)
  SimTime carried_reft_;             ///< compressed reft carried across
                                     ///< cap-closed epochs
  std::int64_t resync_silences_ = 0; ///< quiet streak heard while resyncing
  Counters counters_;

  // --- observability only (never part of protocol_digest()) ---
  obs::EventTracer* tracer_ = nullptr;
  std::int32_t trace_pid_ = 0;       ///< channel id = Perfetto process id
  SimTime trace_now_;                ///< timestamp for event-less hooks
  obs::FlightRecorder* recorder_ = nullptr;
};

}  // namespace hrtdm::core
