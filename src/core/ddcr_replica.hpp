// The replicated CSMA/DDCR protocol state and its transitions (section 3.2).
//
// Every station hears the same channel feedback, so the protocol state of
// the synced stations is one state machine: the mode, the two tree-search
// engines, reft and the compressed-time carry, the leaf under tie-break and
// the TTs `out` flag. DdcrReplica holds exactly that state (everything
// protocol_digest() mixes) plus the counters every replica in lock-step
// advances alike, and owns the transitions that move it: epoch start, TTs
// start and end, STs end and the per-slot TTs/STs feedback step. The
// stations drive it from their observe(); the epoch compiler replays it on
// a working copy. Everything per-station — the queue, the static-index
// cursor, the watchdog and resync tallies — stays in DdcrStation.
//
// A transition reports through a ReplicaSink: registry amounts, the trace
// events of the stations' protocol tracks and the replicated flight
// records. The sink decides how often each report counts (once per station
// that holds the replica) and where it goes (emitted at once, or buffered
// until a compiled span is handed off).
#pragma once

#include <cstdint>

#include "core/ddcr_config.hpp"
#include "core/tree_search.hpp"
#include "net/station.hpp"
#include "obs/flight_recorder.hpp"

namespace hrtdm::core {

using util::SimTime;

/// Receives what a replica transition reports. Registry amounts and trace
/// events are per replica: a sink for a replica that several stations
/// hold counts each amount once per holder and draws each event on every
/// holder's track.
class ReplicaSink {
 public:
  /// Registry counters a transition advances (ddcr.* and the tree.*
  /// amounts a search flushes when the next one begins).
  enum class Count {
    kEpochs,
    kTtsRuns,
    kStsRuns,
    kCompressions,
    kStaticLeafRetries,
    kTreeSearches,
    kTreeSilence,
    kTreeCollision,
    kTreeInferred,
    kCount_
  };
  /// Histograms: ddcr.tts_search_slots, ddcr.sts_search_slots.
  enum class Hist { kTtsSearchSlots, kStsSearchSlots, kCount_ };
  /// Names the replica counter an instant's first argument is: each
  /// station draws it plus its own counter offset.
  enum class Arg { kNone, kEpochs, kTtsRuns };

  virtual ~ReplicaSink() = default;
  /// False when no holder traces: callers skip building trace events.
  bool tracing() const { return tracing_; }
  /// False when replicated flight records go nowhere: callers skip them.
  bool recording() const { return recording_; }

  virtual void count(Count what, std::int64_t n) = 0;
  virtual void observe(Hist what, std::int64_t value) = 0;
  virtual void instant(SimTime ts, const char* name, const char* args,
                       std::int64_t a0, std::int64_t a1, std::int64_t a2,
                       Arg base) = 0;
  virtual void span(SimTime start, SimTime end, const char* name,
                    const char* args, std::int64_t a0, std::int64_t a1,
                    std::int64_t a2) = 0;
  /// A protocol-replicated flight record (obs::FlightRecorder
  /// record_replicated).
  virtual void replicated(obs::FrKind kind, SimTime t, std::int64_t a,
                          std::int64_t b) = 0;

 protected:
  // Plain flags, not virtual calls: the feedback step checks both on
  // every slot, and the compiled replay runs it for every compiled slot.
  bool tracing_ = false;
  bool recording_ = false;
};

class DdcrReplica {
 public:
  enum class Mode { kCsmaCd, kTimeSearch, kStaticSearch, kResync, kOffline };

  /// Counters every replica in lock-step advances alike.
  struct Counters {
    std::int64_t epochs = 0;
    std::int64_t tts_runs = 0;
    std::int64_t sts_runs = 0;
    std::int64_t compressions = 0;
    std::int64_t search_slots_time = 0;
    std::int64_t search_slots_static = 0;
    std::int64_t static_leaf_retries = 0;
  };

  /// What a feedback step did that each holder follows up on its own
  /// (static-index cursor, lone-leaf retry streak).
  enum class Step : std::uint8_t {
    kNone,
    kStsEntered,  ///< TTs leaf collision: the tie-break began
    kStsProbed,   ///< an STs probe resolved (not a lone-leaf retry)
    kStsRetried,  ///< STs lone-leaf collision: the leaf was requeued
  };

  /// The replica views `config`, which must outlive it.
  explicit DdcrReplica(const DdcrConfig& config);

  /// One contention slot's feedback in CSMA-CD, TTs or STs mode (not a
  /// burst continuation; the divergence watchdog already passed).
  Step feedback(net::SlotKind kind, SimTime start, SimTime end,
                ReplicaSink& sink);
  /// A burst continuation: no probe happened, only the TTs `out` flag
  /// learns of the transmission.
  void hear_burst(net::SlotKind kind) {
    if (mode_ != Mode::kCsmaCd) {
      tts_saw_transmission_ =
          tts_saw_transmission_ || kind == net::SlotKind::kSuccess;
    }
  }
  /// Divergence watchdog (docs/FAULTS.md): a success the probed interval
  /// cannot have produced on a consistent replica, in TTs or STs mode.
  /// Exact: no false positives in fault-free operation.
  bool impossible_success(const net::SlotObservation& obs) const;

  /// Discards all protocol state (a crash, quarantine or churn) and parks
  /// the replica in `mode` (kResync or kOffline). Counters survive.
  void reset(Mode mode);
  /// The quiet certificate was heard: rejoin in CSMA-CD mode.
  void rejoin() { mode_ = Mode::kCsmaCd; }
  void go_offline() { mode_ = Mode::kOffline; }

  Mode mode() const { return mode_; }
  SimTime reft() const { return reft_; }
  std::int64_t sts_leaf() const { return sts_leaf_; }
  bool post_tts_attempt() const { return post_tts_attempt_; }
  const TreeSearchEngine& time_engine() const { return time_engine_; }
  const TreeSearchEngine& static_engine() const { return static_engine_; }
  const Counters& counters() const { return counters_; }
  const DdcrConfig& config() const { return *config_; }
  /// End of the last slot this replica heard (timestamp for the
  /// event-less station hooks: resets, churn, watchdog).
  SimTime heard_at() const { return heard_at_; }
  void set_heard_at(SimTime t) { heard_at_ = t; }

  /// The raw deadline-class index floor((DM - (alpha + reft)) / c).
  std::int64_t raw_time_index(SimTime absolute_deadline) const;

  /// Digest over the replicated protocol state (the counters are not part
  /// of it).
  std::uint64_t digest() const;
  /// True when both tree engines would flush the same registry amounts
  /// for their current searches: digest() mixes each engine's search-slot
  /// total but not its split into silence and collision slots, so
  /// replicas with equal digests can still differ here.
  bool same_pending_reports(const DdcrReplica& other) const;

 private:
  void start_epoch(SimTime now, ReplicaSink& sink);
  void start_tts(SimTime now, ReplicaSink& sink);
  void finish_tts(SimTime now, ReplicaSink& sink);
  void finish_sts(SimTime now, ReplicaSink& sink);
  /// Flushes the registry amounts of `engine`'s previous search, then
  /// begins a new one (the engines themselves stay registry-muted).
  static void begin_search(TreeSearchEngine& engine, ReplicaSink& sink);

  const DdcrConfig* config_;
  Mode mode_ = Mode::kCsmaCd;
  TreeSearchEngine time_engine_;
  TreeSearchEngine static_engine_;
  SimTime reft_;
  SimTime carried_reft_;             ///< compressed reft carried across
                                     ///< cap-closed epochs
  int consecutive_empty_tts_ = 0;    ///< for the max_empty_tts cap
  std::int64_t sts_leaf_ = -1;       ///< time leaf under tie-break
  bool tts_saw_transmission_ = false;  ///< the `out` boolean of TTs
  bool post_tts_attempt_ = false;    ///< perpetual mode: restart TTs after
                                     ///< the à-la-CSMA-CD attempt slot
  Counters counters_;
  SimTime heard_at_;
};

}  // namespace hrtdm::core
