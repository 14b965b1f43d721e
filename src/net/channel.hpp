// Slotted broadcast channel.
//
// Models the passive broadcast media of the paper (Ethernet segment, bus
// internal to an ATM switch). Time is divided into contention slots of
// length x; a successful transmission extends its slot to the frame's
// transmission time l'/psi. Three collision semantics are supported:
//
//  - kDestructive: >= 2 simultaneous transmitters destroy each other
//    (Ethernet); everyone observes a collision slot of length x.
//  - kArbitration: the wired-OR / exclusive-OR bus logic of ATM internal
//    busses makes collisions non-destructive: the slot resolves to the
//    lowest arb_key, which then transmits; losers observe the arbitration.
//
// Packet bursting (IEEE 802.3z) is available in either mode: after a
// successful transmission the winner may chain further frames up to the
// configured budget without releasing the channel.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "net/frame.hpp"
#include "net/phy.hpp"
#include "net/station.hpp"
#include "obs/flight_recorder.hpp"
#include "sim/simulator.hpp"
#include "util/rng.hpp"

namespace hrtdm::net {

enum class CollisionMode { kDestructive, kArbitration };

/// Diagnostic record per slot, for metrics and tests; unlike
/// SlotObservation it includes the contender count, which real stations
/// cannot see and protocol code must not use.
struct SlotRecord {
  SlotKind kind = SlotKind::kSilence;
  int contenders = 0;
  SimTime start;
  SimTime end;
  std::optional<Frame> frame;
  bool in_burst = false;
  bool arbitration = false;
};

class ChannelObserver {
 public:
  virtual ~ChannelObserver() = default;
  virtual void on_slot(const SlotRecord& record) = 0;

  /// Bulk notification for `slots` consecutive silence slots of an idle
  /// gap (a fast-forward span of implicit silence slots, committed while
  /// every station is quiescent), one call per flush of the span. The
  /// default synthesizes the exact per-slot on_slot calls a slot-by-slot
  /// run would have made, so observers that don't care stay bit-identical;
  /// aggregating observers override this with an O(1) bulk update.
  virtual void on_idle_gap(std::int64_t slots, SimTime first_start,
                           util::Duration slot_x) {
    SlotRecord record;
    record.kind = SlotKind::kSilence;
    record.contenders = 0;
    for (std::int64_t i = 0; i < slots; ++i) {
      record.start = first_start + slot_x * i;
      record.end = record.start + slot_x;
      on_slot(record);
    }
  }

  /// A compiled span covering [start, end) fully elapsed and was handed
  /// off (fired from the span's resume event, after the per-slot on_slot
  /// stream for those slots). Purely informational — the per-slot stream
  /// is already exact — so the default is a no-op; the tracer overrides it
  /// to emit a compiled-span marker on the channel track.
  virtual void on_compiled_span_commit(SimTime start, SimTime end,
                                       std::int64_t slots) {
    (void)start;
    (void)end;
    (void)slots;
  }
};

/// One slot of a compiled span: the exact SlotRecord the slot-by-slot loop
/// would have produced at the same time.
struct CompiledSlot {
  SlotRecord record;
  /// Burst budget (bits) the channel would offer poll_burst at this slot's
  /// end, or -1 when the channel is released at slot end (the next action
  /// is a fresh contention slot). A success slot with bursting enabled
  /// carries the full budget; a burst continuation carries the remainder.
  /// The span's last slot's value drives the resume action, and a dissolve
  /// uses it to rebuild the in-flight slot's pending burst state.
  std::int64_t burst_budget_next = -1;
};

/// Compiles spans of future slots closed-form (core::EpochCompiler — the
/// net layer stays core-free behind this interface). The channel consults
/// it at each contention-slot boundary when the channel itself is clean
/// (no interceptor, no noise draw, no Gilbert–Elliott chain, destructive
/// collisions); the compiler declines whenever station state is not a pure
/// function of the contender set.
class SpanCompiler {
 public:
  virtual ~SpanCompiler() = default;

  /// Attempts to compile >= 2 slots starting at `start`. Every produced
  /// slot must end at or before `horizon` (the next already-scheduled
  /// simulator event; nothing the compiled slots do not account for may
  /// fire inside the span). On true, the compiler retains the bulk
  /// end-of-span station state until exactly one of apply_handoff() /
  /// drop_handoff() is called; on false nothing is retained and `out` is
  /// ignored.
  virtual bool compile(SimTime start, SimTime horizon,
                       std::vector<CompiledSlot>& out) = 0;

  /// The whole span elapsed and its channel-side accounting was flushed:
  /// bulk-install the end-of-span station state (queues, engines, counters,
  /// buffered registry totals and trace events).
  virtual void apply_handoff() = 0;

  /// The span was dissolved mid-way. The channel has already replayed the
  /// flushed prefix through the stations slot by slot, so they sit exactly
  /// at the prefix boundary — discard the retained hand-off state.
  virtual void drop_handoff() = 0;
};

/// Fault-injection hook. By default the channel delivers the *same*
/// observation to every station (the broadcast property the replicated
/// protocol state machines depend on); an interceptor can violate that
/// property deliberately — per-receiver CRC errors, missed carrier sense —
/// and can destroy chosen transmissions symmetrically. Observations are
/// indexed by delivery order (`observations_delivered()`), which is the
/// deterministic time axis fault plans are scripted against.
class SlotInterceptor {
 public:
  virtual ~SlotInterceptor() = default;

  /// Called once per contention slot that resolved to kSuccess, before the
  /// channel's own noise draw; returning true destroys the transmission
  /// symmetrically (everyone sees a collision lasting the transmission
  /// time, exactly like PhyConfig::corruption_prob). Burst continuations
  /// are not offered.
  virtual bool corrupt_slot(std::int64_t slot_index) {
    (void)slot_index;
    return false;
  }

  /// Per-receiver delivery hook: `obs` is the true channel outcome; the
  /// return value is what `station_id` actually hears. SlotRecords and
  /// ChannelObservers always see the truth — only stations can be lied to.
  virtual SlotObservation deliver_to(int station_id, std::int64_t slot_index,
                                     const SlotObservation& obs) {
    (void)station_id;
    (void)slot_index;
    return obs;
  }
};

/// Aggregate channel statistics (maintained continuously).
struct ChannelStats {
  std::int64_t silence_slots = 0;
  std::int64_t collision_slots = 0;
  std::int64_t successes = 0;          ///< frames delivered (incl. bursts)
  std::int64_t burst_continuations = 0;
  std::int64_t arbitration_wins = 0;
  std::int64_t corrupted_frames = 0;   ///< transmissions destroyed by noise
  std::int64_t ge_bad_slots = 0;       ///< slots spent in the GE bad state
  std::int64_t ge_losses = 0;          ///< corrupted_frames due to GE loss
  std::int64_t bits_delivered = 0;     ///< sum of l over delivered frames
  util::Duration busy_time;            ///< time spent transmitting
  util::Duration idle_time;            ///< silence slots
  util::Duration contention_time;      ///< collision/arbitration slots

  /// Field-wise sum (a completed slot's delta into the running totals).
  ChannelStats& operator+=(const ChannelStats& delta);
};

/// Point-in-time introspection of a channel (docs/OBSERVABILITY.md).
/// Plain data; the bench harness serializes it into the "obs" section.
struct ChannelSnapshot {
  std::size_t stations = 0;
  bool running = false;
  std::int64_t observations_delivered = 0;
  ChannelStats stats;
  double utilization = 0.0;
};

class BroadcastChannel final : private sim::ScheduleWatcher {
 public:
  /// `noise_seed` feeds the corruption draw stream (only used when
  /// phy.corruption_prob > 0).
  BroadcastChannel(sim::Simulator& simulator, PhyConfig phy,
                   CollisionMode mode = CollisionMode::kDestructive,
                   std::uint64_t noise_seed = 0x5EEDULL);

  /// Stations must be attached before start() and outlive the channel.
  void attach(Station& station);
  void add_observer(ChannelObserver& observer);

  /// Installs (or clears, with nullptr) the fault-injection hook. The
  /// interceptor must outlive the channel or be cleared before teardown.
  /// An active fast-forward span committed under the "no interceptor"
  /// predicate is dissolved first.
  void set_interceptor(SlotInterceptor* interceptor);

  /// Installs (or clears, with nullptr) the compiled-span provider
  /// (core::EpochCompiler). Must be set before start() or while no
  /// compiled span is active; the compiler must outlive the channel or be
  /// cleared first.
  void set_span_compiler(SpanCompiler* compiler);

  /// Attaches (or detaches, with nullptr) the flight recorder this channel
  /// writes slot/gap/GE/span causal records into. Pure observability: the
  /// recorder never feeds back into protocol state or the digest. The
  /// recorder must outlive the channel or be detached first.
  void set_flight_recorder(obs::FlightRecorder* recorder) {
    recorder_ = recorder;
  }
  obs::FlightRecorder* flight_recorder() const { return recorder_; }

  /// Swaps the PHY configuration mid-run (e.g. a test flipping a clean
  /// channel into Gilbert–Elliott loss). slot_x must be unchanged (the
  /// in-flight slot's grid survives the swap). Any active fast-forward
  /// span is dissolved FIRST: a fast-forward committed under the
  /// old PHY must not extend over slots the new PHY would have treated
  /// differently — in particular, switching to GE must not skip slots
  /// whose GE chain state was never advanced. The GE chain starts in the
  /// good state; the swap takes effect from the next contention slot.
  void set_phy(const PhyConfig& phy);

  /// Observations delivered so far; the index passed to the interceptor
  /// for the observation currently being formed equals this value.
  std::int64_t observations_delivered() const {
    flush_span(simulator_.now());
    return observations_delivered_;
  }

  /// Successes already flushed out of an active compiled span (visible in
  /// stats() and observer streams) whose sender-queue removals still await
  /// the span's hand-off. Drain loops subtract this so "messages queued"
  /// matches the slot-by-slot world exactly at every sample point. Flushes
  /// the span up to now() first.
  std::int64_t unapplied_deliveries() const {
    flush_span(simulator_.now());
    return span_deliveries_;
  }

  /// Earliest future time at which lazily-flushed state (deliveries,
  /// stats, observer streams) changes without any simulator event firing:
  /// the end of the next unflushed success slot of an active compiled
  /// span, or SimTime::infinity(). This is the extra-horizon input for
  /// sim::run_chunked loops polling channel-derived conditions.
  SimTime next_compiled_delivery() const;

  /// Begins the slot loop at the simulator's current time. The loop runs
  /// until stop() or until the simulation horizon cuts it off.
  void start();
  void stop();

  const ChannelStats& stats() const {
    flush_span(simulator_.now());
    return stats_;
  }
  const PhyConfig& phy() const { return phy_; }
  CollisionMode mode() const { return mode_; }
  std::size_t station_count() const { return stations_.size(); }

  /// Fraction of elapsed channel time spent delivering payload bits.
  double utilization() const;

  /// Plain-data snapshot of stats + delivery progress.
  ChannelSnapshot snapshot() const;

  /// Brings the lazily accounted slots of an active fast-forward span
  /// (stats, counters, observers) up to the simulator's current time.
  /// Harness code calls this before reading observers (e.g. a
  /// MetricsCollector) directly; all of the channel's own accessors flush
  /// implicitly. Note this flushes channel-side accounting only — station
  /// state inside an active compiled span stays at the span entry point
  /// until the span resumes; use materialize_stations() before reading
  /// stations directly.
  void flush_accounting() const { flush_span(simulator_.now()); }

  /// Dissolves an active compiled span so every station is fully
  /// materialized at the current time (tests and harnesses read station
  /// digests and counters directly between run() calls). Channel-side
  /// accounting is flushed either way; idle gaps stay committed — stations
  /// in a gap are quiescent, hence already materialized.
  void materialize_stations();

  /// Code outside the event loop can mutate station state directly (a
  /// testbed crashing or resetting a station between runs), ending
  /// quiescence without any scheduled event the span's watcher could see.
  /// Harness entry points call this before advancing time again: an active
  /// span (idle gap or compiled) is dissolved so the slot loop re-evaluates
  /// slot by slot (and re-commits if nothing actually changed). No-op when
  /// no span is active.
  void revalidate_span();

 private:
  void begin_slot();
  void finish_slot();
  void finish_burst();
  /// Completes the pending slot: applies its stats delta and registry
  /// counts, then marks its observation broadcast unless an interceptor is
  /// installed and hands it (or the interceptor's per-receiver copy) to
  /// every station.
  void deliver();
  /// The flight record of a completed slot; `corrupt_bits` (FrCorrupt) is
  /// why a collision slot destroyed a transmission, 0 for contention.
  void record_slot(const SlotRecord& record, std::int64_t corrupt_bits) const;
  /// The registry counts of completed slots, the one mapping every
  /// delivery path shares: `delta` is the slots' summed stats delta and
  /// `per_contenders[i]` how many of them had `min_contenders + i`
  /// contenders (left zeroed). Zero counts touch no instrument.
  void count_slots(const ChannelStats& delta, int min_contenders,
                   std::span<std::int64_t> per_contenders) const;
  /// Continues a packet burst: polls `winner` for the next frame while
  /// budget remains, then hands the channel back to the contention loop.
  void continue_burst(Station& winner, std::int64_t budget_bits);

  // --- fast-forward spans ----------------------------------------------------
  // At a contention-slot boundary the channel may skip a run of slots whose
  // outcome is already known, committing them as one span with a single
  // resume event at the far boundary instead of one event per slot. A span
  // holds one of two slot kinds:
  //  - an idle gap: implicit silence slots of length x, committed when a
  //    slot resolves to silence and every station is quiescent(); it runs
  //    up to the next scheduled simulator event, or open-ended (no resume
  //    event) when none is pending;
  //  - a compiled span: the SpanCompiler's explicit CompiledSlot list for
  //    whole clean TTs/STs epochs (stations are handed the end-of-span
  //    state in bulk at resume).
  // Both share one commit, flush, resume and dissolve. Completed slots are
  // accounted lazily (flush_span) by one end rule: a slot counts once it has
  // ended, except the last, which counts only at the resume event. A
  // ScheduleWatcher dissolves the span if anything is scheduled into it
  // from outside the event loop.
  bool try_idle_gap(SimTime start);
  bool try_compiled_span(SimTime start);
  /// Commits `slots` slots (-1: open-ended) from `start`, resumed at `end`.
  void commit_span(SimTime start, std::int64_t slots, SimTime end);
  void resume_span();
  /// Accounts every span slot that ended at or before `upto` — stats,
  /// registry counters, observation indices, flight records and observers
  /// (on_slot per compiled slot, one on_idle_gap per run of silence) — the
  /// last one only once the span has `resumed`.
  void flush_span(SimTime upto, bool resumed = false) const;
  /// Aborts the active span at the current time: flushes the completed
  /// prefix, replays a compiled prefix through the stations (their state
  /// was untouched during the span), and rebuilds the in-flight slot from
  /// the span's own record as a regular pending slot — bit-identical to
  /// never fast-forwarding.
  void dissolve_span();
  void on_early_schedule(SimTime at) override;
  bool all_quiescent() const;
  /// The shared eligibility core of both span kinds: no per-receiver
  /// interception and no Gilbert–Elliott chain whose state would need
  /// advancing per slot. Idle gaps additionally require every station
  /// quiescent; compiled spans additionally require a noise-free
  /// destructive channel (see begin_slot).
  bool clean_for_fast_forward() const {
    return interceptor_ == nullptr && !phy_.ge_enabled;
  }
  /// The stats delta a completed slot with this record contributes — the
  /// same numbers begin_slot()/continue_burst() would have staged.
  ChannelStats record_delta(const SlotRecord& record) const;
  static SlotObservation observation_from(const SlotRecord& record);
  Station* station_by_id(int id) const;

  sim::Simulator& simulator_;
  PhyConfig phy_;
  CollisionMode mode_;
  util::Rng noise_rng_;
  // Gilbert–Elliott channel state. ge_rng_ is seeded independently of
  // noise_rng_ (SplitMix64 split of noise_seed) and is only ever drawn from
  // when phy_.ge_enabled, so enabling the model cannot perturb the i.i.d.
  // noise stream of existing pinned runs. The chain advances once per
  // contention slot; fast-forward spans are disabled under GE so the chain
  // sees every slot boundary.
  util::Rng ge_rng_;
  bool ge_bad_ = false;
  std::vector<Station*> stations_;
  std::vector<ChannelObserver*> observers_;
  SlotInterceptor* interceptor_ = nullptr;
  obs::FlightRecorder* recorder_ = nullptr;
  /// FrCorrupt bits of the pending slot (why a success became a collision);
  /// 0 for genuine contention. Recorder metadata only.
  std::int64_t pending_corrupt_bits_ = 0;
  bool running_ = false;
  bool started_once_ = false;
  SimTime started_at_;

  // In-flight slot state. Exactly one slot (or burst continuation) is in
  // flight at a time, so keeping it in members lets the slot-end events
  // capture only `this` (inline in the simulator's event pool, no heap).
  std::vector<std::pair<Station*, Frame>> intents_;  ///< reused each slot
  SlotObservation pending_obs_;
  SlotRecord pending_record_;
  ChannelStats pending_delta_;
  Station* pending_winner_ = nullptr;
  bool pending_burst_possible_ = false;
  std::int64_t pending_burst_budget_ = 0;

  // Span bookkeeping. `mutable` (with stats_ and observations_delivered_)
  // because const accessors flush lazily accounted slots.
  mutable std::int64_t observations_delivered_ = 0;
  mutable ChannelStats stats_;
  SpanCompiler* span_compiler_ = nullptr;
  /// The active compiled span's slots (a reused buffer); empty while the
  /// active span is an idle gap.
  std::vector<CompiledSlot> span_;
  mutable bool span_active_ = false;
  SimTime span_start_;
  std::int64_t span_slots_ = 0;  ///< total slots; -1 = open-ended
  mutable std::int64_t span_flushed_ = 0;      ///< slots fully accounted
  mutable std::int64_t span_next_success_ = 0; ///< next_compiled_delivery cache
  mutable std::int64_t span_deliveries_ = 0;   ///< flushed, hand-off pending
  /// Scratch histogram buckets (index = contender count) reused by
  /// flush_span's batched registry counts; always left zeroed.
  mutable std::vector<std::int64_t> contender_counts_;
  sim::EventHandle span_resume_;
};

}  // namespace hrtdm::net
