// Facade: builds a complete CSMA/DDCR network (simulator, channel,
// stations, traffic injection, metrics) from a workload and runs it.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "core/ddcr_config.hpp"
#include "core/ddcr_station.hpp"
#include "core/epoch_compiler.hpp"
#include "core/metrics.hpp"
#include "net/channel.hpp"
#include "obs/flight_recorder.hpp"
#include "obs/forensics.hpp"
#include "sim/simulator.hpp"
#include "traffic/workload.hpp"

namespace hrtdm::obs {
class ChannelTracer;
class EventTracer;
}  // namespace hrtdm::obs

namespace hrtdm::core {

struct DdcrRunOptions {
  net::PhyConfig phy = net::PhyConfig::gigabit_ethernet();
  net::CollisionMode collision_mode = net::CollisionMode::kDestructive;
  /// ddcr.static_indices may be left empty: one spread index per source is
  /// allocated automatically.
  DdcrConfig ddcr;
  traffic::ArrivalKind arrivals = traffic::ArrivalKind::kSaturatingAdversary;
  /// Arrivals are generated over [0, arrival_horizon).
  SimTime arrival_horizon = SimTime::from_ns(100'000'000);
  /// After the arrival horizon the run continues (no new arrivals) until
  /// the queues drain or this cap is hit.
  SimTime drain_cap = SimTime::from_ns(400'000'000);
  std::uint64_t seed = 1;
  /// Compare every station's protocol digest after every slot (slow; used
  /// by the distributed-consistency tests).
  bool check_consistency = false;
  /// The run intends to exercise crash/rejoin or watchdog quarantine:
  /// configurations under which the quiet-period certificate is unsound
  /// (rejoin would livelock) are rejected at network construction with an
  /// actionable message instead of failing deep inside reset_for_rejoin().
  /// The fault harnesses (fault::run_campaign, fault::run_stabilization)
  /// always set it.
  bool require_rejoinable = false;
  /// Number of scripted churn events (fault::ChurnPlan) the harness intends
  /// to drive through this network's stations. The core layer never sees
  /// the plan itself — churn is executed by the fault layer through
  /// go_offline()/bring_online() — but a nonzero declaration is validated
  /// at construction: every join re-enters through the quiet-period resync,
  /// so churn without require_rejoinable (the PR 1 crash-path rule) is
  /// rejected up front instead of failing deep inside bring_online().
  std::int64_t churn_events = 0;
  /// Protocol event tracer for this run. nullptr means "use the global
  /// tracer when HRTDM_TRACE_OUT / obs::set_trace_out enabled it"; pass a
  /// tracer explicitly to capture one run in isolation. Tracing never
  /// affects protocol state or digests.
  obs::EventTracer* tracer = nullptr;
  /// Perfetto process id for this run's channel track (multi-channel runs
  /// assign each channel its own id so tracks do not collide).
  int trace_channel = 0;
  /// Opt-in differential conformance checking (src/check): a ground-truth
  /// slot recorder is attached to the channel and, after the run, the
  /// recorded stream is replayed against an independent centralized NP-EDF
  /// oracle, the exact xi(k, t) / P2 search-cost bounds and an epoch
  /// accounting replica. Results land in DdcrRunResult::conformance; the
  /// checker is observation-only (protocol digests are unchanged).
  /// Requires hrtdm_check to be linked and
  /// check::install_conformance_auditor() to have been called — the run
  /// fails with an actionable contract violation otherwise.
  bool conformance_check = false;
  /// Compiled epoch fast path (core::EpochCompiler): clean TTs/STs epochs
  /// are resolved closed-form and bulk-advanced instead of slot by slot.
  /// Observable behaviour (digests, metrics, traces, conformance streams)
  /// is bit-identical either way; kAuto defers to the
  /// HRTDM_EPOCH_COMPILER environment variable (default: enabled).
  EpochCompilerMode epoch_compiler = EpochCompilerMode::kAuto;
  /// Post-run deadline-miss forensics (obs::Forensics): every miss has its
  /// latency decomposed into named causes over the run's flight-recorder
  /// window; reports land in DdcrRunResult::miss_reports. Purely post-hoc:
  /// the run itself is unaffected. (Near-miss reports come from calling
  /// obs::Forensics::attribute_all with a slack directly.)
  bool forensics = false;
  /// Capacity of the run's always-on flight recorder (rounded up to a
  /// power of two). The default keeps the hot-path ring comfortably inside
  /// L2; long hostile soaks that want deeper history can raise it.
  std::size_t flight_recorder_capacity = obs::FlightRecorder::kDefaultCapacity;
};

/// Outcome of the opt-in differential conformance check (src/check).
struct ConformanceReport {
  bool checked = false;  ///< a checker actually ran
  bool ok = true;        ///< no violations found (vacuously true unchecked)
  std::vector<std::string> violations;
  std::int64_t slots_checked = 0;
  std::int64_t epochs = 0;             ///< epochs the tracker replayed
  std::int64_t tts_bound_checked = 0;  ///< time tree runs held against xi
  std::int64_t sts_bound_checked = 0;  ///< static tree runs held against xi
  std::int64_t p2_windows_checked = 0; ///< multi-tree windows vs Eq. 16-19
  std::int64_t edf_pairs_checked = 0;  ///< deliveries swept for EDF order
  std::int64_t observed_misses = 0;
  std::int64_t oracle_misses = 0;      ///< ideal centralized NP-EDF misses
  bool oracle_feasible = false;
  double oracle_makespan_s = 0.0;
  double observed_makespan_s = 0.0;
  /// Rendered flight-recorder window of the offending run; filled only on
  /// violation (obs::FlightRecorder::format_window) so anyone pinning a
  /// .repro can dump the causal history alongside it.
  std::string flight_dump;
  /// One-line human rendering ("conformance OK: ..." / first violation).
  std::string summary() const;
};

struct DdcrRunResult {
  MetricsSummary metrics;
  net::ChannelStats channel;
  std::vector<DdcrStation::Counters> per_station;
  std::int64_t generated = 0;    ///< messages injected
  std::int64_t undelivered = 0;  ///< still queued when the run ended
  std::int64_t dropped_late = 0; ///< shed by drop_late_messages
  std::int64_t desyncs_detected = 0; ///< watchdog detections (all stations)
  std::int64_t quarantines = 0;      ///< watchdog self-resets (all stations)
  std::int64_t rejoins = 0;          ///< completed quiet-period rejoins
  double utilization = 0.0;      ///< busy fraction of channel time
  bool consistency_ok = true;    ///< all digests agreed on every slot
  /// Order-sensitive combination (FNV-1a chain, station order) of every
  /// station's protocol_digest() at the end of the run — the replicated
  /// protocol state as one number, used by the serial-vs-parallel
  /// determinism tests.
  std::uint64_t protocol_digest = 0;
  /// End-of-run introspection snapshots (docs/OBSERVABILITY.md).
  std::vector<StationSnapshot> snapshots;
  net::ChannelSnapshot channel_snapshot;
  /// Filled when DdcrRunOptions::conformance_check was set.
  ConformanceReport conformance;
  /// The retained flight-recorder window at the end of the run (oldest
  /// first; obs::FlightRecorder::format_window renders it). Always filled —
  /// the recorder is on for every run.
  std::vector<obs::FrRecord> flight_window;
  bool flight_window_truncated = false;  ///< ring wrapped during the run
  /// Filled when DdcrRunOptions::forensics was set: one cause-decomposed
  /// report per missed (or near-missed) message.
  std::vector<obs::MissReport> miss_reports;
};

/// Seam through which conformance-checked runs reach the differential
/// checker. The core library cannot link src/check (check sits above core),
/// so the checker installs a factory at static-init / first-use time via
/// check::install_conformance_auditor(); a DdcrTestbed built from a workload
/// instantiates one auditor per conformance-checked run.
class RunAuditor {
 public:
  virtual ~RunAuditor() = default;
  /// The observer that records the run's ground-truth slot stream; attached
  /// to the channel before start().
  virtual net::ChannelObserver& observer() = 0;
  /// Called once, after the run completed and `result` was fully populated
  /// (metrics, channel stats, per-station counters); fills
  /// result.conformance.
  virtual void finish(DdcrRunResult& result) = 0;
};

using AuditorFactory = std::unique_ptr<RunAuditor> (*)(
    const traffic::Workload& workload, const DdcrRunOptions& resolved);

/// Installs the factory conformance-checked runs construct auditors with.
/// Passing nullptr uninstalls it.
void set_auditor_factory(AuditorFactory factory);
AuditorFactory auditor_factory();

/// Runs the workload through a CSMA/DDCR network and returns the metrics:
/// generate the arrivals, inject them into a DdcrTestbed, run to the
/// arrival horizon, drain, and assemble the result.
DdcrRunResult run_ddcr(const traffic::Workload& workload,
                       const DdcrRunOptions& options);

/// The check_consistency observer (defined in ddcr_network.cpp).
class ConsistencyChecker;

/// One CSMA/DDCR channel: simulator, channel, stations, epoch compiler,
/// metrics, tracer and the optional consistency checker and conformance
/// auditor, with externally controlled message injection. run_ddcr, the
/// fabric's channels, the fault harnesses, the tests and the
/// sim-vs-analysis benches all run on it.
class DdcrTestbed {
 public:
  /// A network of `stations` stations fed only by inject(). Rejects
  /// conformance_check: without a workload there is nothing to audit the
  /// run against.
  DdcrTestbed(int stations, const DdcrRunOptions& options);
  /// One station per workload source; conformance_check attaches the
  /// differential auditor for `workload`'s generated arrivals.
  DdcrTestbed(const traffic::Workload& workload,
              const DdcrRunOptions& options);
  /// Out of line: the ChannelTracer member is only forward-declared here.
  ~DdcrTestbed();
  /// The stations view options_.ddcr and the channel, compiler and
  /// observers point into the testbed, so it stays where it was built.
  DdcrTestbed(const DdcrTestbed&) = delete;
  DdcrTestbed& operator=(const DdcrTestbed&) = delete;

  sim::Simulator& simulator() { return simulator_; }
  net::BroadcastChannel& channel() { return *channel_; }
  DdcrStation& station(int id) { return *stations_.at(static_cast<std::size_t>(id)); }
  MetricsCollector& metrics() { return metrics_; }
  obs::FlightRecorder& flight_recorder() { return recorder_; }
  /// The channel's shared protocol replica: fork and merge counts, and
  /// the replica the synced stations hold.
  const SharedReplica& shared_replica() const { return *shared_; }
  /// The channel's epoch compiler (tests use it to assert the bail-out
  /// taxonomy is exhaustive). Never null: the testbed always builds it and
  /// installs it on the channel only when the compiled-epoch fast path is
  /// on, so compile_attempts() > 0 is what shows the fast path ran.
  EpochCompiler* epoch_compiler() { return compiler_.get(); }
  int station_count() const { return static_cast<int>(stations_.size()); }
  /// The options with defaults filled in (static indices allocated); every
  /// station views options().ddcr.
  const DdcrRunOptions& options() const { return options_; }

  /// Injects a message at the given arrival time: the message joins the
  /// testbed's ledger, and an entry on the simulator's arrival lane
  /// enqueues it at its station then. Any order of injection is fine; the
  /// arrival order is the one schedule_at calls in the same order would
  /// give.
  void inject(int source, const traffic::Message& msg);
  /// Injects every generated message, source by source: station s takes
  /// traffic.per_source[s].
  void inject(const traffic::GeneratedTraffic& traffic);
  /// Messages injected so far (DdcrRunResult::generated).
  std::int64_t injected() const { return injected_; }

  /// Starts the channel (first call only) and runs the event loop until
  /// `horizon`, leaving any fast-forwarded span in flight. Callers that
  /// mutate stations between calls want run() instead.
  void advance(SimTime horizon);

  /// The one chunked loop behind drain(), run_until_delivered() and the
  /// fault harnesses' phases: starts the channel (first call only), then
  /// runs `chunk_slots`-slot chunks while `more()` holds and now() < cap.
  /// `more()` is sampled at every chunk boundary the plain polling loop
  /// would sample (sim::run_chunked), including the ones at which a
  /// compiled span's lazily flushed deliveries become visible.
  template <typename More>
  void run_while(std::int64_t chunk_slots, SimTime cap, More&& more) {
    start_once();
    sim::run_chunked(simulator_, options_.phy.slot_x * chunk_slots, cap,
                     static_cast<More&&>(more),
                     [this] { return channel_->next_compiled_delivery(); });
  }

  /// Keeps the channel running in 1024-slot chunks until every queue is
  /// empty or `cap` is reached.
  void drain(SimTime cap);

  /// Stops the slot loop (dissolving any fast-forwarded span).
  void stop();

  /// Starts the channel and runs until `horizon`; the stations are
  /// materialized at the horizon, so tests may read or mutate them.
  void run(SimTime horizon);

  /// Starts the channel and runs until `count` frames have been delivered
  /// (or `cap` is reached) — the efficient way to run delivery-bounded
  /// scenarios without simulating trailing idle slots.
  void run_until_delivered(std::int64_t count, SimTime cap);

  /// True iff all stations' protocol digests currently agree.
  bool digests_agree() const;

  /// True iff no station is resyncing or offline.
  bool all_synced() const;

  /// Verdict of the check_consistency checker: false once the synced
  /// replicas disagreed after some slot. True when the check is off.
  bool consistency_ok() const;

  /// Order-sensitive combination (FNV-1a chain, station order) of every
  /// station's protocol_digest().
  std::uint64_t protocol_digest() const;

  /// Total queued messages across stations.
  std::int64_t queued() const;

  /// True when no message is queued, counting deliveries a compiled span
  /// has made but not yet handed back to the sender's queue.
  bool drained() const;

  /// Introspection snapshots of the current state (docs/OBSERVABILITY.md).
  net::ChannelSnapshot channel_snapshot() const;
  std::vector<StationSnapshot> station_snapshots() const;

  /// The full result: metrics, counters, snapshots, flight window, the
  /// forensics reports when asked for, and the conformance report of an
  /// audited run. Call once, after stop().
  DdcrRunResult result();

 private:
  DdcrTestbed(int stations, const DdcrRunOptions& options,
              const traffic::Workload* workload);
  void start_once();
  /// The arrival lane's handler: enqueues arrivals_[index].
  void arrive(std::uint32_t index);

  sim::Simulator simulator_;
  DdcrRunOptions options_;  ///< declared before stations_, which view it
  obs::FlightRecorder recorder_;  ///< declared before channel_ (detach order)
  std::unique_ptr<net::BroadcastChannel> channel_;
  std::unique_ptr<SharedReplica> shared_;  ///< declared before stations_
  std::vector<std::unique_ptr<DdcrStation>> stations_;
  /// Injected messages the arrival lane has not fired yet, indexed by lane
  /// entry; emptied whenever the lane is. Declared before compiler_, which
  /// reads it.
  std::vector<Arrival> arrivals_;
  std::unique_ptr<EpochCompiler> compiler_;  ///< declared after channel_
  MetricsCollector metrics_;
  std::unique_ptr<obs::ChannelTracer> channel_tracer_;
  std::unique_ptr<ConsistencyChecker> checker_;
  std::unique_ptr<RunAuditor> auditor_;
  std::int64_t injected_ = 0;
  bool started_ = false;
};

/// The tracer a run should emit into: options.tracer when set, else the
/// global tracer when it is enabled (HRTDM_TRACE_OUT / --trace-out), else
/// nullptr (tracing off).
obs::EventTracer* effective_tracer(const DdcrRunOptions& options);

}  // namespace hrtdm::core
