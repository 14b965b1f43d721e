#include "core/ddcr_network.hpp"

#include <algorithm>
#include <sstream>

#include "obs/channel_tracer.hpp"
#include "util/check.hpp"

namespace hrtdm::core {

namespace {
AuditorFactory g_auditor_factory = nullptr;
}  // namespace

void set_auditor_factory(AuditorFactory factory) {
  g_auditor_factory = factory;
}

AuditorFactory auditor_factory() { return g_auditor_factory; }

std::string ConformanceReport::summary() const {
  if (!checked) {
    return "conformance: not checked";
  }
  std::ostringstream os;
  if (ok) {
    os << "conformance OK: " << slots_checked << " slots, " << epochs
       << " epochs, " << tts_bound_checked << " TTs + " << sts_bound_checked
       << " STs runs vs xi, " << p2_windows_checked << " P2 windows, "
       << edf_pairs_checked << " EDF comparisons";
    return os.str();
  }
  os << "conformance FAILED (" << violations.size()
     << " violation(s)); first: "
     << (violations.empty() ? "?" : violations.front());
  return os.str();
}

obs::EventTracer* effective_tracer(const DdcrRunOptions& options) {
  if (options.tracer != nullptr) {
    return options.tracer;
  }
  obs::EventTracer& global = obs::EventTracer::global();
  return global.enabled() ? &global : nullptr;
}

/// Channel observer that verifies the replicated protocol state after every
/// slot delivery (stations observe before channel observers run).
class ConsistencyChecker final : public net::ChannelObserver {
 public:
  explicit ConsistencyChecker(
      const std::vector<std::unique_ptr<DdcrStation>>& stations)
      : stations_(stations) {}

  void on_slot(const net::SlotRecord& record) override {
    (void)record;
    // Stations in the listen-only resync phase intentionally hold no
    // protocol state; consistency is over the synced replicas.
    bool have_reference = false;
    std::uint64_t reference = 0;
    for (const auto& station : stations_) {
      if (!station->synced()) {
        continue;
      }
      if (!have_reference) {
        reference = station->protocol_digest();
        have_reference = true;
      } else if (station->protocol_digest() != reference) {
        ok_ = false;
        return;
      }
    }
  }

  /// Quiescent stations hold their digests through an idle gap, so one
  /// check covers the whole span.
  void on_idle_gap(std::int64_t slots, net::SimTime first_start,
                   util::Duration slot_x) override {
    (void)first_start;
    (void)slot_x;
    if (slots > 0) {
      on_slot(net::SlotRecord{});
    }
  }

  bool ok() const { return ok_; }

 private:
  const std::vector<std::unique_ptr<DdcrStation>>& stations_;
  bool ok_ = true;
};

namespace {

DdcrRunOptions resolve_options(DdcrRunOptions options, int z) {
  if (options.ddcr.static_indices.empty()) {
    options.ddcr.static_indices =
        DdcrConfig::one_index_per_source(z, options.ddcr.q);
  }
  options.ddcr.validate(z);
  HRTDM_EXPECT(options.churn_events >= 0,
               "churn_events cannot be negative");
  HRTDM_EXPECT(options.churn_events == 0 || options.require_rejoinable,
               "a churn plan drives stations through the quiet-period "
               "rejoin path: set require_rejoinable when churn_events > 0");
  if (options.require_rejoinable) {
    options.ddcr.validate_rejoinable();
  }
  return options;
}

}  // namespace

DdcrTestbed::DdcrTestbed(int stations, const DdcrRunOptions& options)
    : DdcrTestbed(stations, options, nullptr) {}

DdcrTestbed::DdcrTestbed(const traffic::Workload& workload,
                         const DdcrRunOptions& options)
    : DdcrTestbed(workload.z(), options, &workload) {}

DdcrTestbed::DdcrTestbed(int stations, const DdcrRunOptions& options,
                         const traffic::Workload* workload)
    : options_(options),
      recorder_(options.flight_recorder_capacity) {
  HRTDM_EXPECT(stations >= 1, "need at least one station");
  HRTDM_EXPECT(workload != nullptr || !options.conformance_check,
               "conformance_check audits a run against its generating "
               "workload: build the testbed from the workload "
               "(DdcrTestbed(workload, options)) or use run_ddcr");
  options_ = resolve_options(options_, stations);
  channel_ = std::make_unique<net::BroadcastChannel>(
      simulator_, options_.phy, options_.collision_mode);
  // Always-on black box: the run's causal history for post-mortems and
  // forensics. Recording never feeds back into protocol state.
  channel_->set_flight_recorder(&recorder_);
  for (int s = 0; s < stations; ++s) {
    stations_.push_back(std::make_unique<DdcrStation>(s, options_.ddcr));
    stations_.back()->set_flight_recorder(&recorder_);
    channel_->attach(*stations_.back());
  }
  std::vector<DdcrStation*> raw_stations;
  raw_stations.reserve(stations_.size());
  for (auto& station : stations_) {
    raw_stations.push_back(station.get());
  }
  compiler_ =
      std::make_unique<EpochCompiler>(*channel_, std::move(raw_stations));
  if (epoch_compiler_enabled(options_.epoch_compiler)) {
    channel_->set_span_compiler(compiler_.get());
  }
  channel_->add_observer(metrics_);
  if (obs::EventTracer* tracer = effective_tracer(options_)) {
    channel_tracer_ =
        std::make_unique<obs::ChannelTracer>(*tracer, options_.trace_channel);
    channel_->add_observer(*channel_tracer_);
    for (auto& station : stations_) {
      station->set_trace(tracer, options_.trace_channel);
    }
  }
  if (options_.check_consistency) {
    checker_ = std::make_unique<ConsistencyChecker>(stations_);
    channel_->add_observer(*checker_);
  }
  if (options_.conformance_check) {
    HRTDM_EXPECT(g_auditor_factory != nullptr,
                 "conformance_check requires the differential checker: link "
                 "hrtdm_check and call check::install_conformance_auditor()");
    auditor_ = g_auditor_factory(*workload, options_);
    channel_->add_observer(auditor_->observer());
  }
}

DdcrTestbed::~DdcrTestbed() = default;

void DdcrTestbed::inject(int source, const traffic::Message& msg) {
  HRTDM_EXPECT(source >= 0 && source < station_count(),
               "source id out of range");
  HRTDM_EXPECT(msg.arrival >= simulator_.now(),
               "cannot inject a message in the past");
  DdcrStation* station = stations_[static_cast<std::size_t>(source)].get();
  simulator_.schedule_at(
      msg.arrival, [station, msg] { station->enqueue(msg); }, "arrival");
  ++injected_;
}

void DdcrTestbed::inject(const traffic::GeneratedTraffic& traffic) {
  for (std::size_t s = 0; s < traffic.per_source.size(); ++s) {
    for (const traffic::Message& msg : traffic.per_source[s]) {
      inject(static_cast<int>(s), msg);
    }
  }
}

void DdcrTestbed::start_once() {
  if (!started_) {
    started_ = true;
    channel_->start();
  }
}

void DdcrTestbed::advance(SimTime horizon) {
  start_once();
  simulator_.run_until(horizon);
}

void DdcrTestbed::drain(SimTime cap) {
  start_once();
  // Successes flushed out of an active compiled span leave the sender's
  // queue only at span hand-off; drained() subtracts them so "still
  // queued" matches the slot-by-slot world at every chunk boundary.
  sim::run_chunked(
      simulator_, options_.phy.slot_x * 1024, cap,
      [this] { return !drained(); },
      [this] { return channel_->next_compiled_delivery(); });
}

void DdcrTestbed::stop() { channel_->stop(); }

void DdcrTestbed::run(SimTime horizon) {
  start_once();
  // The caller may have mutated station state directly since the last run
  // (crash, reset_for_rejoin) — force the slot loop to re-check quiescence.
  channel_->revalidate_idle_gap();
  advance(horizon);
  // Tests read metrics_ and station state directly between run() calls;
  // bring lazily accounted fast-forwarded slots up to date and dissolve any
  // compiled span so the stations are materialized at now().
  channel_->materialize_stations();
}

void DdcrTestbed::run_until_delivered(std::int64_t count, SimTime cap) {
  start_once();
  channel_->revalidate_idle_gap();
  const util::Duration step = options_.phy.slot_x * 256;
  sim::run_chunked(
      simulator_, step, cap,
      [this, count] {
        // Deliveries inside a compiled span reach the metrics log lazily;
        // flush up to now() so the count is what the slot-by-slot loop
        // would have shown at this chunk boundary.
        channel_->flush_idle_accounting();
        return static_cast<std::int64_t>(metrics_.log().size()) < count;
      },
      [this] { return channel_->next_compiled_delivery(); });
  channel_->materialize_stations();
}

bool DdcrTestbed::digests_agree() const {
  if (stations_.empty()) {
    return true;
  }
  const std::uint64_t reference = stations_.front()->protocol_digest();
  return std::all_of(stations_.begin(), stations_.end(),
                     [reference](const auto& station) {
                       return station->protocol_digest() == reference;
                     });
}

bool DdcrTestbed::consistency_ok() const {
  return checker_ == nullptr || checker_->ok();
}

std::uint64_t DdcrTestbed::protocol_digest() const {
  std::uint64_t digest = 0xcbf29ce484222325ULL;  // FNV-1a offset basis
  for (const auto& station : stations_) {
    digest = (digest ^ station->protocol_digest()) * 0x100000001b3ULL;
  }
  return digest;
}

std::int64_t DdcrTestbed::queued() const {
  std::int64_t total = 0;
  for (const auto& station : stations_) {
    total += static_cast<std::int64_t>(station->queue().size());
  }
  return total;
}

bool DdcrTestbed::drained() const {
  return queued() - channel_->unapplied_deliveries() <= 0;
}

net::ChannelSnapshot DdcrTestbed::channel_snapshot() const {
  return channel_->snapshot();
}

std::vector<StationSnapshot> DdcrTestbed::station_snapshots() const {
  std::vector<StationSnapshot> snaps;
  snaps.reserve(stations_.size());
  for (const auto& station : stations_) {
    snaps.push_back(station->snapshot());
  }
  return snaps;
}

DdcrRunResult DdcrTestbed::result() {
  DdcrRunResult result;
  result.metrics = metrics_.summarize();
  result.channel = channel_->stats();
  result.protocol_digest = protocol_digest();
  for (const auto& station : stations_) {
    const DdcrStation::Counters& counters = station->counters();
    result.per_station.push_back(counters);
    result.dropped_late += counters.dropped_late;
    result.desyncs_detected += counters.desyncs_detected;
    result.quarantines += counters.quarantines;
    result.rejoins += counters.rejoins;
  }
  result.snapshots = station_snapshots();
  result.generated = injected_;
  result.undelivered = queued();
  result.utilization = channel_->utilization();
  result.channel_snapshot = channel_->snapshot();
  result.consistency_ok = consistency_ok();
  result.flight_window = recorder_.window();
  result.flight_window_truncated = recorder_.wrapped();
  if (options_.forensics) {
    std::vector<obs::MissInput> inputs;
    inputs.reserve(metrics_.log().size());
    for (const TxRecord& tx : metrics_.log()) {
      obs::MissInput mi;
      mi.uid = tx.uid;
      mi.class_id = tx.class_id;
      mi.source = tx.source;
      mi.arrival_ns = tx.arrival.ns();
      mi.deadline_ns = tx.deadline.ns();
      mi.completed_ns = tx.completed.ns();
      inputs.push_back(mi);
    }
    result.miss_reports = obs::Forensics::attribute_all(
        inputs, result.flight_window, options_.forensics_near_miss_slack_ns);
  }
  if (auditor_ != nullptr) {
    auditor_->finish(result);
  }
  return result;
}

DdcrRunResult run_ddcr(const traffic::Workload& workload,
                       const DdcrRunOptions& options) {
  workload.validate();
  DdcrTestbed bed(workload, options);
  const DdcrRunOptions& resolved = bed.options();
  // Held until the run ends: releasing the arrivals before the slot loop
  // fragments the heap, and peak RSS then creeps up over repeated runs.
  const traffic::GeneratedTraffic traffic = traffic::generate_traffic(
      workload, resolved.arrivals, resolved.arrival_horizon, resolved.seed);
  bed.inject(traffic);
  bed.advance(resolved.arrival_horizon);
  bed.drain(resolved.drain_cap);
  bed.stop();
  return bed.result();
}

}  // namespace hrtdm::core
