// Long-soak observability time-series: a hostile compressed-time run
// (clock drift + station churn + Gilbert–Elliott bursty loss, all at once)
// driven in cadence-sized chunks so an obs::Sampler can capture registry
// deltas and per-deadline-class latency quantiles as the soak progresses.
//
// Artifact: BENCH_soak_timeseries.json with two structured sections on top
// of the usual schema —
//   "series"    the Sampler's point array (counter deltas, gauges,
//               histogram p50/p99/p999 per cadence interval)
//   "forensics" per-miss cause decompositions (obs::Forensics) for every
//               deadline miss and near-miss the soak produced
//
// The bench hard-fails when any registry histogram dropped NaN samples
// (nan_dropped != 0) or when any forensics report fails its partition
// invariant (components must sum to the observed latency exactly).
#include <algorithm>
#include <cstdio>
#include <map>
#include <string>
#include <vector>

#include "bench/harness.hpp"
#include "core/ddcr_network.hpp"
#include "fault/churn_plan.hpp"
#include "fault/drift_plan.hpp"
#include "fault/fault_injector.hpp"
#include "fault/fault_plan.hpp"
#include "obs/forensics.hpp"
#include "obs/registry.hpp"
#include "obs/sampler.hpp"
#include "traffic/message.hpp"
#include "util/check.hpp"
#include "util/table.hpp"

namespace {

using namespace hrtdm;
using sim::SimTime;
using util::Duration;

struct SoakConfig {
  int stations = 8;
  int rounds = 1500;               ///< message rounds per station
  Duration spacing = Duration::nanoseconds(3'000);
  std::int64_t cadence_ns = 250'000;
  int churn_events = 8;
  std::int64_t near_miss_slack_ns = 2'000;
  std::size_t forensics_cap = 40;  ///< reports serialized into the artifact
  /// Deep enough that the retained window covers the whole soak: misses
  /// early in the run still decompose into real causes instead of
  /// "unattributed" (4 MB at 32 bytes/record).
  std::size_t recorder_capacity = std::size_t{1} << 17;
};

core::DdcrRunOptions soak_options(const SoakConfig& soak) {
  core::DdcrRunOptions options;
  // Campaign-style PHY/DDCR shape (fault::CampaignOptions): rejoin-capable
  // by construction, one slot per 100 ns, horizon F*c = 16 us.
  options.phy.slot_x = Duration::nanoseconds(100);
  options.phy.psi_bps = 1e9;
  options.phy.overhead_bits = 0;
  // Bursty loss: ~2% of contention slots flip good->bad, bad bursts last
  // ~5 slots and destroy 40% of successes while they do.
  options.phy.gilbert_elliott(0.02, 0.2, 0.0, 0.4);
  options.ddcr.m_time = 2;
  options.ddcr.F = 16;
  options.ddcr.m_static = 2;
  options.ddcr.q = 16;
  options.ddcr.class_width_c = Duration::microseconds(1);
  options.ddcr.alpha = Duration::nanoseconds(0);
  options.ddcr.max_empty_tts = 2;  // bounded silence streaks: rejoin-capable
  options.require_rejoinable = true;
  options.churn_events = soak.churn_events;
  options.flight_recorder_capacity = soak.recorder_capacity;
  return options;
}

traffic::Message make_message(const SoakConfig& soak, int source, int round,
                              std::int64_t uid) {
  // Four deadline classes spread across the TTs horizon so the per-class
  // latency histograms (ClassLatencyHistograms) populate distinct series.
  static constexpr std::int64_t kDeadlineNs[] = {6'000, 8'000, 12'000,
                                                 15'000};
  traffic::Message msg;
  msg.uid = uid;
  msg.class_id = round % 4;
  msg.source = source;
  msg.l_bits = 100;
  msg.arrival = SimTime() + soak.spacing * (round + 1);
  msg.absolute_deadline =
      msg.arrival + Duration::nanoseconds(kDeadlineNs[msg.class_id]);
  return msg;
}

#if !defined(HRTDM_OBS_OFF)
/// Per-deadline-class latency histograms ("latency.class_<k>") for the
/// Sampler's quantile series. The library records one class-independent
/// latency.delivery_ns histogram, so this soak registers its own per-class
/// family, each class on its first delivery.
class ClassLatencyHistograms final : public net::ChannelObserver {
 public:
  void on_slot(const net::SlotRecord& record) override {
    if (record.kind != net::SlotKind::kSuccess || !record.frame.has_value()) {
      return;
    }
    obs::Histogram*& hist = hists_[record.frame->class_id];
    if (hist == nullptr) {
      hist = &obs::Registry::global().histogram(
          "latency.class_" + std::to_string(record.frame->class_id));
    }
    hist->observe((record.end - record.frame->enqueue_time).ns());
  }

  /// Idle gaps hold only silence.
  void on_idle_gap(std::int64_t slots, SimTime first_start,
                   Duration slot_x) override {
    (void)slots;
    (void)first_start;
    (void)slot_x;
  }

 private:
  std::map<int, obs::Histogram*> hists_;
};
#endif

}  // namespace

int main(int argc, char** argv) {
  bench::apply_trace_flag(argc, argv);
  bench::apply_forensics_flag(argc, argv);
  bench::BenchReport report("soak_timeseries");
  const bool smoke = bench::BenchReport::smoke();

  SoakConfig soak;
  if (smoke) {
    soak.stations = 4;
    soak.rounds = 150;
    soak.cadence_ns = 50'000;
    soak.churn_events = 2;
    soak.recorder_capacity = std::size_t{1} << 15;
  }
  const core::DdcrRunOptions options = soak_options(soak);
  const std::int64_t total_messages =
      static_cast<std::int64_t>(soak.stations) * soak.rounds;

  std::printf("%s", util::banner(
      "soak: drift + churn + Gilbert-Elliott, sampled time-series").c_str());

  core::DdcrTestbed bed(soak.stations, options);
#if !defined(HRTDM_OBS_OFF)
  ClassLatencyHistograms class_latency;
  bed.channel().add_observer(class_latency);
#endif

  // Hostile axes: two drifted clocks that can cross the x/2 mis-sampling
  // threshold, plus memoryless churn over the first two thirds of the
  // delivery stream. The fault plan proper stays empty — GE loss supplies
  // the noise axis from the channel's own seeded chain.
  fault::DriftPlan drift = fault::DriftPlan::uniform(
      soak.stations, /*drifted=*/2, Duration::nanoseconds(80),
      /*rate_ppm=*/200.0, /*seed=*/7);
  fault::ChurnPlan churn = fault::ChurnPlan::poisson(
      soak.stations, /*window_observations=*/total_messages * 2 / 3,
      soak.churn_events, /*seed=*/11);
  fault::FaultInjector injector(fault::FaultPlan{}, churn, drift,
                                /*seed=*/13);
  injector.set_crash_hook([&bed](int id) {
    if (bed.station(id).online()) {
      bed.station(id).reset_for_rejoin();
    }
  });
  injector.set_churn_hook([&bed](int id, fault::ChurnKind kind) {
    if (kind == fault::ChurnKind::kLeave) {
      bed.station(id).go_offline();
    } else {
      bed.station(id).bring_online();
    }
  });
  injector.set_sync_probe([&bed](int id) { return !bed.station(id).synced(); });
  injector.install(bed.channel());

  std::int64_t next_uid = 1;
  SimTime last_arrival;
  for (int round = 0; round < soak.rounds; ++round) {
    for (int s = 0; s < soak.stations; ++s) {
      const traffic::Message msg = make_message(soak, s, round, next_uid++);
      last_arrival = std::max(last_arrival, msg.arrival);
      bed.inject(s, msg);
    }
  }

  // Chunked drive: advance one cadence interval at a time and let the
  // sampler decide whether a point is due. The series is a pure function
  // of compressed time, so the artifact is reproducible run to run.
  obs::Sampler::Options sampler_opts;
  sampler_opts.cadence_ns = soak.cadence_ns;
  sampler_opts.prefixes = {"ddcr.", "channel.", "fault.", "latency."};
  obs::Sampler sampler(sampler_opts);
  sampler.poll(0);

  const SimTime end = last_arrival + Duration::microseconds(1'000);
  while (bed.simulator().now() < end) {
    const SimTime next = std::min(
        end, bed.simulator().now() + Duration::nanoseconds(soak.cadence_ns));
    bed.run(next);
    sampler.poll(bed.simulator().now().ns());
  }
  sampler.sample(bed.simulator().now().ns());

  const core::MetricsSummary summary = bed.metrics().summarize();
  std::printf("delivered %lld/%lld, misses %lld, series points %zu, "
              "recorder window %zu records (%s)\n",
              static_cast<long long>(summary.delivered),
              static_cast<long long>(total_messages),
              static_cast<long long>(summary.misses),
              sampler.series().size(), bed.flight_recorder().window().size(),
              bed.flight_recorder().wrapped() ? "wrapped" : "unwrapped");

  // Satellite invariant: no histogram in the whole registry may have
  // silently dropped NaN samples during the soak.
  const obs::RegistrySnapshot snap = obs::Registry::global().snapshot();
  for (const auto& h : snap.histograms) {
    HRTDM_EXPECT(h.nan_dropped == 0,
                 "histogram '" + h.name + "' dropped NaN samples");
  }
  HRTDM_EXPECT(sampler.total_nan_dropped() == 0,
               "sampler observed nan_dropped != 0");

  // Forensics over the whole soak: every miss (and every delivery within
  // the near-miss slack) gets a cause decomposition; the partition
  // invariant is enforced here, not just in the unit tests.
  std::vector<obs::MissInput> inputs;
  inputs.reserve(bed.metrics().log().size());
  for (const core::TxRecord& tx : bed.metrics().log()) {
    obs::MissInput in;
    in.uid = tx.uid;
    in.class_id = tx.class_id;
    in.source = tx.source;
    in.arrival_ns = tx.arrival.ns();
    in.deadline_ns = tx.deadline.ns();
    in.completed_ns = tx.completed.ns();
    inputs.push_back(in);
  }
  const std::vector<obs::MissReport> reports = obs::Forensics::attribute_all(
      inputs, bed.flight_recorder().window(), soak.near_miss_slack_ns);
  std::int64_t missed = 0;
  for (const obs::MissReport& r : reports) {
    HRTDM_EXPECT(r.component_sum_ns() == r.latency_ns,
                 "forensics components do not partition the latency");
    HRTDM_EXPECT(r.latency_ns == 0 || !r.components.empty(),
                 "missed message received an empty cause decomposition");
    missed += r.missed ? 1 : 0;
  }
  std::printf("forensics: %zu reports (%lld misses, %lld near-misses), "
              "partition invariant held for all\n",
              reports.size(), static_cast<long long>(missed),
              static_cast<long long>(reports.size()) - missed);

  report.config("stations", soak.stations);
  report.config("rounds", soak.rounds);
  report.config("messages", total_messages);
  report.config("cadence_ns", soak.cadence_ns);
  report.config("churn_events", soak.churn_events);
  report.config("drifted_stations", 2);
  report.config("ge_p_good_bad", options.phy.ge_p_good_bad);
  report.config("ge_loss_bad", options.phy.ge_loss_bad);
  report.config("near_miss_slack_ns", soak.near_miss_slack_ns);
  report.metric("delivered", summary.delivered);
  report.metric("misses", summary.misses);
  report.metric("mean_latency_s", summary.mean_latency_s);
  report.metric("p99_latency_s", summary.p99_latency_s);
  report.metric("series_points",
                static_cast<std::int64_t>(sampler.series().size()));
  report.metric("forensics_reports",
                static_cast<std::int64_t>(reports.size()));
  report.metric("forensics_misses", missed);
  report.metric("flight_records",
                static_cast<std::int64_t>(bed.flight_recorder().size()));
  report.metric("flight_window_wrapped", bed.flight_recorder().wrapped());

  report.section("series", bench::Json::parse(sampler.series_json()));
  // The artifact pins a bounded prefix of the reports (misses sort first in
  // attribute_all's delivery order); the total is in "metrics".
  std::vector<obs::MissReport> pinned(
      reports.begin(),
      reports.begin() +
          static_cast<std::ptrdiff_t>(
              std::min(reports.size(), soak.forensics_cap)));
  report.section("forensics", bench::forensics_section(pinned));
  report.write();
  return 0;
}
