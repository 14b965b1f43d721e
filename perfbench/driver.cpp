// Repo benchmark driver: runs one named workload for a wall-clock budget
// and prints its raw measurements as one JSON line on stdout. run.py turns
// them into the benchmark's metrics; README.md maps workloads to layers
// and metrics.
//
//   perfbench_driver --workload fabric_1k|channel_poisson|analysis_mix
//                    --seed N --seconds S --trace 0|1 [--trace-out FILE]
//
// --trace 0 measures end to end: timed repetitions, no spans recorded.
// --trace 1 alternates untraced and traced repetitions. A traced
// repetition calls each layer's public entry point inside a span of the
// driver's own (the library's tracer stays off), and the spans are written
// to --trace-out as Chrome trace-event JSON when the run ends.
//
// Every workload is a closed loop with one caller; each repetition (or
// analysis request) is one batch job. fabric_1k shards over every CPU the
// process may run on; the other workloads use one thread.
#include <sched.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <fstream>
#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "analysis/dimensioning.hpp"
#include "analysis/feasibility.hpp"
#include "analysis/xi.hpp"
#include "bench/harness.hpp"
#include "check/conformance.hpp"
#include "core/ddcr_network.hpp"
#include "core/fabric.hpp"
#include "core/multi_channel.hpp"
#include "obs/registry.hpp"
#include "traffic/arrival_stream.hpp"
#include "traffic/fc_adapter.hpp"
#include "traffic/workload.hpp"
#include "util/rng.hpp"
#include "util/thread_pool.hpp"

#ifndef __OPTIMIZE__
#error "perfbench_driver must be built with optimisation (Release)"
#endif

namespace {

using namespace hrtdm;
using bench::Json;
using Clock = std::chrono::steady_clock;
using util::Duration;
using util::SimTime;

double seconds_between(Clock::time_point from, Clock::time_point to) {
  return std::chrono::duration<double>(to - from).count();
}

/// Environment variables that silently change what the library measures
/// (compiler off, library tracer on, shrunk bench configs, extra audits,
/// forensics). The benchmark refuses to run under any of them.
constexpr const char* kRefusedEnv[] = {
    "HRTDM_EPOCH_COMPILER", "HRTDM_TRACE_OUT", "HRTDM_BENCH_SMOKE",
    "HRTDM_BENCH_CHECK", "HRTDM_FORENSICS"};

// --- spans ------------------------------------------------------------------

/// In-memory span log: name, start, end, parent and count arguments per
/// span. Disabled in end-to-end runs, where begin() records nothing.
class SpanLog {
 public:
  explicit SpanLog(bool enabled) : enabled_(enabled) {}

  bool enabled() const { return enabled_; }

  int begin(const char* name) {
    if (!enabled_) {
      return -1;
    }
    const int id = static_cast<int>(spans_.size());
    spans_.push_back(
        {name, open_.empty() ? -1 : open_.back(), Clock::now(), {}, {}});
    open_.push_back(id);
    return id;
  }

  /// Closes the innermost open span (`id` must be it).
  void end(int id, Json::Object args) {
    if (id < 0) {
      return;
    }
    Span& span = spans_[static_cast<std::size_t>(id)];
    span.end = Clock::now();
    span.args = std::move(args);
    if (!open_.empty() && open_.back() == id) {
      open_.pop_back();
    } else {
      nesting_ok_ = false;
    }
  }

  bool nesting_ok() const { return nesting_ok_ && open_.empty(); }

  /// Chrome trace-event JSON (Perfetto and chrome://tracing open it): one
  /// complete ("X") event per span, timestamps in microseconds from the
  /// first span, span and parent ids in args.
  bool write(const std::string& path, Json::Object metadata) const {
    const Clock::time_point origin =
        spans_.empty() ? Clock::now() : spans_.front().start;
    Json::Array events;
    events.reserve(spans_.size());
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      const Span& span = spans_[i];
      Json::Object args = span.args;
      args["span_id"] = Json(static_cast<std::int64_t>(i));
      args["parent_id"] = Json(span.parent);
      Json::Object event;
      event["name"] = Json(span.name);
      event["cat"] = Json("perfbench");
      event["ph"] = Json("X");
      event["pid"] = Json(1);
      event["tid"] = Json(1);
      event["ts"] = Json(seconds_between(origin, span.start) * 1e6);
      event["dur"] = Json(seconds_between(span.start, span.end) * 1e6);
      event["args"] = Json(std::move(args));
      events.push_back(Json(std::move(event)));
    }
    Json::Object root;
    root["traceEvents"] = Json(std::move(events));
    root["displayTimeUnit"] = Json("ms");
    root["otherData"] = Json(std::move(metadata));
    std::ofstream out(path);
    out << Json(std::move(root)).dump() << "\n";
    out.close();
    return !out.fail();
  }

 private:
  struct Span {
    std::string name;
    int parent;
    Clock::time_point start;
    Clock::time_point end;
    Json::Object args;
  };

  bool enabled_;
  bool nesting_ok_ = true;
  std::vector<Span> spans_;
  std::vector<int> open_;
};

/// Scoped span; counts attached with arg() are recorded at scope exit.
class Scope {
 public:
  Scope(SpanLog& log, const char* name) : log_(log), id_(log.begin(name)) {}
  ~Scope() { log_.end(id_, std::move(args_)); }
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;

  void arg(const std::string& key, Json value) {
    if (id_ >= 0) {
      args_[key] = std::move(value);
    }
  }

 private:
  SpanLog& log_;
  int id_;
  Json::Object args_;
};

// --- process facts ----------------------------------------------------------

/// The raw `key:` line of /proc/self/status (run.py parses it), or "" when
/// the file or the key is missing.
std::string status_line(const char* key) {
  std::ifstream in("/proc/self/status");
  const std::string prefix = std::string(key) + ":";
  std::string line;
  while (std::getline(in, line)) {
    if (line.compare(0, prefix.size(), prefix) == 0) {
      return line;
    }
  }
  return "";
}

/// CPUs this process may run on (what nproc prints).
int usable_cpus() {
  cpu_set_t set;
  if (sched_getaffinity(0, sizeof set, &set) != 0) {
    return util::ThreadPool::hardware_threads();
  }
  return CPU_COUNT(&set);
}

std::string host_name() {
  char buf[256] = {};
  if (gethostname(buf, sizeof buf - 1) != 0) {
    return "unknown";
  }
  return buf;
}

// --- run bookkeeping --------------------------------------------------------

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string trace_out;
  int threads = usable_cpus();
};

/// Everything a run reports; serialized as the driver's output line.
struct Run {
  explicit Run(const Args& a) : args(a), spans(a.trace) {}

  const Args& args;
  SpanLog spans;
  std::vector<double> setup_s;
  /// Wall time of each timed end-to-end repetition or request.
  std::vector<double> request_s;
  /// Trace mode: walls of the untraced and traced member of each pair.
  std::vector<double> untraced_s;
  std::vector<double> traced_s;
  std::int64_t attempted = 0;
  std::int64_t failed = 0;
  Json::Array checks;
  Json::Object info;
  Json::Object rss;  ///< raw VmHWM lines at named points

  /// Records a correctness check; false adds `failed_ops` failures.
  void check(const std::string& name, bool ok, const std::string& detail,
             std::int64_t failed_ops = 1) {
    Json::Object entry;
    entry["name"] = Json(name);
    entry["ok"] = Json(ok);
    entry["detail"] = Json(detail);
    checks.push_back(Json(std::move(entry)));
    if (!ok) {
      failed += failed_ops;
      std::fprintf(stderr, "perfbench: check failed: %s (%s)\n", name.c_str(),
                   detail.c_str());
    }
  }

  void mark_rss(const std::string& point) {
    rss[point] = Json(status_line("VmHWM"));
  }

  Json to_json() const {
    Json::Object out;
    out["workload"] = Json(args.workload);
    out["seed"] = Json(static_cast<std::int64_t>(args.seed));
    out["trace"] = Json(args.trace);
    out["setup_s"] = Json(doubles(setup_s));
    out["request_s"] = Json(doubles(request_s));
    out["untraced_s"] = Json(doubles(untraced_s));
    out["traced_s"] = Json(doubles(traced_s));
    out["attempted"] = Json(attempted);
    out["failed"] = Json(failed);
    out["checks"] = Json(checks);
    out["info"] = Json(info);
    out["rss"] = Json(rss);
    return Json(std::move(out));
  }

  static Json::Array doubles(const std::vector<double>& values) {
    Json::Array out;
    for (const double v : values) {
      out.push_back(Json(v));
    }
    return out;
  }
};

/// setup_s: builds of a workload's inputs, timed in kSetupWindows windows
/// of at least kSetupWindowS (and one build) each. The first window comes
/// before the first job; the others are spread evenly over the timed
/// budget, between jobs. So setup_s, the median build, samples the same
/// stretch of host time as the jobs do, whether a build takes microseconds
/// or a tenth of a second. Each build replaces the inputs the jobs use
/// (builds are deterministic), so that no second copy adds to peak_rss_mb.
/// The traced run reports no setup_s: it builds once per window, all
/// before the first job, for core.plan_s.
constexpr int kSetupWindows = 10;
constexpr double kSetupWindowS = 0.15;

template <typename Inputs>
class Setup {
 public:
  /// Runs the first window (every window, in the traced run).
  Setup(Run& run, std::function<Inputs()> build)
      : run_(run), build_(std::move(build)) {
    do {
      window();
    } while (run_.spans.enabled() && windows_ < kSetupWindows);
  }

  /// The inputs of the latest build. A reference stays valid across
  /// windows: each build replaces the object in place.
  const Inputs& inputs() const { return *inputs_; }

  /// Runs the windows due `elapsed` seconds into the timed budget.
  void pace(double elapsed) {
    while (windows_ < kSetupWindows &&
           elapsed * kSetupWindows >= run_.args.seconds * windows_) {
      window();
    }
  }

 private:
  void window() {
    const double length = run_.spans.enabled() ? 0.0 : kSetupWindowS;
    const Clock::time_point start = Clock::now();
    do {
      inputs_.reset();
      Scope span(run_.spans, "setup");
      const Clock::time_point t0 = Clock::now();
      inputs_.emplace(build_());
      run_.setup_s.push_back(seconds_between(t0, Clock::now()));
    } while (seconds_between(start, Clock::now()) < length);
    ++windows_;
  }

  Run& run_;
  std::function<Inputs()> build_;
  std::optional<Inputs> inputs_;
  int windows_ = 0;
};

/// Calls `once` until the run's --seconds of wall time have passed (and at
/// least `min_reps` times), running the set-up windows that fall due in
/// between, and after the last call those the budget ended before.
template <typename Inputs, typename Fn>
void for_budget(Run& run, Setup<Inputs>& setup, int min_reps, Fn&& once) {
  const Clock::time_point start = Clock::now();
  for (int rep = 0;; ++rep) {
    const double elapsed = seconds_between(start, Clock::now());
    if (rep >= min_reps && elapsed >= run.args.seconds) {
      break;
    }
    setup.pace(elapsed);
    once(rep);
  }
  setup.pace(run.args.seconds);
}

/// Runs the untraced and the traced member of pair `index`, alternating
/// which goes first so that warm state left by the first does not bias
/// trace.overhead_s.
template <typename Untraced, typename Traced>
void run_pair(int index, Untraced&& untraced, Traced&& traced) {
  if (index % 2 == 0) {
    untraced();
    traced();
  } else {
    traced();
    untraced();
  }
}

std::uint64_t fnv_digest(core::DdcrTestbed& bed) {
  std::uint64_t digest = 0xcbf29ce484222325ULL;  // FNV-1a offset basis
  for (int s = 0; s < bed.station_count(); ++s) {
    digest = (digest ^ bed.station(s).protocol_digest()) * 0x100000001b3ULL;
  }
  return digest;
}

std::string hex(std::uint64_t v) {
  char buf[19];
  std::snprintf(buf, sizeof buf, "0x%016llx",
                static_cast<unsigned long long>(v));
  return buf;
}

/// Registry reads of one replayed channel (the registry is reset before
/// each replay, so these cover that channel alone).
void registry_counts(Scope& span) {
  const obs::RegistrySnapshot snap = obs::Registry::global().snapshot();
  std::int64_t edf_ops = 0;
  std::int64_t tree_searches = 0;
  std::int64_t edf_depth_p99 = 0;
  for (const auto& c : snap.counters) {
    if (c.name == "edf.push" || c.name == "edf.remove") {
      edf_ops += c.value;
    } else if (c.name == "tree.searches") {
      tree_searches = c.value;
    }
  }
  for (const auto& h : snap.histograms) {
    if (h.name == "edf.depth") {
      edf_depth_p99 = h.p99;
    }
  }
  span.arg("core.edf_ops", Json(edf_ops));
  span.arg("core.edf_depth_p99", Json(edf_depth_p99));
  span.arg("core.tree_searches", Json(tree_searches));
}

/// Channel and compiler counts of a finished testbed replay.
void testbed_counts(Scope& span, core::DdcrTestbed& bed) {
  const net::ChannelStats& stats = bed.channel().stats();
  const std::int64_t slots =
      stats.silence_slots + stats.collision_slots + stats.successes;
  span.arg("core.slots", Json(slots));
  span.arg("sim.events_fired",
           Json(static_cast<std::int64_t>(bed.simulator().events_fired())));
  const core::EpochCompiler* compiler = bed.epoch_compiler();
  if (compiler == nullptr) {
    return;
  }
  span.arg("core.compile_attempts", Json(compiler->compile_attempts()));
  span.arg("core.spans_compiled", Json(compiler->spans_compiled()));
  span.arg("core.slots_compiled", Json(compiler->slots_compiled()));
  const std::pair<const char*, obs::FrBail> reasons[] = {
      {"core.bailout.horizon", obs::FrBail::kHorizon},
      {"core.bailout.fault", obs::FrBail::kFault},
      {"core.bailout.resync", obs::FrBail::kResync},
      {"core.bailout.noise", obs::FrBail::kNoise},
      {"core.bailout.cap", obs::FrBail::kCap},
      {"core.bailout.desync", obs::FrBail::kDesync}};
  for (const auto& [name, reason] : reasons) {
    span.arg(name, Json(compiler->bailouts(reason)));
  }
}

/// Observability read-out of a traced repetition: one timed registry
/// snapshot (cardinality recorded on `rep`) and one timed artifact render.
/// Returns the snapshot.
obs::RegistrySnapshot snapshot_and_emit(Run& run, Scope& rep) {
  obs::RegistrySnapshot snap;
  {
    Scope span(run.spans, "obs.snapshot");
    snap = obs::Registry::global().snapshot();
  }
  {
    Scope span(run.spans, "harness.emit");
    const std::string artifact = bench::obs_section().dump();
    rep.arg("harness.artifact_bytes",
            Json(static_cast<std::int64_t>(artifact.size())));
  }
  rep.arg("obs.histograms",
          Json(static_cast<std::int64_t>(snap.histograms.size())));
  rep.arg("obs.counters",
          Json(static_cast<std::int64_t>(snap.counters.size())));
  rep.arg("obs.gauges", Json(static_cast<std::int64_t>(snap.gauges.size())));
  return snap;
}

/// A run's messages, one arrival-ordered list per source.
using PerSource = std::vector<std::vector<traffic::Message>>;

/// A finished testbed replay.
struct Replayed {
  std::unique_ptr<core::DdcrTestbed> bed;
  core::MetricsSummary summary;
  std::int64_t generated = 0;
};

/// Replays one channel through the testbed's public pieces: constructor,
/// inject, run to the arrival horizon then run_until_delivered, and the
/// metrics summary, each in a span of `log`. Messages are injected source
/// by source, the order run_ddcr schedules them in; `observer`, when given,
/// is attached before the run.
Replayed replay_channel(SpanLog& log, int stations,
                        const core::DdcrRunOptions& options,
                        const PerSource& messages,
                        net::ChannelObserver* observer) {
  Replayed out;
  {
    Scope span(log, "core.construct");
    out.bed = std::make_unique<core::DdcrTestbed>(stations, options);
  }
  if (observer != nullptr) {
    out.bed->channel().add_observer(*observer);
  }
  {
    Scope span(log, "sim.inject");
    for (const auto& source : messages) {
      for (const traffic::Message& msg : source) {
        out.bed->inject(msg.source, msg);
      }
      out.generated += static_cast<std::int64_t>(source.size());
    }
  }
  {
    Scope span(log, "core.slot_loop");
    out.bed->run(options.arrival_horizon);
    out.bed->run_until_delivered(out.generated, options.drain_cap);
  }
  {
    Scope span(log, "core.summarize");
    out.summary = out.bed->metrics().summarize();
  }
  return out;
}

/// Records a replay's layer counts on its root span and checks that it
/// delivered everything on time; returns the replay's protocol digest.
std::uint64_t finish_replay(Run& run, Scope& root, Replayed& replay) {
  testbed_counts(root, *replay.bed);
  registry_counts(root);
  run.check("replay.delivered_all",
            replay.summary.delivered == replay.generated &&
                replay.summary.misses == 0,
            "replay delivered " + std::to_string(replay.summary.delivered) +
                " of " + std::to_string(replay.generated) + ", " +
                std::to_string(replay.summary.misses) + " misses");
  return fnv_digest(*replay.bed);
}

/// Destroys a replay's testbed inside a span: run_ddcr and run_fabric pay
/// for the teardown of every channel too.
void teardown(SpanLog& log, Replayed& replay) {
  Scope span(log, "core.teardown");
  replay.bed.reset();
}

/// Audited replay: records the ground-truth slot stream, then times
/// check::ConformanceComparator::check on it under an "audit" root span
/// (the replay itself records no layer spans). Returns the replay digest.
std::uint64_t audited_replay(Run& run, int stations,
                             const core::DdcrRunOptions& options,
                             const PerSource& messages) {
  check::ConformanceRecorder recorder;
  SpanLog quiet(false);
  const Replayed replay =
      replay_channel(quiet, stations, options, messages, &recorder);
  // The same inputs run_ddcr's auditor builds.
  check::ConformanceInput input;
  for (const auto& source : messages) {
    input.messages.insert(input.messages.end(), source.begin(), source.end());
  }
  input.phy = options.phy;
  input.collision_mode = options.collision_mode;
  input.ddcr = options.ddcr;
  if (input.ddcr.static_indices.empty()) {
    input.ddcr.static_indices =
        core::DdcrConfig::one_index_per_source(stations, input.ddcr.q);
  }
  std::vector<core::DdcrStation::Counters> per_station;
  for (int s = 0; s < stations; ++s) {
    per_station.push_back(replay.bed->station(s).counters());
  }
  input.expect_drain = replay.summary.delivered == replay.generated;
  input.stats = &replay.bed->channel().stats();
  input.per_station = &per_station;
  core::ConformanceReport report;
  {
    Scope root(run.spans, "audit");
    {
      Scope span(run.spans, "check.audit");
      report = check::ConformanceComparator{}.check(input, recorder);
    }
    root.arg("check.slots_checked", Json(report.slots_checked));
  }
  run.check("audit.replay_conformance", report.checked && report.ok,
            report.summary());
  return fnv_digest(*replay.bed);
}

// --- simulation jobs --------------------------------------------------------

/// What a simulation job reports, whichever runner produced it.
struct SimOutcome {
  std::uint64_t digest = 0;
  std::int64_t generated = 0;
  std::int64_t delivered = 0;
  std::int64_t undelivered = 0;
  std::int64_t misses = 0;
  std::int64_t slots = 0;  ///< silence + collision + success channel slots
  bool consistent = true;
  double worst_latency_s = 0.0;
  std::size_t artifact_bytes = 0;
};

SimOutcome outcome(const core::FabricResult& r) {
  SimOutcome o;
  o.digest = r.protocol_digest;
  o.generated = r.generated;
  o.delivered = r.delivered;
  o.undelivered = r.undelivered;
  o.misses = r.misses;
  for (const auto& ch : r.channels) {
    o.slots += ch.slots;
  }
  o.consistent = r.consistency_ok;
  o.worst_latency_s = r.worst_latency_s;
  return o;
}

SimOutcome outcome(const core::DdcrRunResult& r) {
  SimOutcome o;
  o.digest = r.protocol_digest;
  o.generated = r.generated;
  o.delivered = r.metrics.delivered;
  o.undelivered = r.undelivered;
  o.misses = r.metrics.misses;
  o.slots = r.channel.silence_slots + r.channel.collision_slots +
            r.channel.successes;
  o.consistent = r.consistency_ok;
  o.worst_latency_s = r.metrics.worst_latency_s;
  return o;
}

/// One end-to-end job: `run_job()` on a reset registry, then the obs
/// section rendered as every BENCH artifact renders it. With
/// `mark_memory` (the warm-up pass) the memory high-water mark is read
/// before and after the render.
template <typename RunJob>
SimOutcome sim_job(Run& run, RunJob&& run_job, bool mark_memory) {
  obs::Registry::global().reset();
  SimOutcome o = outcome(run_job());
  if (mark_memory) {
    run.mark_rss("after_run");
  }
  o.artifact_bytes = bench::obs_section().dump().size();
  if (mark_memory) {
    run.mark_rss("after_emit");
  }
  return o;
}

/// Checks a job: every message accounted for and on time, and the same
/// protocol digest as every other job of the run. A job failing the check
/// counts all its messages as failed; one passing it counts its missed and
/// undelivered messages.
void check_job(Run& run, const SimOutcome& o,
               std::optional<std::uint64_t>& digest,
               const std::string& label) {
  if (!digest) {
    digest = o.digest;
  }
  run.attempted += o.generated;
  const bool ok = o.generated == o.delivered + o.undelivered &&
                  o.consistent && o.digest == *digest;
  if (ok) {
    run.failed += o.misses + o.undelivered;
  }
  run.check(label + ".accounting_and_digest", ok,
            "digest " + hex(o.digest) + ", generated " +
                std::to_string(o.generated) + ", delivered " +
                std::to_string(o.delivered) + ", undelivered " +
                std::to_string(o.undelivered) + ", misses " +
                std::to_string(o.misses),
            o.generated);
}

/// Times one end-to-end job into `walls`, checks it and keeps its counts
/// for run.py's summary line.
template <typename RunJob>
void timed_job(Run& run, RunJob&& run_job,
               std::optional<std::uint64_t>& digest,
               std::vector<double>& walls, const char* label) {
  const Clock::time_point t0 = Clock::now();
  const SimOutcome o = sim_job(run, run_job, false);
  walls.push_back(seconds_between(t0, Clock::now()));
  check_job(run, o, digest, label);
  run.info["protocol_digest"] = Json(hex(o.digest));
  run.info["generated"] = Json(o.generated);
  run.info["delivered"] = Json(o.delivered);
  run.info["channel_slots"] = Json(o.slots);
  run.info["artifact_bytes"] =
      Json(static_cast<std::int64_t>(o.artifact_bytes));
  run.info["sim_worst_latency_ms"] = Json(o.worst_latency_s * 1e3);
}

// --- fabric_1k --------------------------------------------------------------

constexpr int kFabricChannels = 64;
constexpr int kFabricStations = 1000;
constexpr std::int64_t kFabricWindows = 8;
/// Channels the traced run replays through the testbed.
constexpr int kReplayChannels[] = {0, 21, 42, 63};
/// Audited repetition: channels 0, 16, 32 and 48 get a full conformance
/// audit inside run_fabric.
constexpr int kFabricAuditStride = 16;

struct FabricInputs {
  traffic::Workload workload;
  core::FabricOptions options;
  /// Sub-workloads staged exactly as run_fabric stages them.
  std::vector<traffic::Workload> staged;
};

FabricInputs fabric_inputs(Run& run) {
  FabricInputs in;
  core::DdcrRunOptions& opts = in.options.run;
  opts.phy = net::PhyConfig::gigabit_ethernet();
  opts.arrivals = traffic::ArrivalKind::kSaturatingAdversary;
  opts.seed = run.args.seed;
  // One class per station; a window of 2 * stations slots keeps each
  // channel near half load (every success occupies at least one slot).
  const Duration window = opts.phy.slot_x * (2 * kFabricStations);
  util::Rng rng(run.args.seed);
  traffic::Workload& wl = in.workload;
  wl.name = "fabric_1k";
  const int sources = kFabricChannels * kFabricStations;
  wl.sources.resize(static_cast<std::size_t>(sources));
  for (int s = 0; s < sources; ++s) {
    traffic::SourceSpec& src = wl.sources[static_cast<std::size_t>(s)];
    src.id = s;
    std::string name(1, 'f');
    name += std::to_string(s);
    src.name = std::move(name);
    traffic::MessageClass cls;
    cls.id = s;
    cls.name = src.name;
    cls.source = s;
    cls.l_bits = 1'000;
    cls.d = Duration::microseconds(rng.uniform_i64(20'000, 40'000));
    cls.a = 1;
    cls.w = window;
    src.classes.push_back(cls);
  }
  opts.ddcr.class_width_c =
      core::DdcrConfig::class_width_for(wl.max_deadline(), opts.ddcr.F);
  opts.ddcr.alpha = opts.ddcr.class_width_c * 2;
  opts.ddcr.q = opts.ddcr.m_static;
  while (opts.ddcr.q < kFabricStations) {
    opts.ddcr.q *= opts.ddcr.m_static;
  }
  opts.arrival_horizon = SimTime::zero() + window * kFabricWindows;
  opts.drain_cap = opts.arrival_horizon + window * 8;
  in.options.channels = kFabricChannels;
  in.options.shards = std::min(run.args.threads, kFabricChannels);

  Scope span(run.spans, "core.plan");
  const core::ChannelPlan plan = core::plan_channels(wl, kFabricChannels);
  for (int ch = 0; ch < kFabricChannels; ++ch) {
    traffic::Workload sub = core::channel_workload(wl, plan, ch);
    // Contiguous station ids, as run_fabric renumbers them.
    for (std::size_t s = 0; s < sub.sources.size(); ++s) {
      for (auto& cls : sub.sources[s].classes) {
        cls.source = static_cast<int>(s);
      }
      sub.sources[s].id = static_cast<int>(s);
    }
    in.staged.push_back(std::move(sub));
  }
  return in;
}

void run_fabric_1k(Run& run) {
  Setup<FabricInputs> setup(run, [&] { return fabric_inputs(run); });
  const FabricInputs& in = setup.inputs();
  std::optional<std::uint64_t> digest;
  auto run_job = [&] { return core::run_fabric(in.workload, in.options); };
  // Warm-up pass (fixed, untimed); it also gives the memory high-water
  // marks before and across emission.
  check_job(run, sim_job(run, run_job, true), digest, "warmup");

  if (!run.spans.enabled()) {
    for_budget(run, setup, 3, [&](int) {
      timed_job(run, run_job, digest, run.request_s, "rep");
    });
    run.mark_rss("end");
    // Untimed audited repetition.
    core::FabricOptions audited = in.options;
    audited.audit_stride = kFabricAuditStride;
    obs::Registry::global().reset();
    const core::FabricResult r = core::run_fabric(in.workload, audited);
    check_job(run, outcome(r), digest, "audit");
    run.check("audit.conformance",
              r.conformance_ok &&
                  r.audited_channels == kFabricChannels / kFabricAuditStride,
              std::to_string(r.audited_channels) + " channels audited");
    return;
  }

  // Traced: untraced and traced repetitions alternate.
  std::vector<std::uint64_t> channel_digests;
  auto untraced = [&] {
    timed_job(run, run_job, digest, run.untraced_s, "untraced");
  };
  auto traced = [&] {
    core::FabricResult r;
    const Clock::time_point t0 = Clock::now();
    {
      Scope rep(run.spans, "rep");
      obs::Registry::global().reset();
      const Clock::time_point f0 = Clock::now();
      {
        Scope span(run.spans, "core.fabric_run");
        r = core::run_fabric(in.workload, in.options);
      }
      const double fabric_s = seconds_between(f0, Clock::now());
      const obs::RegistrySnapshot snap = snapshot_and_emit(run, rep);
      // Worker busy time as a share of the shards' wall capacity.
      for (const auto& h : snap.histograms) {
        if (h.name == "pool.worker_busy_us") {
          rep.arg("util.pool_busy_share",
                  Json(static_cast<double>(h.sum) * 1e-6 /
                       (in.options.shards * fabric_s)));
        }
      }
    }
    run.traced_s.push_back(seconds_between(t0, Clock::now()));
    check_job(run, outcome(r), digest, "traced");
    channel_digests.clear();
    for (const auto& ch : r.channels) {
      channel_digests.push_back(ch.protocol_digest);
    }
  };
  for_budget(run, setup, 2,
             [&](int pair) { run_pair(pair, untraced, traced); });
  run.mark_rss("end");

  // Per-channel replays, staged exactly as run_fabric stages them.
  for (const int ch : kReplayChannels) {
    const traffic::Workload& sub = in.staged[static_cast<std::size_t>(ch)];
    core::DdcrRunOptions opts = in.options.run;
    opts.ddcr.static_indices.clear();
    opts.seed = core::channel_seed(in.options.run.seed, ch);
    opts.trace_channel = ch;
    obs::Registry::global().reset();
    std::uint64_t replayed = 0;
    {
      Scope root(run.spans, "channel_replay");
      root.arg("channel", Json(ch));
      PerSource messages;
      {
        Scope span(run.spans, "traffic.stream");
        traffic::WorkloadStream stream(sub, opts.arrivals,
                                       opts.arrival_horizon, opts.seed);
        messages.resize(static_cast<std::size_t>(stream.num_sources()));
        for (int s = 0; s < stream.num_sources(); ++s) {
          traffic::SourceStream& source = stream.source(s);
          while (!source.done()) {
            messages[static_cast<std::size_t>(s)].push_back(source.take());
          }
        }
        root.arg("traffic.messages", Json(stream.total_messages()));
      }
      Replayed replay =
          replay_channel(run.spans, sub.z(), opts, messages, nullptr);
      replayed = finish_replay(run, root, replay);
      teardown(run.spans, replay);
    }
    const std::uint64_t expected =
        channel_digests.at(static_cast<std::size_t>(ch));
    run.check("replay.digest.channel_" + std::to_string(ch),
              replayed == expected,
              "replay " + hex(replayed) + " vs run_fabric " + hex(expected));
  }

  // Audited replay of channel 0: the comparator's own cost.
  const traffic::Workload& sub = in.staged.front();
  core::DdcrRunOptions opts = in.options.run;
  opts.ddcr.static_indices.clear();
  opts.seed = core::channel_seed(in.options.run.seed, 0);
  const auto gen = traffic::generate_traffic(sub, opts.arrivals,
                                             opts.arrival_horizon, opts.seed);
  const std::uint64_t audited =
      audited_replay(run, sub.z(), opts, gen.per_source);
  run.check("audit.replay_digest", audited == channel_digests.front(),
            "audited replay " + hex(audited) + " vs run_fabric " +
                hex(channel_digests.front()));
}

// --- channel_poisson --------------------------------------------------------

constexpr int kPoissonSources = 64;
/// Simulated seconds of arrivals per repetition.
constexpr std::int64_t kPoissonHorizonMs = 2'000;

struct PoissonInputs {
  traffic::Workload workload;
  core::DdcrRunOptions options;
};

PoissonInputs poisson_inputs(const Run& run) {
  PoissonInputs in;
  in.workload = traffic::stock_exchange(kPoissonSources);
  in.workload.validate();
  in.options.arrivals = traffic::ArrivalKind::kBoundedPoisson;
  in.options.arrival_horizon =
      SimTime::zero() + Duration::milliseconds(kPoissonHorizonMs);
  in.options.drain_cap =
      in.options.arrival_horizon + Duration::milliseconds(400);
  in.options.seed = run.args.seed;
  return in;
}

void run_channel_poisson(Run& run) {
  Setup<PoissonInputs> setup(run, [&] { return poisson_inputs(run); });
  const PoissonInputs& in = setup.inputs();
  std::optional<std::uint64_t> digest;
  auto run_job = [&] { return core::run_ddcr(in.workload, in.options); };
  check_job(run, sim_job(run, run_job, true), digest, "warmup");

  if (!run.spans.enabled()) {
    for_budget(run, setup, 3, [&](int) {
      timed_job(run, run_job, digest, run.request_s, "rep");
    });
    run.mark_rss("end");
    // Untimed audited repetition.
    core::DdcrRunOptions audited = in.options;
    audited.conformance_check = true;
    obs::Registry::global().reset();
    const core::DdcrRunResult r = core::run_ddcr(in.workload, audited);
    check_job(run, outcome(r), digest, "audit");
    run.check("audit.conformance", r.conformance.checked && r.conformance.ok,
              r.conformance.summary());
    return;
  }

  // Traced: run_ddcr and its replay through the testbed alternate.
  PerSource last_messages;
  auto untraced = [&] {
    timed_job(run, run_job, digest, run.untraced_s, "untraced");
  };
  auto traced = [&] {
    std::uint64_t replayed = 0;
    const Clock::time_point t0 = Clock::now();
    {
      Scope rep(run.spans, "rep");
      obs::Registry::global().reset();
      traffic::GeneratedTraffic gen;
      {
        Scope span(run.spans, "traffic.generate");
        gen = traffic::generate_traffic(in.workload, in.options.arrivals,
                                        in.options.arrival_horizon,
                                        in.options.seed);
      }
      rep.arg("traffic.messages", Json(gen.total_messages));
      Replayed replay = replay_channel(run.spans, in.workload.z(),
                                       in.options, gen.per_source, nullptr);
      replayed = finish_replay(run, rep, replay);
      teardown(run.spans, replay);
      snapshot_and_emit(run, rep);
      last_messages = std::move(gen.per_source);
    }
    run.traced_s.push_back(seconds_between(t0, Clock::now()));
    run.check("replay.digest", replayed == *digest,
              "replay " + hex(replayed) + " vs run_ddcr " + hex(*digest));
  };
  for_budget(run, setup, 2,
             [&](int pair) { run_pair(pair, untraced, traced); });
  run.mark_rss("end");

  const std::uint64_t audited =
      audited_replay(run, in.workload.z(), in.options, last_messages);
  run.check("audit.replay_digest", audited == *digest,
            "audited replay " + hex(audited) + " vs run_ddcr " + hex(*digest));
}

// --- analysis_mix -----------------------------------------------------------

/// One analysis request: dimension a scenario, or build an exact xi table.
struct AnalysisRequest {
  bool table = false;
  std::string scenario;  ///< dimensioning: scenario builder name
  int z = 0;
  traffic::Workload workload;
  int m = 0;  ///< table: branching degree and height (m^n leaves)
  int n = 0;
};

/// Table shapes between ~3e4 and ~2e6 leaves.
struct TableShape {
  int m;
  int n_lo;
  int n_hi;
};
constexpr TableShape kTableShapes[] = {{2, 15, 21}, {3, 10, 13}, {4, 8, 10},
                                       {8, 5, 7}};
/// Rounds of requests drawn per run; the closed loop cycles through them.
constexpr int kAnalysisRounds = 256;
/// Dimensioning requests per scenario in a round. With three, about 80% of
/// requests dimension a scenario, so the median request is a quick
/// dimensioning answer rather than the sparse boundary between the two
/// kinds (where small speed changes move the median a lot).
constexpr int kDimensionsPerScenario = 3;
constexpr int kMinSources = 2;
constexpr int kMaxSources = 64;

/// Cycles through a seeded permutation of [lo, hi]: over any run of
/// consecutive draws, every value appears equally often (within one).
class Stratum {
 public:
  Stratum(util::Rng& rng, std::int64_t lo, std::int64_t hi)
      : order_(rng.permutation(hi - lo + 1)), lo_(lo) {}
  int next() {
    const std::int64_t v = lo_ + order_[pos_];
    pos_ = (pos_ + 1) % order_.size();
    return static_cast<int>(v);
  }

 private:
  std::vector<std::int64_t> order_;
  std::int64_t lo_;
  std::size_t pos_ = 0;
};

/// The seeded request list, in rounds: each round holds
/// kDimensionsPerScenario dimensioning requests per scenario and one table
/// per branching degree, in seeded order. Source counts z and table
/// heights n sweep seeded permutations of their ranges, so every run serves
/// the same mix of request sizes (what its throughput depends on) in a
/// seed-dependent order.
std::vector<AnalysisRequest> analysis_inputs(const Run& run) {
  util::Rng rng(run.args.seed);
  const std::vector<std::string> scenarios = traffic::scenario_names();
  std::vector<Stratum> zs;
  for (std::size_t i = 0; i < scenarios.size(); ++i) {
    zs.emplace_back(rng, kMinSources, kMaxSources);
  }
  std::vector<Stratum> ns;
  for (const TableShape& shape : kTableShapes) {
    ns.emplace_back(rng, shape.n_lo, shape.n_hi);
  }
  std::vector<AnalysisRequest> requests;
  for (int round = 0; round < kAnalysisRounds; ++round) {
    std::vector<AnalysisRequest> batch;
    for (std::size_t i = 0; i < scenarios.size(); ++i) {
      for (int k = 0; k < kDimensionsPerScenario; ++k) {
        AnalysisRequest req;
        req.scenario = scenarios[i];
        req.z = zs[i].next();
        req.workload = traffic::workload_by_name(req.scenario, req.z);
        batch.push_back(std::move(req));
      }
    }
    for (std::size_t i = 0; i < std::size(kTableShapes); ++i) {
      AnalysisRequest req;
      req.table = true;
      req.m = kTableShapes[i].m;
      req.n = ns[i].next();
      batch.push_back(std::move(req));
    }
    for (const std::int64_t i :
         rng.permutation(static_cast<std::int64_t>(batch.size()))) {
      requests.push_back(std::move(batch[static_cast<std::size_t>(i)]));
    }
  }
  return requests;
}

/// What a request returns to the caller.
struct AnalysisAnswer {
  bool feasible = false;
  bool verified = true;  ///< a feasible answer re-checked feasible
  std::unique_ptr<analysis::XiExactTable> table;
  analysis::GapReport gap;
};

/// Serves one request; every layer call sits in a span of `log`, counts
/// go on `root`.
AnalysisAnswer serve(SpanLog& log, Scope& root, const AnalysisRequest& req) {
  AnalysisAnswer answer;
  if (req.table) {
    {
      Scope span(log, "analysis.xi_build");
      answer.table = std::make_unique<analysis::XiExactTable>(req.m, req.n);
    }
    root.arg("analysis.xi_leaves", Json(answer.table->t()));
    Scope span(log, "analysis.xi_gap");
    answer.gap = analysis::max_asymptote_gap(*answer.table);
    return answer;
  }
  traffic::FcAdapterOptions fc;
  fc.overhead_bits = 160;
  fc.trees = analysis::FcTreeParams{4, 64, 4, 64};
  analysis::FcSystem system;
  {
    Scope span(log, "traffic.fc_system");
    system = traffic::to_fc_system(req.workload, fc);
  }
  analysis::DimensioningRequest request;
  request.phy = system.phy;
  request.sources = system.sources;
  request.m = 4;
  request.F = 64;
  analysis::DimensioningResult result;
  {
    Scope span(log, "analysis.dimension");
    result = analysis::dimension(request);
  }
  // Every escalation step but the fast-fail probe evaluates all classes.
  std::int64_t classes = 0;
  for (const auto& source : system.sources) {
    classes += static_cast<std::int64_t>(source.classes.size());
  }
  const auto steps = static_cast<std::int64_t>(result.steps.size());
  root.arg("analysis.dimension_steps", Json(steps));
  root.arg("analysis.classes_evaluated",
           Json(std::min<std::int64_t>(steps, request.max_steps) * classes));
  answer.feasible = result.feasible;
  if (result.feasible) {
    Scope span(log, "analysis.fc_check");
    analysis::FcSystem chosen = system;
    chosen.trees = result.trees;
    for (std::size_t s = 0; s < chosen.sources.size(); ++s) {
      chosen.sources[s].nu = result.nu[s];
    }
    answer.verified = analysis::check_feasibility(chosen).feasible;
  }
  return answer;
}

/// Checks an answer outside the timed request: a feasible dimensioning
/// answer must have re-checked feasible, and a xi table must agree with
/// the closed form (Eq. 10) at sampled k and meet Eq. 13 over even k.
/// Adds the xi values compared and the mismatches found to the counters.
bool verify(const AnalysisRequest& req, const AnalysisAnswer& answer,
            util::Rng& rng, std::int64_t& points, std::int64_t& mismatches) {
  if (!req.table) {
    return !answer.feasible || answer.verified;
  }
  const analysis::XiExactTable& table = *answer.table;
  const std::int64_t t = table.t();
  std::vector<std::int64_t> ks;
  for (std::int64_t k = 0; k <= 8; ++k) {
    ks.push_back(k);
    ks.push_back(t - k);
  }
  for (int i = 0; i < 16; ++i) {
    ks.push_back(rng.uniform_i64(0, t));
  }
  std::int64_t wrong = 0;
  for (const std::int64_t k : ks) {
    if (table.xi(k) != analysis::xi_closed(req.m, t, k)) {
      ++wrong;
    }
  }
  points += static_cast<std::int64_t>(ks.size());
  mismatches += wrong;
  return wrong == 0 && answer.gap.max_gap_even <= answer.gap.bound;
}

void run_analysis_mix(Run& run) {
  Setup<std::vector<AnalysisRequest>> setup(
      run, [&] { return analysis_inputs(run); });
  const std::vector<AnalysisRequest>& requests = setup.inputs();
  util::Rng verify_rng(run.args.seed ^ 0x5eedULL);
  SpanLog quiet(false);
  std::int64_t feasible = 0;
  std::int64_t xi_points = 0;
  std::int64_t xi_mismatches = 0;

  auto one = [&](SpanLog& log, const AnalysisRequest& req,
                 std::vector<double>& walls) {
    Clock::time_point t0;
    AnalysisAnswer answer;
    bool threw = false;
    {
      Scope root(log, "request");
      t0 = Clock::now();
      try {
        answer = serve(log, root, req);
      } catch (const std::exception& e) {
        threw = true;
        std::fprintf(stderr, "perfbench: request failed: %s\n", e.what());
      }
      walls.push_back(seconds_between(t0, Clock::now()));
    }
    ++run.attempted;
    feasible += answer.feasible ? 1 : 0;
    if (threw ||
        !verify(req, answer, verify_rng, xi_points, xi_mismatches)) {
      run.check("request", false,
                req.table ? "xi table m=" + std::to_string(req.m) +
                                " n=" + std::to_string(req.n)
                          : "dimension " + req.scenario + " z=" +
                                std::to_string(req.z));
    }
  };

  // Warm-up: one pass over the first round.
  std::vector<double> discard;
  const std::size_t round =
      traffic::scenario_names().size() * kDimensionsPerScenario +
      std::size(kTableShapes);
  for (std::size_t i = 0; i < round; ++i) {
    one(quiet, requests[i], discard);
  }

  for_budget(run, setup, 0, [&](int i) {
    const AnalysisRequest& req =
        requests[static_cast<std::size_t>(i) % requests.size()];
    if (!run.spans.enabled()) {
      one(quiet, req, run.request_s);
    } else {
      run_pair(i, [&] { one(quiet, req, run.untraced_s); },
               [&] { one(run.spans, req, run.traced_s); });
    }
  });
  run.mark_rss("end");
  run.check("analysis.answers",
            run.failed == 0,
            std::to_string(run.attempted) + " requests, " +
                std::to_string(feasible) + " feasible answers re-checked, " +
                std::to_string(xi_points) + " xi(k) values vs xi_closed, " +
                std::to_string(xi_mismatches) + " mismatches",
            0);
}

}  // namespace

int main(int argc, char** argv) {
  for (const char* name : kRefusedEnv) {
    if (std::getenv(name) != nullptr) {
      std::fprintf(stderr,
                   "perfbench: refusing to run: %s is set and would change "
                   "what is measured; unset it\n",
                   name);
      return 2;
    }
  }
  Args args;
  bool usage_ok = argc % 2 == 1;
  try {
    for (int i = 1; usage_ok && i + 1 < argc; i += 2) {
      const std::string key = argv[i];
      const std::string value = argv[i + 1];
      if (key == "--workload") {
        args.workload = value;
      } else if (key == "--seed") {
        args.seed = std::stoull(value);
      } else if (key == "--seconds") {
        args.seconds = std::stod(value);
      } else if (key == "--trace") {
        args.trace = value == "1";
      } else if (key == "--trace-out") {
        args.trace_out = value;
      } else {
        usage_ok = false;
      }
    }
  } catch (const std::exception&) {
    usage_ok = false;
  }
  if (!usage_ok || args.seconds <= 0.0 ||
      (args.trace && args.trace_out.empty())) {
    std::fprintf(stderr,
                 "usage: perfbench_driver --workload NAME --seed N --seconds S "
                 "--trace 0|1 [--trace-out FILE]; --trace 1 needs "
                 "--trace-out\n");
    return 2;
  }
  check::install_conformance_auditor();

  Run run(args);
  try {
    if (args.workload == "fabric_1k") {
      run_fabric_1k(run);
    } else if (args.workload == "channel_poisson") {
      run_channel_poisson(run);
    } else if (args.workload == "analysis_mix") {
      run_analysis_mix(run);
    } else {
      std::fprintf(stderr, "perfbench: unknown workload '%s'\n",
                   args.workload.c_str());
      return 2;
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s failed: %s\n", args.workload.c_str(),
                 e.what());
    return 1;
  }

  Json::Object env;
  env["host"] = Json(host_name());
  env["nproc"] = Json(args.threads);
  env["shards"] = Json(args.workload == "fabric_1k"
                           ? std::min(args.threads, kFabricChannels)
                           : 1);
  env["build_type"] = Json(PERFBENCH_BUILD_TYPE);
  env["compiler"] = Json("g++ " __VERSION__);
  env["cxx_flags"] = Json(PERFBENCH_CXX_FLAGS);
  run.info["env"] = Json(env);
  if (args.trace) {
    run.check("trace.spans_nest", run.spans.nesting_ok(),
              "every span closed inside its parent");
    if (!run.spans.write(args.trace_out, env)) {
      std::fprintf(stderr, "perfbench: cannot write %s\n",
                   args.trace_out.c_str());
      return 1;
    }
  }
  std::printf("%s\n", run.to_json().dump().c_str());
  return 0;
}
