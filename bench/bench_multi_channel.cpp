// E18 — Parallel broadcast media (section 3.1: "many such media can be
// used in parallel"): capacity scaling with the channel count, plus the
// run-engine speedup of executing the per-channel simulations on the
// fabric's shard pool (core::run_fabric).
//
// A workload that overloads one Gigabit segment is spread across 1-4
// parallel segments by the greedy load-balancing planner; misses and
// worst-case latency should collapse once per-channel load drops below
// the feasibility frontier. The parallel engine must be bit-identical to
// the serial one (digest + metrics), just faster — both facts are
// measured and recorded in BENCH_multi_channel.json.
#include <algorithm>
#include <chrono>
#include <cstdio>

#include "bench/harness.hpp"
#include "core/fabric.hpp"
#include "traffic/workload.hpp"
#include "util/stats.hpp"
#include "util/table.hpp"
#include "util/thread_pool.hpp"

namespace {

double seconds_since(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       start)
      .count();
}

}  // namespace

int main(int argc, char** argv) {
  using namespace hrtdm;

  // --trace-out <file> (or HRTDM_TRACE_OUT) emits a Perfetto trace of the
  // runs below: one process per channel, one track per station.
  bench::apply_trace_flag(argc, argv);
  bench::apply_check_flag(argc, argv);
  bench::BenchReport report("multi_channel");
  const bool smoke = bench::BenchReport::smoke();

  // 4x nominal trading-floor load: slot overhead alone stresses one
  // channel (every frame holds the medium for >= 4.096 us).
  const traffic::Workload wl = traffic::stock_exchange(12).scaled_load(4.0);

  core::DdcrRunOptions options;
  options.phy = net::PhyConfig::gigabit_ethernet();
  options.ddcr.class_width_c =
      core::DdcrConfig::class_width_for(wl.max_deadline(), options.ddcr.F);
  options.ddcr.alpha = options.ddcr.class_width_c * 2;
  options.arrivals = traffic::ArrivalKind::kSaturatingAdversary;
  options.arrival_horizon =
      sim::SimTime::from_ns(smoke ? 10'000'000 : 60'000'000);
  options.drain_cap = sim::SimTime::from_ns(smoke ? 60'000'000 : 300'000'000);

  report.config("workload", "stock_exchange(12) x4 load");
  report.config("arrival_horizon_ns", options.arrival_horizon.ns());
  report.config("drain_cap_ns", options.drain_cap.ns());
  report.config("seed", static_cast<std::int64_t>(options.seed));

  std::printf("%s", util::banner(
      "E18: capacity scaling with parallel broadcast media "
      "(stock exchange x4, z = 12)").c_str());
  util::TextTable out({"channels", "imbalance", "generated", "delivered",
                       "misses", "undelivered", "worst lat us",
                       "mean util %"});
  for (const int channels : {1, 2, 3, 4}) {
    core::FabricOptions fopts;
    fopts.run = options;
    fopts.channels = channels;
    const core::FabricResult result = core::run_fabric(wl, fopts);
    out.add_row({util::TextTable::cell(static_cast<std::int64_t>(channels)),
                 util::TextTable::cell(result.plan.imbalance(), 2),
                 util::TextTable::cell(result.generated),
                 util::TextTable::cell(result.delivered),
                 util::TextTable::cell(result.misses),
                 util::TextTable::cell(result.undelivered),
                 util::TextTable::cell(result.worst_latency_s * 1e6, 1),
                 util::TextTable::cell(result.mean_utilization * 100.0, 1)});
    auto& row = report.add_row();
    row["channels"] = bench::Json(channels);
    row["imbalance"] = bench::Json(result.plan.imbalance());
    row["generated"] = bench::Json(result.generated);
    row["delivered"] = bench::Json(result.delivered);
    row["misses"] = bench::Json(result.misses);
    row["undelivered"] = bench::Json(result.undelivered);
    row["worst_latency_us"] = bench::Json(result.worst_latency_s * 1e6);
    row["mean_utilization"] = bench::Json(result.mean_utilization);
  }
  std::printf("%s", out.str().c_str());
  std::printf("\n(per-class traffic stays on one channel, so the "
              "single-channel FCs apply verbatim per segment)\n");

  // --- run-engine speedup: serial vs sharded execution ------------------
  // One run of this horizon takes milliseconds, so a single shot reads
  // scheduler noise: each side is timed as the median of alternating
  // repetitions after an untimed warm-up pair, and every repetition must
  // agree bit-for-bit.
  const int kChannels = 4;
  core::FabricOptions timed;
  timed.run = options;
  timed.run.arrival_horizon =
      sim::SimTime::from_ns(smoke ? 20'000'000 : 240'000'000);
  timed.run.drain_cap =
      sim::SimTime::from_ns(smoke ? 120'000'000 : 900'000'000);
  timed.channels = kChannels;
  // One worker per channel even when the host has fewer cores: the
  // bit-identical check must exercise the real cross-thread path, and the
  // recorded hardware_threads lets readers judge the speedup number (on a
  // single-core host it is ~1x by construction; it scales with cores).
  const int threads = kChannels;
  const int reps = smoke ? 3 : 7;

  util::Samples serial_s;
  util::Samples parallel_s;
  bool identical = true;
  std::uint64_t digest = 0;
  for (int rep = -1; rep < reps; ++rep) {  // rep -1: the warm-up pair
    timed.shards = 1;
    const auto serial_start = std::chrono::steady_clock::now();
    const core::FabricResult serial = core::run_fabric(wl, timed);
    const double serial_wall = seconds_since(serial_start);

    timed.shards = threads;
    const auto parallel_start = std::chrono::steady_clock::now();
    const core::FabricResult parallel = core::run_fabric(wl, timed);
    const double parallel_wall = seconds_since(parallel_start);

    identical = identical &&
                serial.protocol_digest == parallel.protocol_digest &&
                serial.generated == parallel.generated &&
                serial.delivered == parallel.delivered &&
                serial.misses == parallel.misses &&
                serial.undelivered == parallel.undelivered &&
                serial.worst_latency_s == parallel.worst_latency_s &&
                serial.mean_utilization == parallel.mean_utilization;
    digest = serial.protocol_digest;
    if (rep >= 0) {
      serial_s.add(serial_wall);
      parallel_s.add(parallel_wall);
    }
  }
  const double serial_median = serial_s.percentile(50);
  const double parallel_median = parallel_s.percentile(50);
  const double speedup =
      parallel_median > 0.0 ? serial_median / parallel_median : 0.0;

  std::printf("\nE18 run engine, %d channels, median of %d: serial %.4f s "
              "[%.4f, %.4f], parallel (%d threads) %.4f s [%.4f, %.4f] -> "
              "%.2fx on %d hardware threads; bit-identical: %s\n",
              kChannels, reps, serial_median, serial_s.percentile(25),
              serial_s.percentile(75), threads, parallel_median,
              parallel_s.percentile(25), parallel_s.percentile(75), speedup,
              util::ThreadPool::hardware_threads(), identical ? "yes" : "NO");

  report.set_threads(threads);
  report.config("hardware_threads", util::ThreadPool::hardware_threads());
  report.config("speedup_channels", kChannels);
  report.config("speedup_horizon_ns", timed.run.arrival_horizon.ns());
  report.config("speedup_repetitions", reps);
  report.metric("serial_wall_s", serial_median);
  report.metric("serial_wall_q1_s", serial_s.percentile(25));
  report.metric("serial_wall_q3_s", serial_s.percentile(75));
  report.metric("parallel_wall_s", parallel_median);
  report.metric("parallel_wall_q1_s", parallel_s.percentile(25));
  report.metric("parallel_wall_q3_s", parallel_s.percentile(75));
  report.metric("speedup_4ch", speedup);
  report.metric("parallel_bit_identical", identical);
  report.metric("protocol_digest", static_cast<std::int64_t>(digest));
  report.write();
  return identical ? 0 : 1;
}
