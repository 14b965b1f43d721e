// Million-station fabric (docs/FABRIC.md): station-slots per wall-second
// of core::run_fabric with the epoch compiler on ("compiled", the fabric
// configuration) versus off ("interpreted": every slot polled station by
// station — the pre-compiler simulation scheme). Both rows materialize
// arrivals and schedule one simulator event per message, exactly as
// run_ddcr does, so the compiler is the only difference between them.
//
// The workload is a uniform fabric: every station carries one periodic
// class, the saturating adversary fires every window, and class ids are
// laid out so plan_channels assigns exactly `stations` stations to each
// channel. The two rows must agree bit-for-bit on the protocol digest
// chain — the bench doubles as the at-scale equivalence pin and exits
// non-zero on divergence.
//
// Rows carry name/real_time/time_unit so scripts/bench_compare.py can
// gate them: the 64x256 smoke row is pinned against
// bench/baselines/fabric.json in CI. The full run (no HRTDM_BENCH_SMOKE)
// adds the 1000x1000 headline rows to the BENCH_fabric.json it writes
// into HRTDM_BENCH_DIR; that artifact is not committed.
#include <chrono>
#include <cstdio>
#include <string>

#include "bench/harness.hpp"
#include "core/fabric.hpp"
#include "traffic/workload.hpp"
#include "util/table.hpp"
#include "util/thread_pool.hpp"

namespace {

using namespace hrtdm;

double seconds_since(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       start)
      .count();
}

/// One periodic class per station, dimensioned to ~50% channel load:
/// every success occupies >= slot_x on the medium, so `stations` sources
/// per channel need w >= 2 * stations * slot_x for half-load headroom.
traffic::Workload uniform_fabric(int sources, util::Duration window) {
  traffic::Workload wl;
  wl.name = "fabric-uniform";
  wl.sources.resize(static_cast<std::size_t>(sources));
  for (int s = 0; s < sources; ++s) {
    traffic::SourceSpec& src = wl.sources[static_cast<std::size_t>(s)];
    src.id = s;
    src.name = "f" + std::to_string(s);
    traffic::MessageClass cls;
    cls.id = s;
    cls.name = src.name;
    cls.source = s;
    cls.l_bits = 1'000;
    cls.d = util::Duration::milliseconds(40);
    cls.a = 1;
    cls.w = window;
    src.classes.push_back(cls);
  }
  return wl;
}

struct FabricRun {
  double wall_s = 0.0;
  core::FabricResult result;
};

FabricRun run_mode(const traffic::Workload& wl,
                   const core::FabricOptions& base,
                   core::EpochCompilerMode mode) {
  core::FabricOptions options = base;
  // Digests must match across the two modes regardless — the equivalence
  // is pinned by tier-1 tests (test_fabric, test_epoch_compiler) and
  // re-checked here at scale.
  options.run.epoch_compiler = mode;
  FabricRun out;
  const auto start = std::chrono::steady_clock::now();
  out.result = core::run_fabric(wl, options);
  out.wall_s = seconds_since(start);
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  bench::apply_trace_flag(argc, argv);
  bench::apply_check_flag(argc, argv);
  bench::BenchReport report("fabric");
  const bool smoke = bench::BenchReport::smoke();

  // Smoke: the CI-gated 64 channels x 256 stations configuration. Full
  // adds the 1000 x 1000 headline (a million stations in one process).
  struct Config {
    int channels;
    int stations;
    std::int64_t windows;  ///< arrival windows simulated (msgs per source)
  };
  std::vector<Config> configs = {{64, 256, 24}};
  if (!smoke) {
    configs.push_back({1000, 1000, 8});
  }

  core::DdcrRunOptions run;
  run.phy = net::PhyConfig::gigabit_ethernet();
  run.arrivals = traffic::ArrivalKind::kSaturatingAdversary;

  std::printf("%s", util::banner(
      "Fabric: station-slots/s, epoch compiler on vs off").c_str());
  util::TextTable out({"fabric", "mode", "wall s", "station-slots",
                       "slots/s", "delivered", "misses", "speedup"});

  bool identical = true;
  for (const Config& cfg : configs) {
    const int sources = cfg.channels * cfg.stations;
    // Half-load window for `stations` sources per channel, rounded to a
    // microsecond grid.
    const util::Duration window =
        run.phy.slot_x * (2 * cfg.stations);
    const traffic::Workload wl = uniform_fabric(sources, window);
    run.ddcr.class_width_c =
        core::DdcrConfig::class_width_for(wl.max_deadline(), run.ddcr.F);
    run.ddcr.alpha = run.ddcr.class_width_c * 2;
    // Static tree: smallest power of m_static covering one channel's
    // stations (q defaults to 64; a 1000-station channel needs 1024).
    run.ddcr.q = run.ddcr.m_static;
    while (run.ddcr.q < cfg.stations) {
      run.ddcr.q *= run.ddcr.m_static;
    }
    run.arrival_horizon = util::SimTime::zero() + window * cfg.windows;
    run.drain_cap = run.arrival_horizon + window * 8;

    core::FabricOptions base;
    base.run = run;
    base.channels = cfg.channels;
    base.shards = std::min(util::ThreadPool::hardware_threads(),
                           cfg.channels);

    const std::string label =
        std::to_string(cfg.channels) + "x" + std::to_string(cfg.stations);
    const FabricRun compiled =
        run_mode(wl, base, core::EpochCompilerMode::kOn);
    const FabricRun interpreted =
        run_mode(wl, base, core::EpochCompilerMode::kOff);

    identical =
        identical &&
        compiled.result.protocol_digest == interpreted.result.protocol_digest &&
        compiled.result.delivered == interpreted.result.delivered &&
        compiled.result.misses == interpreted.result.misses &&
        compiled.result.undelivered == interpreted.result.undelivered;

    const double compiled_rate =
        compiled.wall_s > 0.0
            ? static_cast<double>(compiled.result.station_slots) /
                  compiled.wall_s
            : 0.0;
    const double interpreted_rate =
        interpreted.wall_s > 0.0
            ? static_cast<double>(interpreted.result.station_slots) /
                  interpreted.wall_s
            : 0.0;
    const double speedup =
        interpreted_rate > 0.0 ? compiled_rate / interpreted_rate : 0.0;

    const struct {
      const char* mode;
      const FabricRun* r;
      double rate;
      double speedup;
    } rows[] = {{"compiled", &compiled, compiled_rate, speedup},
                {"interpreted", &interpreted, interpreted_rate, 1.0}};
    for (const auto& row : rows) {
      out.add_row({util::TextTable::cell(label),
                   util::TextTable::cell(row.mode),
                   util::TextTable::cell(row.r->wall_s, 3),
                   util::TextTable::cell(row.r->result.station_slots),
                   util::TextTable::cell(row.rate, 0),
                   util::TextTable::cell(row.r->result.delivered),
                   util::TextTable::cell(row.r->result.misses),
                   util::TextTable::cell(row.speedup, 2)});
      auto& json = report.add_row();
      json["name"] = bench::Json("fabric/" + label + "/" + row.mode);
      json["run_type"] = bench::Json("iteration");
      json["real_time"] = bench::Json(row.r->wall_s * 1e3);
      json["time_unit"] = bench::Json("ms");
      json["channels"] = bench::Json(cfg.channels);
      json["stations_per_channel"] = bench::Json(cfg.stations);
      json["station_slots"] = bench::Json(row.r->result.station_slots);
      json["station_slots_per_sec"] = bench::Json(row.rate);
      json["generated"] = bench::Json(row.r->result.generated);
      json["delivered"] = bench::Json(row.r->result.delivered);
      json["misses"] = bench::Json(row.r->result.misses);
      json["undelivered"] = bench::Json(row.r->result.undelivered);
      json["protocol_digest"] = bench::Json(
          static_cast<std::int64_t>(row.r->result.protocol_digest));
      json["speedup_vs_naive"] = bench::Json(row.speedup);
    }
    report.metric("speedup_" + label, speedup);
  }
  std::printf("%s", out.str().c_str());
  std::printf("\nmodes digest-identical: %s\n", identical ? "yes" : "NO");

  report.set_threads(std::min(util::ThreadPool::hardware_threads(),
                              configs.front().channels));
  report.config("hardware_threads", util::ThreadPool::hardware_threads());
  report.config("arrivals", "saturating_adversary");
  report.config("l_bits", std::int64_t{1'000});
  report.metric("engines_bit_identical", identical);
  report.write();
  return identical ? 0 : 1;
}
