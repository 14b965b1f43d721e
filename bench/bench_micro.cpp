// E15 — google-benchmark microbenchmarks: throughput of the analysis
// kernels (exact DP, closed form, P2 DP, feasibility evaluation), the
// tree-search engine, the event loop and a full protocol run.
//
// Custom main (instead of benchmark_main) so the JSON reporter output is
// routed through the shared bench harness into BENCH_micro.json: the
// google-benchmark result objects land verbatim in the artifact's "rows".
#include <benchmark/benchmark.h>

#include <functional>
#include <sstream>

#include "bench/harness.hpp"

#include "analysis/feasibility.hpp"
#include "analysis/p2.hpp"
#include "analysis/xi.hpp"
#include "core/ddcr_network.hpp"
#include "core/edf_queue.hpp"
#include "core/tree_search.hpp"
#include "sim/simulator.hpp"
#include "traffic/fc_adapter.hpp"
#include "traffic/workload.hpp"
#include "util/math.hpp"
#include "util/rng.hpp"

namespace {

using namespace hrtdm;

void BM_XiExactTableBuild(benchmark::State& state) {
  const int m = static_cast<int>(state.range(0));
  const int n = static_cast<int>(state.range(1));
  for (auto _ : state) {
    analysis::XiExactTable table(m, n);
    benchmark::DoNotOptimize(table.xi(table.t() / 2));
  }
  state.SetLabel("t=" + std::to_string(util::ipow(m, n)));
}
BENCHMARK(BM_XiExactTableBuild)
    ->Args({2, 8})
    ->Args({2, 10})
    ->Args({4, 5})
    ->Args({4, 6})
    ->Args({4, 8})     // 65536 leaves
    ->Args({4, 10});   // ~1M leaves; intractable before the concave kernel

void BM_XiClosedForm(benchmark::State& state) {
  const std::int64_t t = 4096;
  std::int64_t k = 2;
  for (auto _ : state) {
    benchmark::DoNotOptimize(analysis::xi_closed(4, t, k));
    k = k % t + 1;
    if (k < 2) {
      k = 2;
    }
  }
}
BENCHMARK(BM_XiClosedForm);

void BM_XiAsymptote(benchmark::State& state) {
  double k = 2.0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(analysis::xi_asymptotic(4, 4096.0, k));
    k = k < 2000.0 ? k + 1.37 : 2.0;
  }
}
BENCHMARK(BM_XiAsymptote);

void BM_P2ExhaustiveDp(benchmark::State& state) {
  analysis::XiExactTable table(4, 3);
  for (auto _ : state) {
    benchmark::DoNotOptimize(analysis::p2_exhaustive(table, 100, 4));
  }
}
BENCHMARK(BM_P2ExhaustiveDp);

void BM_FeasibilityCheck(benchmark::State& state) {
  const auto wl = traffic::videoconference(static_cast<int>(state.range(0)));
  traffic::FcAdapterOptions options;
  options.trees = analysis::FcTreeParams{4, 64, 4, 64};
  const auto system = traffic::to_fc_system(wl, options);
  for (auto _ : state) {
    benchmark::DoNotOptimize(analysis::check_feasibility(system));
  }
}
BENCHMARK(BM_FeasibilityCheck)->Arg(4)->Arg(16)->Arg(64);

void BM_TreeSearchEngine(benchmark::State& state) {
  const auto leaves_count = state.range(0);
  util::Rng rng(42);
  analysis::XiExactTable table(4, 3);
  const auto leaves =
      analysis::worst_case_leaves(table, leaves_count);
  for (auto _ : state) {
    core::TreeSearchEngine engine(4, 64);
    engine.begin();
    std::vector<std::int64_t> active(leaves.begin(), leaves.end());
    while (engine.active()) {
      const auto interval = engine.current();
      int inside = 0;
      for (const auto leaf : active) {
        inside += interval.contains(leaf) ? 1 : 0;
      }
      if (inside == 0) {
        engine.feedback(core::TreeSearchEngine::Feedback::kSilence);
      } else if (inside == 1) {
        engine.feedback(core::TreeSearchEngine::Feedback::kSuccess);
        for (std::size_t i = 0; i < active.size(); ++i) {
          if (interval.contains(active[i])) {
            active.erase(active.begin() + static_cast<std::ptrdiff_t>(i));
            break;
          }
        }
      } else {
        engine.feedback(core::TreeSearchEngine::Feedback::kCollision);
      }
    }
    benchmark::DoNotOptimize(engine.search_slots());
  }
}
BENCHMARK(BM_TreeSearchEngine)->Arg(4)->Arg(16)->Arg(64);

void BM_SimulatorEventLoop(benchmark::State& state) {
  for (auto _ : state) {
    sim::Simulator sim;
    std::int64_t fired = 0;
    std::function<void()> tick = [&] {
      if (++fired < 10'000) {
        sim.schedule_after(util::Duration::nanoseconds(10), tick);
      }
    };
    sim.schedule_at(sim::SimTime::zero(), tick);
    sim.run_to_completion();
    benchmark::DoNotOptimize(fired);
  }
  state.SetItemsProcessed(state.iterations() * 10'000);
}
BENCHMARK(BM_SimulatorEventLoop);

void BM_SimulatorEventChurn(benchmark::State& state) {
  // Schedule/cancel churn: every round schedules a batch, cancels half and
  // fires the rest, recycling pool slots continuously — the pattern the
  // channel's slot-end + gap-resume events produce.
  constexpr int kBatch = 64;
  constexpr int kRounds = 256;
  for (auto _ : state) {
    sim::Simulator sim;
    std::int64_t fired = 0;
    std::vector<sim::EventHandle> handles;
    handles.reserve(kBatch);
    for (int round = 0; round < kRounds; ++round) {
      handles.clear();
      const auto at = sim.now() + util::Duration::nanoseconds(10);
      for (int i = 0; i < kBatch; ++i) {
        handles.push_back(sim.schedule_at(at, [&fired] { ++fired; }));
      }
      for (int i = 0; i < kBatch; i += 2) {
        sim.cancel(handles[static_cast<std::size_t>(i)]);
      }
      sim.run_until(at);
    }
    benchmark::DoNotOptimize(fired);
  }
  state.SetItemsProcessed(state.iterations() * kBatch * kRounds);
}
BENCHMARK(BM_SimulatorEventChurn);

void BM_EdfQueueChurn(benchmark::State& state) {
  // Steady-state push/remove against a deep backlog; remove() used to scan
  // the deadline set linearly, so this scaled with the queue depth.
  const std::int64_t depth = state.range(0);
  for (auto _ : state) {
    state.PauseTiming();
    core::EdfQueue queue;
    util::SplitMix64 mix(7);
    for (std::int64_t uid = 0; uid < depth; ++uid) {
      traffic::Message msg;
      msg.uid = uid;
      msg.l_bits = 100;
      msg.absolute_deadline = sim::SimTime::from_ns(
          static_cast<std::int64_t>(mix.next() % 1'000'000));
      queue.push(msg);
    }
    state.ResumeTiming();
    std::int64_t uid = depth;
    for (std::int64_t op = 0; op < 4096; ++op) {
      traffic::Message msg;
      msg.uid = uid++;
      msg.l_bits = 100;
      msg.absolute_deadline = sim::SimTime::from_ns(
          static_cast<std::int64_t>(mix.next() % 1'000'000));
      queue.push(msg);
      queue.remove(static_cast<std::int64_t>(mix.next() %
                                             static_cast<std::uint64_t>(uid)));
    }
    benchmark::DoNotOptimize(queue.size());
  }
  state.SetItemsProcessed(state.iterations() * 4096);
}
BENCHMARK(BM_EdfQueueChurn)->Arg(1024)->Arg(10240);

void BM_FullDdcrRun(benchmark::State& state) {
  const auto wl = traffic::quickstart(static_cast<int>(state.range(0)));
  core::DdcrRunOptions options;
  options.ddcr.class_width_c =
      core::DdcrConfig::class_width_for(wl.max_deadline(), options.ddcr.F);
  options.ddcr.alpha = options.ddcr.class_width_c * 2;
  options.arrival_horizon = sim::SimTime::from_ns(10'000'000);  // 10 ms
  options.drain_cap = sim::SimTime::from_ns(50'000'000);
  for (auto _ : state) {
    const auto result = core::run_ddcr(wl, options);
    benchmark::DoNotOptimize(result.metrics.delivered);
  }
}
BENCHMARK(BM_FullDdcrRun)->Arg(4)->Arg(16)->Unit(benchmark::kMillisecond);

void BM_CleanWorkloadSlots(benchmark::State& state) {
  // Headline metric for the epoch compiler (docs/PERFORMANCE.md): simulated
  // slots/sec draining a deep clean backlog — every station holds a full
  // queue in one deadline class, so each epoch is a TTs collision cascading
  // into a z-wide STs tie-break, the shape the xi bounds are about. Arg(1)
  // compiles epochs, Arg(0) forces the interpreted slot-by-slot loop; the
  // items/sec ratio between the rows is the compiled-epoch speedup. Setup
  // (testbed construction + arrival delivery) is identical in both modes
  // and excluded from the timed region.
  constexpr int kStations = 64;
  constexpr int kPerStation = 128;
  core::DdcrRunOptions options;
  options.ddcr.class_width_c = core::DdcrConfig::class_width_for(
      util::Duration::milliseconds(40), options.ddcr.F);
  options.ddcr.alpha = options.ddcr.class_width_c * 2;
  options.epoch_compiler = state.range(0) != 0
                               ? core::EpochCompilerMode::kOn
                               : core::EpochCompilerMode::kOff;
  std::int64_t slots = 0;
  for (auto _ : state) {
    state.PauseTiming();
    {
      core::DdcrTestbed bed(kStations, options);
      std::int64_t uid = 1;
      for (int s = 0; s < kStations; ++s) {
        for (int i = 0; i < kPerStation; ++i) {
          traffic::Message msg;
          msg.uid = uid++;
          msg.source = s;
          msg.l_bits = 1000;
          msg.arrival = sim::SimTime::from_ns(1000 + i);
          msg.absolute_deadline =
              msg.arrival + util::Duration::milliseconds(10);
          bed.inject(s, msg);
        }
      }
      bed.run(sim::SimTime::from_ns(1000 + kPerStation + 1));
      state.ResumeTiming();
      bed.run(sim::SimTime::from_ns(200'000'000));
      state.PauseTiming();
      const auto cs = bed.metrics().summarize();
      slots = cs.silence_slots + cs.collision_slots + cs.delivered;
      benchmark::DoNotOptimize(slots);
    }
    state.ResumeTiming();
  }
  state.SetItemsProcessed(state.iterations() * slots);
  state.SetLabel(state.range(0) != 0 ? "compiled" : "interpreted");
}
BENCHMARK(BM_CleanWorkloadSlots)
    ->Arg(1)
    ->Arg(0)
    ->Unit(benchmark::kMillisecond);

void BM_PoissonSlots(benchmark::State& state) {
  // The time-tree side of the epoch compiler (docs/PERFORMANCE.md,
  // "Contender indexes"): stock_exchange(64) under bounded-Poisson arrivals,
  // perfbench's channel_poisson shape cut to 200 ms of arrivals, where most
  // replayed slots are TTs probes over about 60 queued heads
  // (BM_CleanWorkloadSlots is the full-width STs drain). Arg(1) compiles
  // epochs, Arg(0) forces the interpreted loop; set-up (testbed, traffic,
  // injection) is outside the timed region.
  const traffic::Workload wl = traffic::stock_exchange(64);
  core::DdcrRunOptions options;
  options.arrivals = traffic::ArrivalKind::kBoundedPoisson;
  options.arrival_horizon = sim::SimTime::from_ns(200'000'000);
  options.drain_cap =
      options.arrival_horizon + util::Duration::milliseconds(400);
  options.epoch_compiler = state.range(0) != 0
                               ? core::EpochCompilerMode::kOn
                               : core::EpochCompilerMode::kOff;
  const traffic::GeneratedTraffic arrivals = traffic::generate_traffic(
      wl, options.arrivals, options.arrival_horizon, options.seed);
  std::int64_t slots = 0;
  for (auto _ : state) {
    state.PauseTiming();
    {
      core::DdcrTestbed bed(wl, options);
      bed.inject(arrivals);
      state.ResumeTiming();
      bed.advance(options.arrival_horizon);
      bed.drain(options.drain_cap);
      state.PauseTiming();
      const auto cs = bed.metrics().summarize();
      slots = cs.silence_slots + cs.collision_slots + cs.delivered;
      benchmark::DoNotOptimize(slots);
    }
    state.ResumeTiming();
  }
  state.SetItemsProcessed(state.iterations() * slots);
  state.SetLabel(state.range(0) != 0 ? "compiled" : "interpreted");
}
BENCHMARK(BM_PoissonSlots)->Arg(1)->Arg(0)->Unit(benchmark::kMillisecond);

}  // namespace

int main(int argc, char** argv) {
  hrtdm::bench::BenchReport report("micro");

  // Smoke mode trims measurement time; explicit flags still win because
  // Initialize consumes them after these defaults.
  std::vector<char*> args(argv, argv + argc);
  std::string min_time = "--benchmark_min_time=0.01";
  if (hrtdm::bench::BenchReport::smoke()) {
    args.insert(args.begin() + 1, min_time.data());
  }
  int args_count = static_cast<int>(args.size());
  benchmark::Initialize(&args_count, args.data());

  // The JSON reporter runs as the *display* reporter (a custom file
  // reporter would force --benchmark_out), captured into a stream and
  // re-parsed into the shared artifact; a compact console summary is
  // printed from the parsed rows below.
  std::ostringstream json_stream;
  benchmark::JSONReporter json;
  json.SetOutputStream(&json_stream);
  const std::size_t ran = benchmark::RunSpecifiedBenchmarks(&json);

  const auto parsed = hrtdm::bench::Json::parse(json_stream.str());
  report.metric("benchmarks_run", static_cast<std::int64_t>(ran));
  if (parsed.contains("benchmarks")) {
    for (const auto& entry : parsed.at("benchmarks").as_array()) {
      report.add_row() = entry.as_object();
      const double t = entry.contains("real_time")
                           ? entry.at("real_time").as_double()
                           : 0.0;
      const std::string unit = entry.contains("time_unit")
                                   ? entry.at("time_unit").as_string()
                                   : "?";
      std::printf("%-40s %14.1f %s\n", entry.at("name").as_string().c_str(),
                  t, unit.c_str());
    }
  }
  report.write();
  benchmark::Shutdown();
  return 0;
}
