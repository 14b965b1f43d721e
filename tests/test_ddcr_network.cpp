// Integration tests: full workloads through run_ddcr, replica consistency,
// and agreement between the feasibility analysis and the simulation.
#include "core/ddcr_network.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <functional>
#include <string>
#include <type_traits>
#include <vector>

#include "analysis/feasibility.hpp"
#include "check/conformance.hpp"
#include "traffic/fc_adapter.hpp"
#include "traffic/workload.hpp"
#include "util/check.hpp"

namespace hrtdm::core {
namespace {

using traffic::ArrivalKind;
using traffic::Workload;
using util::Duration;

DdcrRunOptions gigabit_options(const Workload& wl) {
  DdcrRunOptions options;
  options.phy = net::PhyConfig::gigabit_ethernet();
  options.ddcr.m_time = 4;
  options.ddcr.F = 64;
  options.ddcr.m_static = 4;
  options.ddcr.q = 64;
  // Dimension the scheduling horizon cF over the workload's deadline range
  // (see DdcrConfig::class_width_for — the FCs assume pending messages can
  // enter the current time tree).
  options.ddcr.class_width_c =
      DdcrConfig::class_width_for(wl.max_deadline(), options.ddcr.F);
  options.ddcr.alpha = options.ddcr.class_width_c * 2;
  options.ddcr.theta_factor = 1.0;
  options.arrival_horizon = SimTime::from_ns(50'000'000);   // 50 ms
  options.drain_cap = SimTime::from_ns(200'000'000);
  return options;
}

TEST(DdcrNetwork, QuickstartDeliversEverythingOnTime) {
  const Workload wl = traffic::quickstart(8);
  auto options = gigabit_options(wl);
  options.check_consistency = true;
  const DdcrRunResult result = run_ddcr(wl, options);
  EXPECT_GT(result.generated, 0);
  EXPECT_EQ(result.undelivered, 0);
  EXPECT_EQ(result.metrics.delivered, result.generated);
  EXPECT_EQ(result.metrics.misses, 0);
  EXPECT_TRUE(result.consistency_ok);
  EXPECT_GT(result.utilization, 0.0);
  EXPECT_LT(result.utilization, 1.0);
}

TEST(DdcrNetwork, AllArrivalKindsDeliverCleanly) {
  const Workload wl = traffic::videoconference(6);
  for (const ArrivalKind kind :
       {ArrivalKind::kSaturatingAdversary, ArrivalKind::kPeriodicJitter,
        ArrivalKind::kSporadic, ArrivalKind::kBoundedPoisson}) {
    auto options = gigabit_options(wl);
    options.arrivals = kind;
    const DdcrRunResult result = run_ddcr(wl, options);
    EXPECT_EQ(result.undelivered, 0) << "kind " << static_cast<int>(kind);
    EXPECT_EQ(result.metrics.misses, 0) << "kind " << static_cast<int>(kind);
  }
}

TEST(DdcrNetwork, ConsistencyHoldsUnderHeavyContention) {
  // Crank the load so epochs, STs and compressed time all fire, and verify
  // every station's replicated state stayed in lock-step on every slot.
  const Workload wl = traffic::stock_exchange(8);
  auto options = gigabit_options(wl);
  options.check_consistency = true;
  options.arrival_horizon = SimTime::from_ns(20'000'000);
  const DdcrRunResult result = run_ddcr(wl, options);
  EXPECT_TRUE(result.consistency_ok);
  EXPECT_GT(result.per_station.front().epochs, 0);
}

TEST(DdcrNetwork, SeedsChangeJitteredRunsButNotAdversaryRuns) {
  const Workload wl = traffic::quickstart(4);
  auto options = gigabit_options(wl);
  options.arrivals = ArrivalKind::kSaturatingAdversary;
  options.seed = 1;
  const auto run_a = run_ddcr(wl, options);
  options.seed = 2;
  const auto run_b = run_ddcr(wl, options);
  // The adversary is deterministic: identical runs regardless of seed.
  EXPECT_EQ(run_a.metrics.delivered, run_b.metrics.delivered);
  EXPECT_EQ(run_a.metrics.worst_latency_s, run_b.metrics.worst_latency_s);
}

TEST(DdcrNetwork, DeterministicForFixedSeed) {
  const Workload wl = traffic::videoconference(5);
  auto options = gigabit_options(wl);
  options.arrivals = ArrivalKind::kBoundedPoisson;
  options.seed = 99;
  const auto run_a = run_ddcr(wl, options);
  const auto run_b = run_ddcr(wl, options);
  EXPECT_EQ(run_a.metrics.delivered, run_b.metrics.delivered);
  EXPECT_EQ(run_a.metrics.worst_latency_s, run_b.metrics.worst_latency_s);
  EXPECT_EQ(run_a.channel.collision_slots, run_b.channel.collision_slots);
}

TEST(DdcrNetwork, FeasibleWorkloadMeetsItsAnalyticBound) {
  // The soundness check behind the paper's FCs: for a workload the
  // analysis declares feasible, the measured worst-case latency under the
  // saturating adversary stays below B_DDCR for every class.
  const Workload wl = traffic::quickstart(4);
  auto options = gigabit_options(wl);

  traffic::FcAdapterOptions fc_options;
  fc_options.psi_bps = options.phy.psi_bps;
  fc_options.slot_s = options.phy.slot_x.to_seconds();
  fc_options.overhead_bits = options.phy.overhead_bits;
  fc_options.trees = analysis::FcTreeParams{
      options.ddcr.m_static, options.ddcr.q, options.ddcr.m_time,
      options.ddcr.F};
  const auto system = traffic::to_fc_system(wl, fc_options);
  const auto fc = analysis::check_feasibility(system);
  ASSERT_TRUE(fc.feasible) << "test workload must be FC-feasible";

  options.arrivals = ArrivalKind::kSaturatingAdversary;
  const DdcrRunResult result = run_ddcr(wl, options);
  EXPECT_EQ(result.metrics.misses, 0);
  EXPECT_EQ(result.undelivered, 0);

  // Per-class worst latency <= per-class bound.
  std::size_t fc_idx = 0;
  for (const auto& src : wl.sources) {
    for (const auto& cls : src.classes) {
      const auto& bound = fc.classes[fc_idx++];
      const auto it = result.metrics.per_class.find(cls.id);
      ASSERT_NE(it, result.metrics.per_class.end());
      EXPECT_LE(it->second.worst_latency_s, bound.b_ddcr_s)
          << "class " << cls.name;
    }
  }
}

TEST(DdcrNetwork, UndeliveredReportedWhenDrainCapTooSmall) {
  // Overload + tiny drain cap: the run must report undelivered messages
  // rather than pretending success.
  // At 64x nominal load the per-slot overhead alone exceeds channel
  // capacity (every frame occupies at least one 4.096 us slot), so a
  // backlog is guaranteed; the drain cap equal to the arrival horizon
  // cuts the run before the queues could empty.
  Workload wl = traffic::stock_exchange(10).scaled_load(64.0);
  auto options = gigabit_options(wl);
  options.arrival_horizon = SimTime::from_ns(20'000'000);
  options.drain_cap = SimTime::from_ns(20'000'000);
  const DdcrRunResult result = run_ddcr(wl, options);
  EXPECT_GT(result.undelivered, 0);
}

TEST(DdcrNetwork, TestbedInjectValidatesArguments) {
  DdcrTestbed bed(2, gigabit_options(traffic::quickstart(2)));
  traffic::Message msg;
  msg.uid = 1;
  msg.source = 5;  // out of range
  msg.l_bits = 100;
  msg.arrival = SimTime::zero();
  msg.absolute_deadline = SimTime::from_ns(1000);
  EXPECT_THROW(bed.inject(5, msg), util::ContractViolation);
}

TEST(DdcrNetwork, TestbedHonoursCheckConsistency) {
  // A testbed built from a station count attaches the consistency checker
  // when asked to; its verdict is readable on the testbed and its result.
  auto options = gigabit_options(traffic::quickstart(3));
  options.check_consistency = true;
  DdcrTestbed checked(3, options);
  options.check_consistency = false;
  DdcrTestbed unchecked(3, options);
  for (DdcrTestbed* bed : {&checked, &unchecked}) {
    for (int s = 0; s < 3; ++s) {
      traffic::Message msg;
      msg.uid = s;
      msg.class_id = s;
      msg.source = s;
      msg.l_bits = 4'000;
      msg.arrival = SimTime::from_ns(10'000);
      msg.absolute_deadline = SimTime::from_ns(5'000'000);
      bed->inject(s, msg);
    }
    bed->run(SimTime::from_ns(2'000'000));
    EXPECT_TRUE(bed->consistency_ok());
    // One replica hears a collision nobody else heard: the synced
    // replicas disagree from the next slot on.
    net::SlotObservation phantom;
    phantom.kind = net::SlotKind::kCollision;
    phantom.slot_end = bed->simulator().now();
    phantom.slot_start = phantom.slot_end - options.phy.slot_x;
    bed->station(1).observe(phantom);
    bed->run(SimTime::from_ns(2'100'000));
    EXPECT_FALSE(bed->digests_agree());
    bed->stop();
  }
  EXPECT_FALSE(checked.consistency_ok());
  EXPECT_FALSE(checked.result().consistency_ok);
  EXPECT_TRUE(unchecked.consistency_ok());  // the check was off
}

TEST(DdcrNetwork, StationsViewOneSharedConfig) {
  // The static-index table is one constant per channel: every station
  // reads the testbed's resolved config and views its own row of it, so
  // station memory stays O(z) per channel instead of O(z^2).
  static_assert(
      !std::is_constructible_v<DdcrStation, int, DdcrConfig, SharedReplica&>,
      "a temporary config must not bind: the station would dangle");
  constexpr int kStations = 1000;
  auto options = gigabit_options(traffic::quickstart(2));
  options.ddcr.q = 1024;
  DdcrTestbed bed(kStations, options);
  const DdcrConfig& shared = bed.options().ddcr;
  ASSERT_EQ(shared.static_indices.size(),
            static_cast<std::size_t>(kStations));
  for (int i = 0; i < kStations; ++i) {
    const DdcrStation& station = bed.station(i);
    ASSERT_EQ(&station.config(), &shared) << "station " << i;
    ASSERT_EQ(station.static_indices().data(),
              shared.static_indices[static_cast<std::size_t>(i)].data())
        << "station " << i;
    ASSERT_EQ(station.static_indices().size(),
              shared.static_indices[static_cast<std::size_t>(i)].size());
  }
}

TEST(DdcrNetwork, TestbedRejectsConformanceCheckWithoutWorkload) {
  // A testbed built from a station count has no generating workload to
  // audit against: asking for the audit must fail at construction, not
  // silently skip it, and the message must say what to do instead.
  ASSERT_TRUE(check::install_conformance_auditor());
  const Workload wl = traffic::quickstart(2);
  auto options = gigabit_options(wl);
  options.conformance_check = true;
  try {
    DdcrTestbed bed(2, options);
    ADD_FAILURE() << "conformance_check was accepted without a workload";
  } catch (const util::ContractViolation& e) {
    EXPECT_NE(std::string(e.what()).find("DdcrTestbed(workload, options)"),
              std::string::npos)
        << e.what();
  }
  // Built from the workload, the same options are accepted and audited.
  DdcrTestbed bed(wl, options);
  bed.inject(traffic::generate_traffic(wl, options.arrivals,
                                       options.arrival_horizon, options.seed));
  bed.advance(options.arrival_horizon);
  bed.drain(options.drain_cap);
  bed.stop();
  const DdcrRunResult result = bed.result();
  EXPECT_TRUE(result.conformance.checked);
  EXPECT_TRUE(result.conformance.ok) << result.conformance.summary();
  EXPECT_EQ(result.protocol_digest, run_ddcr(wl, options).protocol_digest);
}

// The message of the ContractViolation `build` throws; empty (and a test
// failure) when it throws none.
template <typename Build>
std::string rejection(Build build) {
  try {
    build();
  } catch (const util::ContractViolation& e) {
    return e.what();
  }
  ADD_FAILURE() << "no ContractViolation";
  return {};
}

TEST(DdcrConfig, EachCheckNamesItsValueAndTheFix) {
  // Every boundary check of DdcrConfig::validate and spread_indices names
  // the field, the value it rejects and what to use instead.
  const auto base = [] {
    DdcrConfig c;
    c.static_indices = DdcrConfig::one_index_per_source(4, c.q);
    return c;
  };
  struct Case {
    const char* label;
    std::function<void(DdcrConfig&)> mutate;
    int z;
    std::vector<std::string> expected;
  };
  const std::vector<Case> cases = {
      {"no source", [](DdcrConfig&) {}, 0, {"z = 0"}},
      {"m_time", [](DdcrConfig& c) { c.m_time = 1; }, 4,
       {"m_time = 1", ">= 2"}},
      {"m_static", [](DdcrConfig& c) { c.m_static = 0; }, 4,
       {"m_static = 0", ">= 2"}},
      {"F", [](DdcrConfig& c) { c.F = 60; }, 4,
       {"F = 60", "m_time = 4", "F = 64"}},
      {"q", [](DdcrConfig& c) { c.q = 100; }, 4,
       {"q = 100", "m_static = 4", "q = 256"}},
      {"q below z", [](DdcrConfig& c) { c.q = 1024; }, 2000,
       {"q = 1024", "z = 2000", "m_static = 4", "4096"}},
      {"c", [](DdcrConfig& c) { c.class_width_c = Duration::nanoseconds(-5); },
       4, {"c = -5 ns", "class_width_for"}},
      {"alpha", [](DdcrConfig& c) { c.alpha = Duration::nanoseconds(-7); }, 4,
       {"alpha = -7 ns", "alpha >= 0"}},
      {"alpha + (F + 1) * c",
       [](DdcrConfig& c) {
         c.class_width_c = Duration::nanoseconds(INT64_MAX / 64);
         c.alpha = Duration::nanoseconds(3);
       },
       4,
       {"overflows", "alpha = 3 ns",
        "c = " + std::to_string(INT64_MAX / 64) + " ns", "F = 64"}},
      {"theta_factor", [](DdcrConfig& c) { c.theta_factor = -0.5; }, 4,
       {"theta_factor = -0.5", "1.0"}},
      {"perpetual",
       [](DdcrConfig& c) {
         c.epoch_mode = EpochMode::kPerpetual;
         c.theta_factor = 0.0;
       },
       4, {"theta_factor = 0", "kCsmaCdFallback"}},
      {"max_empty_tts", [](DdcrConfig& c) { c.max_empty_tts = -2; }, 4,
       {"max_empty_tts = -2"}},
      {"static_indices size", [](DdcrConfig&) {}, 5,
       {"lists 4 sources", "z = 5", "one_index_per_source"}},
      {"sum of nu_i",
       [](DdcrConfig& c) {
         c.q = 16;
         c.static_indices = {{0, 1, 2, 3, 4}, {5, 6, 7, 8}, {9, 10, 11, 12},
                             {13, 14, 15, 16}};
       },
       4, {"sum of nu_i is 17", "z = 4", "q = 16", "m_static = 4", "64"}},
      {"empty source", [](DdcrConfig& c) { c.static_indices[2].clear(); }, 4,
       {"source 2 has no static index"}},
      {"out of range", [](DdcrConfig& c) { c.static_indices[1] = {70}; }, 4,
       {"static index 70 of source 1", "q = 64"}},
      {"shared leaf", [](DdcrConfig& c) { c.static_indices[3] = {16}; }, 4,
       {"static index 16", "sources 1 and 3", "disjoint"}},
      {"unranked",
       [](DdcrConfig& c) { c.static_indices[0] = {9, 4}; }, 4,
       {"source 0", "(9 then 4)", "increasing"}},
  };
  for (const Case& c : cases) {
    DdcrConfig config = base();
    c.mutate(config);
    const std::string what = rejection([&] { config.validate(c.z); });
    for (const std::string& part : c.expected) {
      EXPECT_NE(what.find(part), std::string::npos)
          << c.label << ": \"" << part << "\" not in: " << what;
    }
  }

  // spread_indices, which the testbed reaches only with q >= z.
  const struct {
    const char* label;
    int z;
    std::int64_t q;
    std::vector<std::int64_t> nu;
    std::vector<const char*> expected;
  } spread_cases[] = {
      {"no source", 0, 16, {}, {"z = 0"}},
      {"nu size", 3, 16, {1, 1}, {"nu has 2 entries", "z = 3"}},
      {"nu_i", 3, 16, {1, 0, 1}, {"nu_1 = 0"}},
      {"sum", 2000, 1024, std::vector<std::int64_t>(2000, 1),
       {"sum of nu_i is 2000", "z = 2000", "q = 1024", "m_static"}},
  };
  for (const auto& c : spread_cases) {
    const std::string what = rejection(
        [&] { (void)DdcrConfig::spread_indices(c.z, c.q, c.nu); });
    for (const char* part : c.expected) {
      EXPECT_NE(what.find(part), std::string::npos)
          << c.label << ": \"" << part << "\" not in: " << what;
    }
  }

  // Through the testbed, q < z reaches validate's message.
  DdcrRunOptions options;
  options.ddcr.q = 1024;
  const std::string what = rejection([&] { DdcrTestbed bed(2000, options); });
  EXPECT_NE(what.find("q = 1024 but z = 2000 sources; q must be a power of "
                      "m_static = 4 at least z, e.g. 4096"),
            std::string::npos)
      << what;
}

TEST(DdcrNetwork, TestbedConstructionIsNearLinearInStations) {
  // BroadcastChannel::attach checks each id against a hash set, so building
  // a testbed costs O(z) channel work: 4000 stations take at most 6x what
  // 1000 take (the per-attach scan of the attached stations made it 14x).
  // Each size keeps its fastest of several back-to-back builds, so the
  // allocator has grown its heap to the size before the one that counts.
  DdcrRunOptions options;
  options.ddcr.q = 4096;
  const auto fastest = [&options](int z) {
    double best = 1e9;
    for (int rep = 0; rep < 7; ++rep) {
      const auto t0 = std::chrono::steady_clock::now();
      {
        DdcrTestbed bed(z, options);
        EXPECT_EQ(bed.station_count(), z);
      }
      const std::chrono::duration<double> took =
          std::chrono::steady_clock::now() - t0;
      best = std::min(best, took.count());
    }
    return best;
  };
  const double small = fastest(1000);
  const double large = fastest(4000);
  EXPECT_LE(large, 6.0 * small) << "z = 1000: " << small * 1e3
                                << " ms, z = 4000: " << large * 1e3 << " ms";
}

}  // namespace
}  // namespace hrtdm::core
