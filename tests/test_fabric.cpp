// core::Fabric conformance pins: a bridge-free fabric must be
// bit-identical — protocol digest chain, delivered/misses/undelivered —
// to run_multi_channel() on the same workload, for any shard count, with
// the epoch compiler on or off, and in barrier mode. Plus the fabric.*
// gauge sums, bridge exactly-once delivery, and the replay entry the
// Shrinker's fabric axis uses.
#include <gtest/gtest.h>

#include <cstring>
#include <map>
#include <string>
#include <vector>

#include "check/conformance.hpp"
#include "core/fabric.hpp"
#include "core/multi_channel.hpp"
#include "obs/registry.hpp"
#include "obs/sampler.hpp"
#include "traffic/workload.hpp"
#include "util/check.hpp"

namespace hrtdm::core {
namespace {

using util::SimTime;

DdcrRunOptions small_options(const traffic::Workload& wl) {
  DdcrRunOptions options;
  options.ddcr.class_width_c =
      DdcrConfig::class_width_for(wl.max_deadline(), options.ddcr.F);
  options.ddcr.alpha = options.ddcr.class_width_c * 2;
  options.arrival_horizon = SimTime::from_ns(20'000'000);
  options.drain_cap = SimTime::from_ns(100'000'000);
  return options;
}

void expect_matches_multi_channel(const traffic::Workload& wl,
                                  const FabricOptions& fopts,
                                  const MultiChannelResult& want) {
  const FabricResult got = run_fabric(wl, fopts);
  EXPECT_EQ(got.protocol_digest, want.protocol_digest);
  EXPECT_EQ(got.generated, want.generated);
  EXPECT_EQ(got.delivered, want.delivered);
  EXPECT_EQ(got.misses, want.misses);
  EXPECT_EQ(got.undelivered, want.undelivered);
  EXPECT_EQ(got.worst_latency_s, want.worst_latency_s);
  ASSERT_EQ(got.channels.size(), want.per_channel.size());
  for (std::size_t ch = 0; ch < want.per_channel.size(); ++ch) {
    EXPECT_EQ(got.channels[ch].protocol_digest,
              want.per_channel[ch].protocol_digest)
        << "channel " << ch;
    EXPECT_EQ(got.channels[ch].generated, want.per_channel[ch].generated)
        << "channel " << ch;
  }
  EXPECT_TRUE(got.consistency_ok);
}

TEST(Fabric, DigestPinsToMultiChannelBothEnginesAnyShards) {
  // The tentpole equivalence pin: serial and parallel shards against the
  // reference per-channel engine.
  const auto wl = traffic::stock_exchange(8);
  const auto options = small_options(wl);
  const auto want = run_multi_channel(wl, 3, options);
  ASSERT_NE(want.protocol_digest, 0u);
  ASSERT_GT(want.generated, 0);

  for (const int shards : {1, 2, 8}) {
    SCOPED_TRACE(testing::Message() << shards << " shards");
    FabricOptions fopts;
    fopts.run = options;
    fopts.channels = 3;
    fopts.shards = shards;
    expect_matches_multi_channel(wl, fopts, want);
  }
}

TEST(Fabric, DigestPinHoldsWithEpochCompilerOff) {
  const auto wl = traffic::videoconference(6);
  auto options = small_options(wl);
  options.epoch_compiler = EpochCompilerMode::kOff;
  const auto want = run_multi_channel(wl, 2, options);
  FabricOptions fopts;
  fopts.run = options;
  fopts.channels = 2;
  fopts.shards = 2;
  expect_matches_multi_channel(wl, fopts, want);
}

TEST(Fabric, DigestPinHoldsUnderRandomArrivals) {
  const auto wl = traffic::quickstart(6);
  auto options = small_options(wl);
  options.arrivals = traffic::ArrivalKind::kBoundedPoisson;
  const auto want = run_multi_channel(wl, 2, options);
  FabricOptions fopts;
  fopts.run = options;
  fopts.channels = 2;
  fopts.shards = 2;
  expect_matches_multi_channel(wl, fopts, want);
}

TEST(Fabric, BarrierModeMatchesFreeRunning) {
  // A sampler forces barrier (lockstep) execution without any bridges:
  // digests must not notice the stepped run_until schedule. Silence/idle
  // accounting may differ (documented); digests and delivery may not.
  const auto wl = traffic::stock_exchange(6);
  const auto options = small_options(wl);
  const auto want = run_multi_channel(wl, 2, options);

  obs::Sampler::Options sopts;
  sopts.cadence_ns = 1'000'000;  // 1 ms: several samples within the run
  sopts.prefixes = {"fabric."};
  obs::Sampler sampler(sopts);

  FabricOptions fopts;
  fopts.run = options;
  fopts.channels = 2;
  fopts.shards = 2;
  fopts.sampler = &sampler;
  const FabricResult got = run_fabric(wl, fopts);
  EXPECT_EQ(got.protocol_digest, want.protocol_digest);
  EXPECT_EQ(got.delivered, want.delivered);
  EXPECT_EQ(got.misses, want.misses);
  EXPECT_EQ(got.undelivered, want.undelivered);
  EXPECT_GT(got.barriers, 0);
  EXPECT_FALSE(sampler.series().empty());
}

TEST(Fabric, AuditedChannelsPassConformance) {
  ASSERT_TRUE(check::install_conformance_auditor());
  const auto wl = traffic::videoconference(6);
  FabricOptions fopts;
  fopts.run = small_options(wl);
  fopts.channels = 2;
  fopts.shards = 2;
  fopts.audit_stride = 1;  // audit every channel
  const FabricResult got = run_fabric(wl, fopts);
  EXPECT_EQ(got.audited_channels, 2);
  EXPECT_TRUE(got.conformance_ok);
  for (const FabricChannelSummary& ch : got.channels) {
    EXPECT_TRUE(ch.conformance_checked);
    EXPECT_TRUE(ch.conformance_ok);
  }
  // And auditing a channel must not perturb its protocol state.
  const auto want = run_multi_channel(wl, 2, small_options(wl));
  EXPECT_EQ(got.protocol_digest, want.protocol_digest);
}

TEST(Fabric, GaugesMatchChannelResults) {
  // The four fabric.* gauges are sums of per-channel station counts taken
  // as each channel is harvested: they must equal the same sums over the
  // end-of-run station snapshots, free-running and in barrier mode. With
  // observability compiled out, nothing may be registered at all.
  const auto wl = traffic::stock_exchange(8);
  obs::Sampler::Options sopts;
  sopts.cadence_ns = 1'000'000;
  sopts.prefixes = {"fabric."};
  obs::Sampler sampler(sopts);
  for (obs::Sampler* mode : {static_cast<obs::Sampler*>(nullptr), &sampler}) {
    SCOPED_TRACE(mode == nullptr ? "free-running" : "barrier mode");
    FabricOptions fopts;
    fopts.run = small_options(wl);
    fopts.channels = 3;
    fopts.collect_channel_results = true;
    fopts.sampler = mode;
    const FabricResult got = run_fabric(wl, fopts);
    std::map<std::string, std::int64_t> want;
    for (const DdcrRunResult& full : got.full) {
      for (const StationSnapshot& snap : full.snapshots) {
        ++want["fabric.stations"];
        want["fabric.backlog"] += static_cast<std::int64_t>(snap.queue_depth);
        want["fabric.synced"] += snap.synced ? 1 : 0;
        want["fabric.online"] +=
            std::strcmp(snap.mode, DdcrStation::mode_name(
                                       DdcrStation::Mode::kOffline)) != 0
                ? 1
                : 0;
      }
    }
    EXPECT_EQ(want["fabric.stations"], got.stations);
    std::map<std::string, std::int64_t> gauges;
    for (const obs::GaugeSnapshot& gauge :
         obs::Registry::global().snapshot().gauges) {
      if (gauge.name.rfind("fabric.", 0) == 0) {
        gauges[gauge.name] = gauge.value;
      }
    }
#if defined(HRTDM_OBS_OFF)
    EXPECT_TRUE(gauges.empty());
#else
    EXPECT_EQ(gauges, want);
#endif
  }
}

TEST(Fabric, ChannelSummaryMatchesFullResult) {
  // The lean channel summary reads the metrics collector's running tallies;
  // they must equal the full per-channel result exactly, misses included.
  // A 1 us deadline is shorter than any frame: that class always misses.
  auto wl = traffic::stock_exchange(8);
  wl.sources[0].classes[0].d = util::Duration::microseconds(1);
  FabricOptions fopts;
  fopts.run = small_options(wl);
  fopts.channels = 2;
  fopts.shards = 2;
  fopts.collect_channel_results = true;
  const FabricResult got = run_fabric(wl, fopts);
  ASSERT_GT(got.misses, 0);
  ASSERT_EQ(got.full.size(), got.channels.size());
  for (std::size_t ch = 0; ch < got.channels.size(); ++ch) {
    SCOPED_TRACE(testing::Message() << "channel " << ch);
    const MetricsSummary& want = got.full[ch].metrics;
    EXPECT_EQ(got.channels[ch].delivered, want.delivered);
    EXPECT_EQ(got.channels[ch].misses, want.misses);
    EXPECT_EQ(got.channels[ch].worst_latency_s, want.worst_latency_s);
  }
}

TEST(Fabric, BridgeRelaysExactlyOnce) {
  // Every frame delivered on channel 0 is relayed into channel 1 exactly
  // once: captured == relayed == injected, and channel 1's delivered
  // count grows by exactly the injected relays (all of which carry
  // bridge-namespace uids, so they can never be double-counted against
  // workload traffic).
  const auto wl = traffic::quickstart(6);
  const auto options = small_options(wl);

  FabricOptions base;
  base.run = options;
  base.channels = 2;
  const FabricResult unbridged = run_fabric(wl, base);

  FabricOptions bridged = base;
  BridgeSpec bridge;
  bridge.from_channel = 0;
  bridge.to_channel = 1;
  bridge.to_source = 0;
  bridge.latency = util::Duration::microseconds(200);
  bridged.bridges = {bridge};
  const FabricResult got = run_fabric(wl, bridged);

  // Channel 0 never sees a relay: digest-identical to the unbridged run.
  EXPECT_EQ(got.channels[0].protocol_digest,
            unbridged.channels[0].protocol_digest);
  EXPECT_EQ(got.channels[0].delivered, unbridged.channels[0].delivered);

  EXPECT_GT(got.bridge_captured, 0);
  EXPECT_EQ(got.bridge_captured, got.channels[0].bridge_captured);
  EXPECT_EQ(got.bridge_injected, got.bridge_captured);
  EXPECT_EQ(got.channels[1].bridge_injected, got.bridge_injected);
  // Exactly-once end to end: every relay is accounted delivered, missed
  // or still queued on the destination — none duplicated, none lost.
  const std::int64_t relay_outcomes =
      (got.channels[1].delivered - unbridged.channels[1].delivered) +
      (got.channels[1].misses - unbridged.channels[1].misses) +
      (got.channels[1].undelivered - unbridged.channels[1].undelivered);
  EXPECT_EQ(relay_outcomes, got.bridge_injected);
  EXPECT_EQ(got.generated, unbridged.generated);  // relays are not "generated"
}

TEST(Fabric, BridgedFabricIsShardCountInvariant) {
  const auto wl = traffic::quickstart(6);
  FabricOptions fopts;
  fopts.run = small_options(wl);
  fopts.channels = 3;
  BridgeSpec b01;
  b01.from_channel = 0;
  b01.to_channel = 1;
  b01.to_source = 1;
  b01.latency = util::Duration::microseconds(150);
  BridgeSpec b12;
  b12.from_channel = 1;
  b12.to_channel = 2;
  b12.to_source = 0;
  b12.latency = util::Duration::microseconds(150);
  fopts.bridges = {b01, b12};

  fopts.shards = 1;
  const FabricResult serial = run_fabric(wl, fopts);
  EXPECT_GT(serial.bridge_injected, 0);
  for (const int shards : {2, 4}) {
    fopts.shards = shards;
    const FabricResult parallel = run_fabric(wl, fopts);
    EXPECT_EQ(parallel.protocol_digest, serial.protocol_digest)
        << shards << " shards";
    EXPECT_EQ(parallel.delivered, serial.delivered) << shards;
    EXPECT_EQ(parallel.misses, serial.misses) << shards;
    EXPECT_EQ(parallel.bridge_injected, serial.bridge_injected) << shards;
    EXPECT_EQ(parallel.barriers, serial.barriers) << shards;
  }
}

TEST(Fabric, RejectsIllFormedOptions) {
  const auto wl = traffic::quickstart(4);
  FabricOptions fopts;
  fopts.run = small_options(wl);
  fopts.channels = 0;
  EXPECT_THROW(run_fabric(wl, fopts), util::ContractViolation);
  fopts.channels = 2;
  fopts.shards = 0;
  EXPECT_THROW(run_fabric(wl, fopts), util::ContractViolation);
  fopts.shards = 1;
  BridgeSpec bad;
  bad.from_channel = 0;
  bad.to_channel = 2;  // out of range
  fopts.bridges = {bad};
  EXPECT_THROW(run_fabric(wl, fopts), util::ContractViolation);
  bad.to_channel = 0;  // self-bridge
  fopts.bridges = {bad};
  EXPECT_THROW(run_fabric(wl, fopts), util::ContractViolation);
  bad.to_channel = 1;
  bad.latency = util::Duration::nanoseconds(0);
  fopts.bridges = {bad};
  EXPECT_THROW(run_fabric(wl, fopts), util::ContractViolation);
}

std::vector<traffic::Message> replay_case() {
  // A handful of explicit messages, the shape a .repro carries.
  std::vector<traffic::Message> msgs;
  for (int i = 0; i < 12; ++i) {
    traffic::Message m;
    m.uid = i;
    m.class_id = i % 3;
    m.source = i % 4;
    m.l_bits = 8'000;
    m.arrival = SimTime::from_ns(50'000 + 400'000 * i);
    m.absolute_deadline = m.arrival + util::Duration::milliseconds(4);
    msgs.push_back(m);
  }
  return msgs;
}

TEST(FabricReplay, IdenticalChannelsAndShardInvariance) {
  // The Shrinker's fabric axis: explicit messages replayed across N
  // identical channels must give N identical digests, independent of the
  // shard count — this is exactly what a fabric .repro pins.
  const auto msgs = replay_case();
  FabricOptions fopts;
  fopts.run = small_options(traffic::quickstart(4));
  fopts.channels = 3;
  fopts.shards = 1;
  const FabricResult serial = run_fabric_replay(msgs, 4, fopts);
  ASSERT_EQ(serial.channels.size(), 3u);
  EXPECT_EQ(serial.generated, 3 * static_cast<std::int64_t>(msgs.size()));
  EXPECT_NE(serial.channels[0].protocol_digest, 0u);
  EXPECT_EQ(serial.channels[0].protocol_digest,
            serial.channels[1].protocol_digest);
  EXPECT_EQ(serial.channels[0].protocol_digest,
            serial.channels[2].protocol_digest);
  EXPECT_EQ(serial.delivered, serial.generated);

  for (const int shards : {2, 3}) {
    fopts.shards = shards;
    const FabricResult parallel = run_fabric_replay(msgs, 4, fopts);
    EXPECT_EQ(parallel.protocol_digest, serial.protocol_digest)
        << shards << " shards";
    EXPECT_EQ(parallel.delivered, serial.delivered) << shards;
  }
}

TEST(FabricReplay, RefusesConformanceAuditing) {
  // Replay fabrics have no generating workload for the oracle to check
  // against; asking for audits must fail loudly, not silently skip.
  const auto msgs = replay_case();
  FabricOptions fopts;
  fopts.run = small_options(traffic::quickstart(4));
  fopts.channels = 2;
  fopts.audit_stride = 1;
  EXPECT_THROW(run_fabric_replay(msgs, 4, fopts), util::ContractViolation);
  fopts.audit_stride = 0;
  fopts.run.conformance_check = true;
  EXPECT_THROW(run_fabric_replay(msgs, 4, fopts), util::ContractViolation);
}

}  // namespace
}  // namespace hrtdm::core
