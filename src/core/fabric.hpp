// Sharded fabric of CSMA/DDCR channels: the one way to run many parallel
// broadcast media (section 3.1), from a handful of segments up to a
// thousand channels with a thousand stations each in one process:
//
//  - One channel runner: every channel is a core::DdcrTestbed, built,
//    fed and drained exactly as run_ddcr() builds, feeds and drains it
//    (materialized arrivals, one simulator event per message), so a
//    fabric channel cannot drift from the single-channel engine.
//  - Fabric gauges: fabric.{stations,backlog,synced,online} are sums of
//    per-channel station counts, taken as each channel is harvested and,
//    under a sampler, at every barrier.
//  - Shard placement: channels run on util::ThreadPool workers; each
//    channel's simulator, stations and arrivals are constructed,
//    run and destroyed inside its shard task, so first-touch puts a
//    channel's working set on its worker's NUMA node and it never
//    migrates.
//  - Bridges: static inter-channel relay queues (BridgeSpec). Bridged
//    fabrics run in barrier mode — every channel advances to a common
//    time T (quantum <= every bridge latency, so a frame captured in
//    one quantum cannot be due on the peer before the next barrier),
//    then captured frames are re-injected serially in bridge order:
//    deterministic, exactly-once, thread-count independent. Barrier mode
//    keeps every channel, with its materialized arrivals, alive for the
//    whole run, so its memory grows with the channel count.
//
// Correctness is anchored the same way the epoch compiler's was: a
// fabric with no bridges must produce the protocol_digest() chain of
// run_ddcr() run on each channel_workload() under its channel_seed()
// (any shard count), and audit_stride samples channels for full
// check::ConformanceComparator audits. See docs/FABRIC.md.
#pragma once

#include <cstdint>
#include <vector>

#include "core/ddcr_network.hpp"
#include "core/multi_channel.hpp"
#include "traffic/workload.hpp"
#include "util/simtime.hpp"

namespace hrtdm::obs {
class Sampler;
}  // namespace hrtdm::obs

namespace hrtdm::core {

/// A static inter-channel relay: every frame delivered on `from_channel`
/// is re-enqueued at station `to_source` of `to_channel`, `latency`
/// after its delivery completes (multi-hop relaying a la TDMH-MAC).
struct BridgeSpec {
  int from_channel = 0;
  int to_channel = 0;
  int to_source = 0;
  /// Must be positive. The fabric's barrier quantum is the minimum bridge
  /// latency (causality: a frame captured within one quantum is never due
  /// before the next barrier).
  util::Duration latency = util::Duration::microseconds(100);
};

/// Relayed messages get uids in their own namespace so they can never
/// collide with workload uids (which count up from 0).
inline constexpr std::int64_t kBridgeUidBase = std::int64_t{1} << 40;

struct FabricOptions {
  /// Per-channel base options; seed is the fabric seed (each channel
  /// runs under channel_seed(run.seed, ch)), static_indices are
  /// re-derived per channel.
  DdcrRunOptions run;
  int channels = 1;
  /// Worker count for the shard pool; 1 = serial. Observable results
  /// are shard-count invariant.
  int shards = 1;
  /// Every audit_stride-th channel (0, stride, 2*stride, ...) runs with
  /// conformance_check = true (full check::ConformanceComparator audit).
  /// 0 disables auditing. Requires hrtdm_check linked and the auditor
  /// installed, as for DdcrRunOptions::conformance_check.
  int audit_stride = 0;
  /// Keep every channel's full DdcrRunResult in FabricResult::full
  /// (heavyweight — small fabrics and tests only; lean summaries are
  /// always collected).
  bool collect_channel_results = false;
  /// Bridged and sampled fabrics advance in barrier quanta: the minimum
  /// bridge latency when bridges exist, else phy.slot_x * 1024.
  std::vector<BridgeSpec> bridges;
  /// Polled (with the "fabric." gauges freshly set from every channel's
  /// stations) at every barrier; forces barrier mode even without
  /// bridges. Sampled once more at the end of the run. Not owned.
  obs::Sampler* sampler = nullptr;
};

/// Lean per-channel outcome (the full DdcrRunResult is ~O(stations)
/// heavy; a 1k x 1k fabric must not retain a thousand of them).
struct FabricChannelSummary {
  std::uint64_t protocol_digest = 0;
  std::int64_t stations = 0;
  std::int64_t generated = 0;
  std::int64_t delivered = 0;
  std::int64_t misses = 0;
  std::int64_t undelivered = 0;
  std::int64_t dropped_late = 0;
  /// silence + collision + success slots the channel executed
  /// (fast-forwarded idle slots included — they are simulated time).
  std::int64_t slots = 0;
  double utilization = 0.0;
  double worst_latency_s = 0.0;
  bool consistency_ok = true;
  bool conformance_checked = false;
  bool conformance_ok = true;
  std::int64_t bridge_captured = 0;  ///< frames captured for relay out
  std::int64_t bridge_injected = 0;  ///< relays enqueued into this channel
};

struct FabricResult {
  std::vector<FabricChannelSummary> channels;
  /// Filled only under collect_channel_results (indexed by channel).
  std::vector<DdcrRunResult> full;
  ChannelPlan plan;
  /// FNV-1a chain over per-channel digests in channel order (an empty
  /// channel contributes 0).
  std::uint64_t protocol_digest = 0;
  std::int64_t stations = 0;
  std::int64_t generated = 0;
  std::int64_t delivered = 0;
  std::int64_t misses = 0;
  std::int64_t undelivered = 0;
  std::int64_t dropped_late = 0;
  double worst_latency_s = 0.0;
  double mean_utilization = 0.0;
  /// Sum over channels of stations * slots — the bench headline's
  /// numerator (station-slots per wall second).
  std::int64_t station_slots = 0;
  std::int64_t barriers = 0;
  std::int64_t bridge_captured = 0;
  std::int64_t bridge_injected = 0;
  std::int64_t audited_channels = 0;
  bool conformance_ok = true;
  bool consistency_ok = true;
};

/// Runs `workload` over a fabric of `options.channels` CSMA/DDCR
/// segments (classes partitioned by plan_channels, stations numbered per
/// channel by channel_workload). Without bridges or a sampler, channels
/// are independent and each channel's digest is bit-identical to
/// run_ddcr() on its channel_workload under channel_seed(), under any
/// shard count. With bridges/sampler the fabric runs in barrier mode (see
/// BridgeSpec); results remain shard-count invariant.
FabricResult run_fabric(const traffic::Workload& workload,
                        const FabricOptions& options);

/// Replay entry for check::Shrinker fabric cases: `messages` (explicit,
/// as in a .repro) are injected identically into `options.channels`
/// copies of a `stations`-station channel; the workload axis of
/// FabricOptions is unused. Shard-count invariance of the per-channel
/// digests is the property fabric .repro cases pin.
FabricResult run_fabric_replay(const std::vector<traffic::Message>& messages,
                               int stations, const FabricOptions& options);

}  // namespace hrtdm::core
