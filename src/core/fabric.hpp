// Sharded fabric of CSMA/DDCR channels (ROADMAP item 2: scaling *within*
// a deployment, not just across independent runs).
//
// run_multi_channel() proved the per-channel engine parallelizes; the
// fabric is the campus-scale construction on top of it, built so that a
// thousand channels with a thousand stations each fit one process:
//
//  - StationSoA: the fabric-wide hot station state (head deadline,
//    backlog, reft, sync/online/mode flags) as cache-line-aligned
//    structure-of-arrays indexed by dense fabric-global station id. The
//    fabric's cross-deployment scans — backlog totals, synced counts,
//    earliest pending deadline, the gauges behind the Sampler series —
//    stream these arrays instead of pointer-chasing a million
//    DdcrStation objects. Cold protocol state (tree engines, counters,
//    queues) stays in DdcrStation; each channel refreshes its SoA
//    segment at channel completion and at shard barriers.
//  - One channel runner: every channel is a core::DdcrTestbed, built,
//    fed and drained exactly as run_ddcr() builds, feeds and drains it
//    (materialized arrivals, one simulator event per message), so a
//    fabric channel cannot drift from the single-channel engine.
//  - Shard placement: channels run on util::ThreadPool workers; each
//    channel's simulator, stations and arrivals are constructed,
//    run and destroyed inside its shard task, so first-touch puts a
//    channel's working set on its worker's NUMA node and it never
//    migrates. SoA segments are cache-line padded per channel, so
//    concurrent end-of-run refreshes from different shards never share
//    a line.
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
// fabric with no bridges must produce bit-identical protocol_digest()
// chains to run_multi_channel() on the same workload (serial and
// parallel), and audit_stride samples channels for full
// check::ConformanceComparator audits. See docs/FABRIC.md.
#pragma once

#include <cstdint>
#include <vector>

#include "core/ddcr_network.hpp"
#include "core/multi_channel.hpp"
#include "traffic/workload.hpp"
#include "util/aligned.hpp"
#include "util/simtime.hpp"

namespace hrtdm::obs {
class Sampler;
}  // namespace hrtdm::obs

namespace hrtdm::core {

/// Fabric-wide hot station state, structure-of-arrays. One slot per
/// station, channels laid out back to back with per-channel base offsets
/// rounded up to a cache line of the widest field (8 entries), so shard
/// refreshes of adjacent channels never false-share.
class StationSoA {
 public:
  /// Entries of padding granularity: 8 x 8-byte hot fields = one line.
  static constexpr std::size_t kPadEntries = 8;

  StationSoA() = default;

  /// Lays out `stations_per_channel[ch]` slots per channel.
  void build(const std::vector<int>& stations_per_channel);

  int channels() const { return static_cast<int>(count_.size()); }
  /// Fabric-global slot of channel `ch`'s station 0.
  std::size_t base(int channel) const {
    return base_[static_cast<std::size_t>(channel)];
  }
  /// Stations on channel `ch` (excluding padding).
  std::size_t count(int channel) const {
    return count_[static_cast<std::size_t>(channel)];
  }
  /// Total station slots across channels (excluding padding).
  std::size_t size() const { return size_; }

  /// Refreshes one slot from a live station. During an active compiled
  /// span the station may lag the channel clock by the in-flight span
  /// (the fabric deliberately does not dissolve spans to refresh
  /// observability state); see docs/FABRIC.md.
  void load(std::size_t slot, const DdcrStation& station);
  /// Refreshes one slot from a plain snapshot (hot subset only).
  void load(std::size_t slot, const StationSnapshot& snap);
  /// The hot subset back as a snapshot: id, mode, synced, queue_depth,
  /// has_head, head_deadline_ns, reft_ns. Cold fields (tree positions,
  /// head_uid, resync_silences) are left default — they live in
  /// DdcrStation only.
  StationSnapshot hot_snapshot(std::size_t slot) const;

  std::int64_t head_deadline_ns(std::size_t slot) const {
    return head_deadline_ns_[slot];
  }
  std::int64_t reft_ns(std::size_t slot) const { return reft_ns_[slot]; }
  std::int32_t backlog(std::size_t slot) const { return backlog_[slot]; }
  bool synced(std::size_t slot) const { return (flags_[slot] & 1) != 0; }
  bool online(std::size_t slot) const { return (flags_[slot] & 2) != 0; }
  bool has_head(std::size_t slot) const { return (flags_[slot] & 4) != 0; }
  DdcrStation::Mode mode(std::size_t slot) const {
    return static_cast<DdcrStation::Mode>(flags_[slot] >> 3);
  }

  struct Aggregate {
    std::int64_t backlog = 0;
    std::int64_t synced = 0;
    std::int64_t online = 0;
    /// INT64_MAX while no refreshed station holds a queued head.
    std::int64_t min_head_deadline_ns = INT64_MAX;
  };
  /// Streams one channel's arrays; the fabric's per-barrier scan.
  Aggregate aggregate(int channel) const;
  /// Streams every channel's arrays (fabric totals for gauges/results).
  Aggregate aggregate_all() const;

 private:
  template <typename T>
  using AlignedVec = std::vector<T, util::AlignedAllocator<T>>;

  void store(std::size_t slot, std::int32_t id, DdcrStation::Mode mode,
             bool synced, bool online, std::size_t queue_depth,
             bool has_head, std::int64_t head_deadline_ns,
             std::int64_t reft_ns);

  AlignedVec<std::int64_t> head_deadline_ns_;
  AlignedVec<std::int64_t> reft_ns_;
  AlignedVec<std::int32_t> id_;
  AlignedVec<std::int32_t> backlog_;
  AlignedVec<std::uint8_t> flags_;  ///< bit0 synced, bit1 online, bit2
                                    ///< has_head, bits 3+ mode
  std::vector<std::size_t> base_;
  std::vector<std::size_t> count_;
  std::size_t size_ = 0;
};

/// A static inter-channel relay: every frame delivered on `from_channel`
/// is re-enqueued at station `to_source` of `to_channel`, `latency`
/// after its delivery completes (multi-hop relaying a la TDMH-MAC).
struct BridgeSpec {
  int from_channel = 0;
  int to_channel = 0;
  int to_source = 0;
  /// Must be positive and >= the fabric's barrier quantum (causality:
  /// a frame captured within one quantum is never due before the next
  /// barrier).
  util::Duration latency = util::Duration::microseconds(100);
};

/// Relayed messages get uids in their own namespace so they can never
/// collide with workload uids (which count up from 0).
inline constexpr std::int64_t kBridgeUidBase = std::int64_t{1} << 40;

struct FabricOptions {
  /// Per-channel base options; seed is the fabric seed (each channel
  /// runs under channel_seed(run.seed, ch), exactly like
  /// run_multi_channel), static_indices are re-derived per channel.
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
  std::vector<BridgeSpec> bridges;
  /// Barrier quantum for bridged/sampled fabrics. Zero = derived:
  /// min bridge latency when bridges exist, else phy.slot_x * 1024.
  util::Duration barrier_quantum;
  /// Polled (with "fabric." gauges freshly set from the SoA) at every
  /// barrier; forces barrier mode even without bridges. Sampled once
  /// more at the end of the run. Not owned.
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
  StationSoA soa;  ///< refreshed at end of run (and at barriers)
  /// FNV-1a chain over per-channel digests in channel order — identical
  /// to MultiChannelResult::protocol_digest for a bridge-free fabric.
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
/// channel by channel_workload, exactly as run_multi_channel stages them).
/// Without bridges or a sampler, channels are independent and the
/// per-channel digests are bit-identical to run_multi_channel() under any
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
