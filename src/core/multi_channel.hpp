// Parallel broadcast media (section 3.1: "a broadcast medium — many such
// media can be used in parallel").
//
// Each channel is an independent CSMA/DDCR segment; message classes are
// partitioned across channels at design time (a class's traffic always
// uses one channel, so per-class FIFO/EDF semantics are preserved and the
// per-channel feasibility conditions apply verbatim). The partitioner
// balances offered load greedily; the runner executes the per-channel
// simulations and aggregates metrics.
#pragma once

#include <cstdint>
#include <vector>

#include "core/ddcr_network.hpp"
#include "traffic/workload.hpp"

namespace hrtdm::core {

/// Assignment of every class (by id) to a channel in [0, channels).
struct ChannelPlan {
  int channels = 1;
  /// plan[i] = {class ids on channel i}.
  std::vector<std::vector<int>> classes_per_channel;
  /// Offered load (bits/s) per channel under the plan.
  std::vector<double> load_per_channel;
  /// sources_per_channel[i] = ascending positions in workload.sources of
  /// the sources with at least one class on channel i.
  std::vector<std::vector<int>> sources_per_channel;

  /// Largest/smallest channel load ratio (1.0 = perfectly balanced).
  double imbalance() const;
};

/// Greedy balanced partition: classes sorted by offered load, each placed
/// on the currently lightest channel (LPT scheduling).
ChannelPlan plan_channels(const traffic::Workload& workload, int channels);

/// The sub-workload of one channel under a plan. Sources with no class on
/// the channel are dropped (they do not attach a station there); the rest
/// are renumbered 0..n-1 in workload order (src.id and cls.source), since
/// a channel's station ids are contiguous. Class ids are kept, so metrics
/// stay workload-global. Only the channel's plan.sources_per_channel
/// entries are visited, so staging every channel is linear in the
/// workload.
traffic::Workload channel_workload(const traffic::Workload& workload,
                                   const ChannelPlan& plan, int channel);

struct MultiChannelResult {
  std::vector<DdcrRunResult> per_channel;
  ChannelPlan plan;
  // Aggregates across channels:
  std::int64_t generated = 0;
  std::int64_t delivered = 0;
  std::int64_t misses = 0;
  std::int64_t undelivered = 0;
  double worst_latency_s = 0.0;
  double mean_utilization = 0.0;
  /// Order-sensitive combination of the per-channel protocol digests
  /// (channel order) — one number summarizing every replica's final state.
  std::uint64_t protocol_digest = 0;
};

/// The RNG seed channel `channel` runs under when the multi-channel run is
/// seeded with `base`. Seeds are drawn from a SplitMix64 stream keyed by
/// `base` (not `base + channel`, which would make run(seed=s, ch=1) replay
/// the exact arrival stream of run(seed=s+1, ch=0)).
std::uint64_t channel_seed(std::uint64_t base, int channel);

/// Runs the workload over `channels` parallel CSMA/DDCR segments (each an
/// independent simulation — the media do not interact) and aggregates.
/// `threads` > 1 executes the per-channel simulations on a deterministic
/// worker pool; results are bit-identical to the serial (threads = 1) run.
MultiChannelResult run_multi_channel(const traffic::Workload& workload,
                                     int channels,
                                     const DdcrRunOptions& options,
                                     int threads = 1);

}  // namespace hrtdm::core
