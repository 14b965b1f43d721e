#include "core/multi_channel.hpp"

#include <algorithm>
#include <functional>
#include <limits>
#include <queue>
#include <utility>

#include "util/check.hpp"
#include "util/rng.hpp"
#include "util/thread_pool.hpp"

namespace hrtdm::core {

double ChannelPlan::imbalance() const {
  HRTDM_EXPECT(!load_per_channel.empty(), "empty plan");
  double lo = std::numeric_limits<double>::infinity();
  double hi = 0.0;
  for (const double load : load_per_channel) {
    lo = std::min(lo, load);
    hi = std::max(hi, load);
  }
  return lo > 0.0 ? hi / lo : std::numeric_limits<double>::infinity();
}

ChannelPlan plan_channels(const traffic::Workload& workload, int channels) {
  workload.validate();
  HRTDM_EXPECT(channels >= 1, "need at least one channel");

  struct ClassLoad {
    int id;
    double bits_per_second;
    int source;  ///< position of the owning source in workload.sources
  };
  std::vector<ClassLoad> loads;
  for (int s = 0; s < workload.z(); ++s) {
    for (const auto& cls : workload.sources[static_cast<std::size_t>(s)]
                               .classes) {
      loads.push_back({cls.id,
                       static_cast<double>(cls.a) *
                           static_cast<double>(cls.l_bits) /
                           cls.w.to_seconds(),
                       s});
    }
  }
  // Longest-processing-time greedy: heaviest class onto lightest channel.
  std::sort(loads.begin(), loads.end(),
            [](const ClassLoad& a, const ClassLoad& b) {
              if (a.bits_per_second != b.bits_per_second) {
                return a.bits_per_second > b.bits_per_second;
              }
              return a.id < b.id;  // deterministic tie-break
            });

  ChannelPlan plan;
  plan.channels = channels;
  plan.classes_per_channel.resize(static_cast<std::size_t>(channels));
  plan.load_per_channel.assign(static_cast<std::size_t>(channels), 0.0);
  plan.sources_per_channel.resize(static_cast<std::size_t>(channels));
  // Min-heap of (load, channel): the top is the lightest channel, ties to
  // the lowest index, the same pick as a first-minimum linear scan.
  using Entry = std::pair<double, std::size_t>;
  std::priority_queue<Entry, std::vector<Entry>, std::greater<>> lightest;
  for (std::size_t ch = 0; ch < plan.load_per_channel.size(); ++ch) {
    lightest.emplace(0.0, ch);
  }
  for (const ClassLoad& cls : loads) {
    const std::size_t ch = lightest.top().second;
    lightest.pop();
    plan.classes_per_channel[ch].push_back(cls.id);
    plan.load_per_channel[ch] += cls.bits_per_second;
    plan.sources_per_channel[ch].push_back(cls.source);
    lightest.emplace(plan.load_per_channel[ch], ch);
  }
  for (auto& ids : plan.classes_per_channel) {
    std::sort(ids.begin(), ids.end());
  }
  for (auto& positions : plan.sources_per_channel) {
    std::sort(positions.begin(), positions.end());
    positions.erase(std::unique(positions.begin(), positions.end()),
                    positions.end());
  }
  return plan;
}

traffic::Workload channel_workload(const traffic::Workload& workload,
                                   const ChannelPlan& plan, int channel) {
  HRTDM_EXPECT(channel >= 0 && channel < plan.channels,
               "channel index out of range");
  HRTDM_EXPECT(plan.classes_per_channel.size() ==
                       static_cast<std::size_t>(plan.channels) &&
                   plan.sources_per_channel.size() ==
                       static_cast<std::size_t>(plan.channels),
               "the plan does not cover its channels: build it with "
               "plan_channels");
  const auto& ids =
      plan.classes_per_channel[static_cast<std::size_t>(channel)];
  const auto& positions =
      plan.sources_per_channel[static_cast<std::size_t>(channel)];

  traffic::Workload sub;
  sub.name = workload.name + "#ch" + std::to_string(channel);
  sub.sources.reserve(positions.size());
  int previous = -1;
  for (const int pos : positions) {
    HRTDM_EXPECT(pos > previous && pos < workload.z(),
                 "the plan's source positions must ascend within the "
                 "workload: build the plan from this workload");
    previous = pos;
    const auto& src = workload.sources[static_cast<std::size_t>(pos)];
    traffic::SourceSpec filtered;
    filtered.id = static_cast<int>(sub.sources.size());
    filtered.name = src.name;
    for (const auto& cls : src.classes) {
      if (std::binary_search(ids.begin(), ids.end(), cls.id)) {
        filtered.classes.push_back(cls);
        filtered.classes.back().source = filtered.id;
      }
    }
    HRTDM_EXPECT(!filtered.classes.empty(),
                 "the plan lists a source with no class on this channel: "
                 "build the plan from this workload");
    sub.sources.push_back(std::move(filtered));
  }
  return sub;
}

std::uint64_t channel_seed(std::uint64_t base, int channel) {
  HRTDM_EXPECT(channel >= 0, "channel index must be non-negative");
  util::SplitMix64 mix(base);
  std::uint64_t seed = mix.next();
  for (int i = 0; i < channel; ++i) {
    seed = mix.next();
  }
  return seed;
}

MultiChannelResult run_multi_channel(const traffic::Workload& workload,
                                     int channels,
                                     const DdcrRunOptions& options,
                                     int threads) {
  MultiChannelResult result;
  result.plan = plan_channels(workload, channels);

  // Stage the per-channel sub-workloads serially (cheap), then run the
  // simulations — the expensive, fully independent part — on the pool.
  // Each run writes only its own slot, so the aggregate below is invariant
  // under thread count.
  std::vector<traffic::Workload> subs;
  subs.reserve(static_cast<std::size_t>(channels));
  for (int ch = 0; ch < channels; ++ch) {
    subs.push_back(channel_workload(workload, result.plan, ch));
  }

  result.per_channel.resize(static_cast<std::size_t>(channels));
  util::parallel_for_index(threads, channels, [&](std::int64_t ch) {
    const auto& sub = subs[static_cast<std::size_t>(ch)];
    if (sub.sources.empty()) {
      return;  // slot keeps its default-constructed (empty) result
    }
    DdcrRunOptions channel_options = options;
    channel_options.ddcr.static_indices.clear();  // re-derive per channel
    channel_options.seed = channel_seed(options.seed, static_cast<int>(ch));
    // Each channel gets its own Perfetto process so their slot tracks and
    // station tracks land side by side instead of colliding on pid 0.
    channel_options.trace_channel = static_cast<int>(ch);
    result.per_channel[static_cast<std::size_t>(ch)] =
        run_ddcr(sub, channel_options);
  });

  double utilization_sum = 0.0;
  int live_channels = 0;
  result.protocol_digest = 0xcbf29ce484222325ULL;  // FNV-1a offset basis
  for (const auto& run : result.per_channel) {
    result.protocol_digest =
        (result.protocol_digest ^ run.protocol_digest) * 0x100000001b3ULL;
    result.generated += run.generated;
    result.delivered += run.metrics.delivered;
    result.misses += run.metrics.misses;
    result.undelivered += run.undelivered;
    result.worst_latency_s =
        std::max(result.worst_latency_s, run.metrics.worst_latency_s);
    if (run.generated > 0) {
      utilization_sum += run.utilization;
      ++live_channels;
    }
  }
  result.mean_utilization =
      live_channels > 0 ? utilization_sum / live_channels : 0.0;
  return result;
}

}  // namespace hrtdm::core
