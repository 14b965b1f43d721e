#include "core/multi_channel.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "traffic/workload.hpp"
#include "util/check.hpp"

namespace hrtdm::core {
namespace {

TEST(ChannelPlan, CoversEveryClassExactlyOnce) {
  const auto wl = traffic::stock_exchange(6);
  const auto plan = plan_channels(wl, 3);
  ASSERT_EQ(plan.classes_per_channel.size(), 3u);
  std::set<int> seen;
  for (const auto& ids : plan.classes_per_channel) {
    for (const int id : ids) {
      EXPECT_TRUE(seen.insert(id).second) << "class on two channels";
    }
  }
  EXPECT_EQ(seen.size(), wl.all_classes().size());
}

TEST(ChannelPlan, LoadAccountingMatchesWorkload) {
  const auto wl = traffic::videoconference(4);
  const auto plan = plan_channels(wl, 2);
  double total = 0.0;
  for (const double load : plan.load_per_channel) {
    total += load;
  }
  EXPECT_NEAR(total, wl.offered_load_bits_per_second(), total * 1e-9);
}

TEST(ChannelPlan, GreedyBalancesIdenticalClasses) {
  // 8 identical classes over 4 channels: perfect balance.
  const auto wl = traffic::quickstart(4);  // 2 classes per source
  const auto plan = plan_channels(wl, 4);
  EXPECT_NEAR(plan.imbalance(), 1.0, 0.7);  // ctl/bulk mix: near-balanced
  const auto single = plan_channels(wl, 1);
  EXPECT_EQ(single.imbalance(), 1.0);
  EXPECT_EQ(single.classes_per_channel[0].size(), wl.all_classes().size());
}

TEST(ChannelPlan, DeterministicAcrossCalls) {
  const auto wl = traffic::stock_exchange(5);
  const auto a = plan_channels(wl, 3);
  const auto b = plan_channels(wl, 3);
  EXPECT_EQ(a.classes_per_channel, b.classes_per_channel);
}

/// Reference LPT plan: classes, heaviest first, each onto the first
/// channel of least load found by a linear scan.
ChannelPlan linear_scan_plan(const traffic::Workload& wl, int channels) {
  struct ClassLoad {
    int id;
    double bits_per_second;
    int source;
  };
  std::vector<ClassLoad> loads;
  for (int s = 0; s < wl.z(); ++s) {
    for (const auto& cls : wl.sources[static_cast<std::size_t>(s)].classes) {
      loads.push_back({cls.id,
                       static_cast<double>(cls.a) *
                           static_cast<double>(cls.l_bits) /
                           cls.w.to_seconds(),
                       s});
    }
  }
  std::sort(loads.begin(), loads.end(),
            [](const ClassLoad& a, const ClassLoad& b) {
              if (a.bits_per_second != b.bits_per_second) {
                return a.bits_per_second > b.bits_per_second;
              }
              return a.id < b.id;
            });
  ChannelPlan plan;
  plan.channels = channels;
  plan.classes_per_channel.resize(static_cast<std::size_t>(channels));
  plan.load_per_channel.assign(static_cast<std::size_t>(channels), 0.0);
  plan.sources_per_channel.resize(static_cast<std::size_t>(channels));
  for (const ClassLoad& cls : loads) {
    const auto lightest = static_cast<std::size_t>(
        std::min_element(plan.load_per_channel.begin(),
                         plan.load_per_channel.end()) -
        plan.load_per_channel.begin());
    plan.classes_per_channel[lightest].push_back(cls.id);
    plan.load_per_channel[lightest] += cls.bits_per_second;
    plan.sources_per_channel[lightest].push_back(cls.source);
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

/// `sources` sources with one identical class each: every load ties.
traffic::Workload uniform_workload(int sources) {
  traffic::Workload wl;
  wl.name = "uniform";
  for (int s = 0; s < sources; ++s) {
    traffic::SourceSpec src;
    src.id = s;
    src.name = "u" + std::to_string(s);
    traffic::MessageClass cls;
    cls.id = s;
    cls.name = src.name;
    cls.source = s;
    cls.l_bits = 1'000;
    cls.d = util::Duration::microseconds(100);
    cls.a = 1;
    cls.w = util::Duration::microseconds(200);
    src.classes.push_back(cls);
    wl.sources.push_back(std::move(src));
  }
  return wl;
}

TEST(ChannelPlan, HeapMatchesLinearScan) {
  // The min-heap must pick exactly the channel the linear scan picked,
  // ties to the lowest index, or every fabric digest would move.
  const traffic::Workload workloads[] = {uniform_workload(640),
                                         traffic::stock_exchange(6),
                                         traffic::quickstart(4)};
  for (const auto& wl : workloads) {
    for (const int channels : {1, 3, 64}) {
      SCOPED_TRACE(wl.name + " over " + std::to_string(channels));
      const ChannelPlan got = plan_channels(wl, channels);
      const ChannelPlan want = linear_scan_plan(wl, channels);
      EXPECT_EQ(got.channels, want.channels);
      EXPECT_EQ(got.classes_per_channel, want.classes_per_channel);
      EXPECT_EQ(got.load_per_channel, want.load_per_channel);
      EXPECT_EQ(got.sources_per_channel, want.sources_per_channel);
    }
  }
}

TEST(ChannelWorkload, FiltersSourcesAndKeepsClassIds) {
  const auto wl = traffic::videoconference(4);
  const auto plan = plan_channels(wl, 2);
  for (int ch = 0; ch < 2; ++ch) {
    const auto sub = channel_workload(wl, plan, ch);
    sub.validate();
    for (std::size_t s = 0; s < sub.sources.size(); ++s) {
      const auto& src = sub.sources[s];
      EXPECT_FALSE(src.classes.empty());
      // Sources are renumbered to the channel's contiguous station ids.
      EXPECT_EQ(src.id, static_cast<int>(s));
      for (const auto& cls : src.classes) {
        const auto& ids =
            plan.classes_per_channel[static_cast<std::size_t>(ch)];
        EXPECT_TRUE(std::binary_search(ids.begin(), ids.end(), cls.id));
        EXPECT_EQ(cls.source, static_cast<int>(s));
      }
    }
  }
  EXPECT_THROW(channel_workload(wl, plan, 2), util::ContractViolation);
}

/// The full-scan staging channel_workload replaced: every source of the
/// workload, filtered to the channel's classes.
traffic::Workload full_scan_channel_workload(const traffic::Workload& wl,
                                             const ChannelPlan& plan,
                                             int channel) {
  const auto& ids =
      plan.classes_per_channel[static_cast<std::size_t>(channel)];
  traffic::Workload sub;
  sub.name = wl.name + "#ch" + std::to_string(channel);
  for (const auto& src : wl.sources) {
    traffic::SourceSpec filtered;
    filtered.id = static_cast<int>(sub.sources.size());
    filtered.name = src.name;
    for (const auto& cls : src.classes) {
      if (std::binary_search(ids.begin(), ids.end(), cls.id)) {
        filtered.classes.push_back(cls);
        filtered.classes.back().source = filtered.id;
      }
    }
    if (!filtered.classes.empty()) {
      sub.sources.push_back(std::move(filtered));
    }
  }
  return sub;
}

TEST(ChannelWorkload, SourceIndexMatchesFullScan) {
  // Multi-class sources; the last two plans split some source's classes
  // over several channels, the first two keep each source on one.
  const std::pair<traffic::Workload, int> cases[] = {
      {traffic::stock_exchange(6), 3},
      {traffic::quickstart(4), 4},
      {traffic::stock_exchange(6), 4},
      {traffic::quickstart(4), 3}};
  int split_sources = 0;
  for (const auto& [wl, channels] : cases) {
    SCOPED_TRACE(wl.name + " over " + std::to_string(channels));
    const auto plan = plan_channels(wl, channels);
    ASSERT_EQ(plan.sources_per_channel.size(),
              static_cast<std::size_t>(channels));
    std::vector<int> channels_of_source(wl.sources.size(), 0);
    for (const auto& positions : plan.sources_per_channel) {
      for (const int pos : positions) {
        ++channels_of_source[static_cast<std::size_t>(pos)];
      }
    }
    split_sources += static_cast<int>(
        std::count_if(channels_of_source.begin(), channels_of_source.end(),
                      [](int n) { return n > 1; }));
    for (int ch = 0; ch < channels; ++ch) {
      const auto sub = channel_workload(wl, plan, ch);
      const auto ref = full_scan_channel_workload(wl, plan, ch);
      EXPECT_EQ(sub.name, ref.name);
      ASSERT_EQ(sub.sources.size(), ref.sources.size()) << "channel " << ch;
      for (std::size_t s = 0; s < ref.sources.size(); ++s) {
        const auto& got = sub.sources[s];
        const auto& want = ref.sources[s];
        EXPECT_EQ(got.id, want.id);
        EXPECT_EQ(got.name, want.name);
        ASSERT_EQ(got.classes.size(), want.classes.size());
        for (std::size_t c = 0; c < want.classes.size(); ++c) {
          EXPECT_EQ(got.classes[c].id, want.classes[c].id);
          EXPECT_EQ(got.classes[c].name, want.classes[c].name);
          EXPECT_EQ(got.classes[c].source, want.classes[c].source);
          EXPECT_EQ(got.classes[c].l_bits, want.classes[c].l_bits);
          EXPECT_EQ(got.classes[c].d, want.classes[c].d);
          EXPECT_EQ(got.classes[c].a, want.classes[c].a);
          EXPECT_EQ(got.classes[c].w, want.classes[c].w);
        }
      }
    }
  }
  EXPECT_GT(split_sources, 0);
}

TEST(ChannelWorkload, RejectsASourceIndexThatDoesNotFitTheWorkload) {
  const auto wl = traffic::stock_exchange(6);
  const auto plan = plan_channels(wl, 3);
  const auto& listed = plan.sources_per_channel[0];
  ASSERT_FALSE(listed.empty());

  auto out_of_range = plan;
  out_of_range.sources_per_channel[0].push_back(wl.z());
  EXPECT_THROW(channel_workload(wl, out_of_range, 0), util::ContractViolation);

  auto repeated = plan;
  repeated.sources_per_channel[0].push_back(listed.back());
  EXPECT_THROW(channel_workload(wl, repeated, 0), util::ContractViolation);

  // A source with no class on channel 0, listed there anyway.
  int stranger = -1;
  for (int s = 0; s < wl.z() && stranger < 0; ++s) {
    if (!std::binary_search(listed.begin(), listed.end(), s)) {
      stranger = s;
    }
  }
  ASSERT_GE(stranger, 0) << "every source has a class on channel 0";
  auto foreign = plan;
  auto& positions = foreign.sources_per_channel[0];
  positions.insert(std::lower_bound(positions.begin(), positions.end(),
                                    stranger),
                   stranger);
  EXPECT_THROW(channel_workload(wl, foreign, 0), util::ContractViolation);

  auto unindexed = plan;
  unindexed.sources_per_channel.clear();
  EXPECT_THROW(channel_workload(wl, unindexed, 0), util::ContractViolation);
}

TEST(MultiChannel, AggregatesMatchPerChannelRuns) {
  const auto wl = traffic::quickstart(6);
  DdcrRunOptions options;
  options.ddcr.class_width_c =
      DdcrConfig::class_width_for(wl.max_deadline(), options.ddcr.F);
  options.ddcr.alpha = options.ddcr.class_width_c * 2;
  options.arrival_horizon = SimTime::from_ns(20'000'000);
  options.drain_cap = SimTime::from_ns(100'000'000);

  const auto result = run_multi_channel(wl, 2, options);
  std::int64_t generated = 0;
  std::int64_t delivered = 0;
  for (const auto& run : result.per_channel) {
    generated += run.generated;
    delivered += run.metrics.delivered;
  }
  EXPECT_EQ(result.generated, generated);
  EXPECT_EQ(result.delivered, delivered);
  EXPECT_GT(result.generated, 0);
  EXPECT_EQ(result.misses, 0);
  EXPECT_EQ(result.undelivered, 0);
}

TEST(MultiChannel, MoreChannelsNeverLoseMessages) {
  const auto wl = traffic::videoconference(6);
  DdcrRunOptions options;
  options.ddcr.class_width_c =
      DdcrConfig::class_width_for(wl.max_deadline(), options.ddcr.F);
  options.ddcr.alpha = options.ddcr.class_width_c * 2;
  options.arrival_horizon = SimTime::from_ns(30'000'000);
  options.drain_cap = SimTime::from_ns(150'000'000);
  for (const int channels : {1, 2, 4}) {
    const auto result = run_multi_channel(wl, channels, options);
    EXPECT_EQ(result.delivered, result.generated) << channels << " channels";
    EXPECT_EQ(result.misses, 0) << channels << " channels";
  }
}

TEST(MultiChannel, ChannelSeedsAreDecorrelatedAcrossBaseSeeds) {
  // Regression: channels used to be seeded `base + ch`, so run(seed=s)'s
  // channel 1 replayed run(seed=s+1)'s channel 0 stream — adjacent-seed
  // multi-channel runs were correlated by construction.
  EXPECT_NE(channel_seed(1, 1), channel_seed(2, 0));
  EXPECT_NE(channel_seed(41, 1), channel_seed(42, 0));
  // Distinct per-channel streams under one base seed.
  EXPECT_NE(channel_seed(1, 0), channel_seed(1, 1));
  EXPECT_NE(channel_seed(1, 1), channel_seed(1, 2));
  // And deterministic.
  EXPECT_EQ(channel_seed(7, 3), channel_seed(7, 3));
}

TEST(MultiChannel, ParallelRunBitIdenticalToSerial) {
  // The tentpole determinism requirement: the thread-pool run must produce
  // the same protocol digest and the same aggregate metrics as threads=1,
  // including with more workers than this host has cores.
  const auto wl = traffic::stock_exchange(8).scaled_load(4.0);
  DdcrRunOptions options;
  options.ddcr.class_width_c =
      DdcrConfig::class_width_for(wl.max_deadline(), options.ddcr.F);
  options.ddcr.alpha = options.ddcr.class_width_c * 2;
  options.arrivals = traffic::ArrivalKind::kSaturatingAdversary;
  options.arrival_horizon = SimTime::from_ns(10'000'000);
  options.drain_cap = SimTime::from_ns(50'000'000);

  const auto serial = run_multi_channel(wl, 4, options, 1);
  EXPECT_NE(serial.protocol_digest, 0u);
  for (const int threads : {2, 4, 8}) {
    const auto parallel = run_multi_channel(wl, 4, options, threads);
    EXPECT_EQ(parallel.protocol_digest, serial.protocol_digest)
        << threads << " threads";
    EXPECT_EQ(parallel.generated, serial.generated) << threads;
    EXPECT_EQ(parallel.delivered, serial.delivered) << threads;
    EXPECT_EQ(parallel.misses, serial.misses) << threads;
    EXPECT_EQ(parallel.undelivered, serial.undelivered) << threads;
    EXPECT_EQ(parallel.worst_latency_s, serial.worst_latency_s) << threads;
    EXPECT_EQ(parallel.mean_utilization, serial.mean_utilization) << threads;
    ASSERT_EQ(parallel.per_channel.size(), serial.per_channel.size());
    for (std::size_t ch = 0; ch < serial.per_channel.size(); ++ch) {
      EXPECT_EQ(parallel.per_channel[ch].protocol_digest,
                serial.per_channel[ch].protocol_digest)
          << threads << " threads, channel " << ch;
    }
  }
}

TEST(MultiChannel, RelievesAnOverloadedSegment) {
  // A load that backlogs one channel within the run window drains cleanly
  // over four.
  // 48x nominal: ~390k msgs/s against the ~244k msgs/s slot-bound capacity
  // of one segment (every frame holds the medium >= 4.096 us).
  const auto wl = traffic::stock_exchange(10).scaled_load(48.0);
  DdcrRunOptions options;
  options.ddcr.class_width_c =
      DdcrConfig::class_width_for(wl.max_deadline(), options.ddcr.F);
  options.ddcr.alpha = options.ddcr.class_width_c * 2;
  options.arrival_horizon = SimTime::from_ns(20'000'000);
  options.drain_cap = SimTime::from_ns(22'000'000);

  const auto one = run_multi_channel(wl, 1, options);
  const auto four = run_multi_channel(wl, 4, options);
  EXPECT_GT(one.undelivered + one.misses, four.undelivered + four.misses);
}

}  // namespace
}  // namespace hrtdm::core
