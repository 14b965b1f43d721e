// MetricsCollector: slot accounting, per-class summaries (incl. p99),
// Jain's fairness index, the running tallies, the class-independent
// latency histogram and the drop-late option.
#include "core/metrics.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "core/ddcr_network.hpp"
#include "obs/registry.hpp"
#include "traffic/workload.hpp"
#include "util/check.hpp"
#include "util/rng.hpp"
#include "util/stats.hpp"

namespace hrtdm::core {
namespace {

net::SlotRecord success_record(std::int64_t uid, int class_id, int source,
                               std::int64_t arrival_ns,
                               std::int64_t start_ns, std::int64_t end_ns,
                               std::int64_t deadline_ns) {
  net::SlotRecord record;
  record.kind = net::SlotKind::kSuccess;
  record.start = SimTime::from_ns(start_ns);
  record.end = SimTime::from_ns(end_ns);
  net::Frame frame;
  frame.source = source;
  frame.msg_uid = uid;
  frame.class_id = class_id;
  frame.l_bits = 100;
  frame.enqueue_time = SimTime::from_ns(arrival_ns);
  frame.absolute_deadline = SimTime::from_ns(deadline_ns);
  record.frame = frame;
  return record;
}

net::SlotRecord plain_record(net::SlotKind kind) {
  net::SlotRecord record;
  record.kind = kind;
  return record;
}

TEST(Metrics, SlotAndDeliveryAccounting) {
  MetricsCollector metrics;
  metrics.on_slot(plain_record(net::SlotKind::kSilence));
  metrics.on_slot(plain_record(net::SlotKind::kCollision));
  metrics.on_slot(plain_record(net::SlotKind::kCollision));
  metrics.on_slot(success_record(1, 0, 0, 0, 100, 200, 1'000));
  metrics.on_slot(success_record(2, 0, 1, 0, 200, 400, 300));  // late!
  const auto summary = metrics.summarize();
  EXPECT_EQ(summary.silence_slots, 1);
  EXPECT_EQ(summary.collision_slots, 2);
  EXPECT_EQ(summary.delivered, 2);
  EXPECT_EQ(summary.misses, 1);
  EXPECT_NEAR(summary.worst_latency_s, 400e-9, 1e-15);
  EXPECT_NEAR(summary.mean_latency_s, 300e-9, 1e-15);
}

/// Registry histograms whose name starts with "latency.", and the count of
/// latency.delivery_ns (0 while it is not registered).
std::pair<std::size_t, std::int64_t> latency_histograms() {
  std::size_t names = 0;
  std::int64_t delivery_count = 0;
  for (const auto& h : obs::Registry::global().snapshot().histograms) {
    if (h.name.rfind("latency.", 0) == 0) {
      ++names;
    }
    if (h.name == "latency.delivery_ns") {
      delivery_count = h.count;
    }
  }
  return {names, delivery_count};
}

TEST(Metrics, LatencyHistogramsDoNotGrowWithClasses) {
  // A fabric run holds one class per station, so registry names must not
  // scale with the class count: 1000 classes add at most one name.
  const auto [names_before, count_before] = latency_histograms();
  MetricsCollector metrics;
  for (int k = 0; k < 1000; ++k) {
    metrics.on_slot(success_record(k, /*class=*/k, /*source=*/0,
                                   /*arrival=*/0, k * 100, k * 100 + 50,
                                   /*deadline=*/10'000'000));
  }
  const auto [names_after, count_after] = latency_histograms();
  EXPECT_LE(names_after, names_before + 1);
#if !defined(HRTDM_OBS_OFF)
  EXPECT_EQ(count_after, count_before + 1000);
#else
  EXPECT_EQ(count_after, count_before);  // the macro compiles to nothing
#endif
  EXPECT_EQ(metrics.log().size(), 1000u);
}

TEST(Metrics, RunningTalliesMatchSummarize) {
  // The O(1) tallies the fabric reads and the full summary must agree bit
  // for bit, including on an empty collector.
  MetricsCollector empty;
  EXPECT_EQ(empty.misses(), 0);
  EXPECT_EQ(empty.worst_latency_s(), 0.0);
  EXPECT_EQ(empty.misses(), empty.summarize().misses);
  EXPECT_EQ(empty.worst_latency_s(), empty.summarize().worst_latency_s);

  // Latencies 200, 1287 (late), 200 (completes on its deadline) and 1100
  // (late) ns.
  MetricsCollector metrics;
  metrics.on_slot(success_record(1, 0, 0, 0, 100, 200, 1'000));
  metrics.on_slot(success_record(2, 1, 1, 50, 200, 1'337, 900));
  metrics.on_slot(success_record(3, 2, 0, 1'200, 1'337, 1'400, 1'400));
  metrics.on_slot(plain_record(net::SlotKind::kCollision));
  metrics.on_slot(success_record(4, 1, 1, 900, 1'400, 2'000, 1'000));
  const MetricsSummary summary = metrics.summarize();
  EXPECT_EQ(metrics.misses(), 2);
  EXPECT_EQ(metrics.misses(), summary.misses);
  // Bit-exact: both are the largest (completed - arrival) in seconds.
  EXPECT_EQ(metrics.worst_latency_s(), summary.worst_latency_s);
  EXPECT_EQ(metrics.worst_latency_s(),
            util::Duration::nanoseconds(1'287).to_seconds());
}

TEST(Metrics, PerClassSummariesIncludePercentiles) {
  MetricsCollector metrics;
  for (int i = 1; i <= 100; ++i) {
    metrics.on_slot(success_record(i, /*class=*/7, /*source=*/0,
                                   /*arrival=*/0, i * 100, i * 100 + i * 10,
                                   /*deadline=*/10'000'000));
  }
  const auto summary = metrics.summarize();
  ASSERT_EQ(summary.per_class.size(), 1u);
  const auto& cls = summary.per_class.at(7);
  EXPECT_EQ(cls.delivered, 100);
  EXPECT_EQ(cls.misses, 0);
  // Latency of record i is i*100 + i*10 ns; p99 = the 99th value.
  EXPECT_NEAR(cls.p99_latency_s, (99 * 100 + 990) * 1e-9, 1e-15);
  EXPECT_NEAR(cls.worst_latency_s, (100 * 100 + 1000) * 1e-9, 1e-15);
}

TEST(Metrics, FairnessIndexExtremes) {
  // Perfectly fair: two sources, equal counts -> 1.0.
  MetricsCollector fair;
  for (int i = 0; i < 10; ++i) {
    fair.on_slot(success_record(i, 0, i % 2, 0, i * 100, i * 100 + 50,
                                1'000'000));
  }
  EXPECT_NEAR(fair.summarize().source_fairness, 1.0, 1e-12);

  // Monopoly over two sources: Jain -> (n)^2 / (2 n^2) = 0.5... with one
  // source holding everything and the other 1 message:
  MetricsCollector skewed;
  for (int i = 0; i < 9; ++i) {
    skewed.on_slot(success_record(i, 0, 0, 0, i * 100, i * 100 + 50,
                                  1'000'000));
  }
  skewed.on_slot(success_record(99, 0, 1, 0, 2000, 2050, 1'000'000));
  // (9 + 1)^2 / (2 * (81 + 1)) = 100 / 164.
  EXPECT_NEAR(skewed.summarize().source_fairness, 100.0 / 164.0, 1e-12);

  // Single source: index stays at its default 1.0.
  MetricsCollector single;
  single.on_slot(success_record(1, 0, 0, 0, 0, 50, 1'000'000));
  EXPECT_NEAR(single.summarize().source_fairness, 1.0, 1e-12);
}

TEST(Metrics, DdcrIsFairAcrossSymmetricSources) {
  const auto wl = traffic::quickstart(8);
  DdcrRunOptions options;
  options.ddcr.class_width_c =
      DdcrConfig::class_width_for(wl.max_deadline(), options.ddcr.F);
  options.ddcr.alpha = options.ddcr.class_width_c * 2;
  options.arrivals = traffic::ArrivalKind::kSaturatingAdversary;
  options.arrival_horizon = SimTime::from_ns(40'000'000);
  options.drain_cap = SimTime::from_ns(200'000'000);
  const auto result = run_ddcr(wl, options);
  EXPECT_GT(result.metrics.source_fairness, 0.99);
}

TEST(Metrics, DropLateShedsExpiredMessages) {
  DdcrRunOptions options;
  options.phy.slot_x = util::Duration::nanoseconds(100);
  options.ddcr.class_width_c = util::Duration::microseconds(10);
  options.ddcr.alpha = util::Duration::nanoseconds(0);
  options.ddcr.drop_late_messages = true;
  DdcrTestbed bed(2, options);
  // Arrives mid-slot (t = 150 ns) with a deadline (190 ns) that expires
  // before the next contention slot boundary (200 ns): at poll time the
  // message is already dead and must be shed, never transmitted.
  traffic::Message doomed;
  doomed.uid = 1;
  doomed.class_id = 0;
  doomed.source = 0;
  doomed.l_bits = 100;
  doomed.arrival = SimTime::from_ns(150);
  doomed.absolute_deadline = SimTime::from_ns(190);
  bed.inject(0, doomed);
  traffic::Message fine;
  fine.uid = 2;
  fine.class_id = 0;
  fine.source = 0;
  fine.l_bits = 100;
  fine.arrival = SimTime::from_ns(150);
  fine.absolute_deadline = SimTime::from_ns(1'000'000);
  bed.inject(0, fine);
  bed.run(SimTime::from_ns(100'000));
  // Only the live message was transmitted; the doomed one was shed.
  ASSERT_EQ(bed.metrics().log().size(), 1u);
  EXPECT_EQ(bed.metrics().log().front().uid, 2);
  EXPECT_EQ(bed.station(0).counters().dropped_late, 1);
  EXPECT_EQ(bed.metrics().summarize().misses, 0);
}

TxRecord tx_record(std::int64_t uid, std::int64_t tx_start_ns,
                   std::int64_t deadline_ns, std::int64_t arrival_ns = 0) {
  TxRecord record;
  record.uid = uid;
  record.arrival = SimTime::from_ns(arrival_ns);
  record.deadline = SimTime::from_ns(deadline_ns);
  record.tx_start = SimTime::from_ns(tx_start_ns);
  record.completed = SimTime::from_ns(tx_start_ns + 50);
  return record;
}

TEST(Metrics, InversionCountOnOrderedLog) {
  // Record 1 (deadline 900) transmits before record 2 (deadline 500)
  // although 2 was already waiting -> one inversion.
  std::vector<TxRecord> log;
  log.push_back(tx_record(1, 100, 900));
  log.push_back(tx_record(2, 200, 500));
  log.push_back(tx_record(3, 300, 950));
  EXPECT_EQ(count_deadline_inversions(log), 1);
}

TEST(Metrics, InversionCountRejectsUnorderedLog) {
  // Regression: the precondition used to be `a.completed <= b.tx_start ||
  // a.tx_start <= b.tx_start`, whose second disjunct is always true for a
  // log sorted by anything at all — a spliced log with decreasing
  // tx_start sailed through and produced a wrong count. It must throw.
  std::vector<TxRecord> log;
  log.push_back(tx_record(1, 500, 900));
  log.push_back(tx_record(2, 100, 500));  // tx_start goes backwards
  EXPECT_THROW(count_deadline_inversions(log), util::ContractViolation);
}

TEST(Metrics, DropLateOffTransmitsLateMessages) {
  DdcrRunOptions options;
  options.phy.slot_x = util::Duration::nanoseconds(100);
  options.ddcr.class_width_c = util::Duration::microseconds(10);
  options.ddcr.alpha = util::Duration::nanoseconds(0);
  DdcrTestbed bed(2, options);
  traffic::Message late;
  late.uid = 1;
  late.class_id = 0;
  late.source = 0;
  late.l_bits = 100;
  late.arrival = SimTime::from_ns(0);
  late.absolute_deadline = SimTime::from_ns(50);
  bed.inject(0, late);
  bed.run(SimTime::from_ns(100'000));
  ASSERT_EQ(bed.metrics().log().size(), 1u);
  EXPECT_EQ(bed.metrics().summarize().misses, 1);
  EXPECT_EQ(bed.station(0).counters().dropped_late, 0);
}

// --- MetricsOracle: summarize() against the map-and-sort version -----------

// count_deadline_inversions as it was written first: a sort of 2n prefix
// queries and a binary search per deadline rank.
std::int64_t reference_inversions(const std::vector<TxRecord>& log) {
  const std::size_t n = log.size();
  if (n < 2) {
    return 0;
  }
  std::vector<std::int64_t> deadlines(n);
  for (std::size_t i = 0; i < n; ++i) {
    deadlines[i] = log[i].deadline.ns();
  }
  std::vector<std::int64_t> sorted = deadlines;
  std::sort(sorted.begin(), sorted.end());
  sorted.erase(std::unique(sorted.begin(), sorted.end()), sorted.end());
  const auto rank_of = [&](std::int64_t d) {
    return static_cast<std::size_t>(
        std::lower_bound(sorted.begin(), sorted.end(), d) - sorted.begin());
  };
  std::vector<SimTime> tx_starts(n);
  for (std::size_t i = 0; i < n; ++i) {
    tx_starts[i] = log[i].tx_start;
  }
  struct PrefixQuery {
    std::size_t p;
    std::size_t rank;
    std::int64_t sign;
  };
  std::vector<PrefixQuery> queries;
  for (std::size_t j = 0; j < n; ++j) {
    const auto lo = static_cast<std::size_t>(
        std::lower_bound(tx_starts.begin(),
                         tx_starts.begin() + static_cast<std::ptrdiff_t>(j),
                         log[j].arrival) -
        tx_starts.begin());
    const std::size_t rank = rank_of(deadlines[j]);
    queries.push_back({j, rank, +1});
    queries.push_back({lo, rank, -1});
  }
  std::sort(queries.begin(), queries.end(),
            [](const PrefixQuery& a, const PrefixQuery& b) { return a.p < b.p; });
  std::vector<std::int64_t> tree(sorted.size() + 1, 0);
  std::int64_t inversions = 0;
  std::size_t q = 0;
  for (std::size_t p = 0; p <= n; ++p) {
    while (q < queries.size() && queries[q].p == p) {
      std::int64_t le = 0;
      for (std::size_t i = queries[q].rank + 1; i > 0; i -= i & (~i + 1)) {
        le += tree[i];
      }
      inversions += queries[q].sign * (static_cast<std::int64_t>(p) - le);
      ++q;
    }
    if (p < n) {
      for (std::size_t i = rank_of(deadlines[p]) + 1; i < tree.size();
           i += i & (~i + 1)) {
        ++tree[i];
      }
    }
  }
  return inversions;
}

// MetricsCollector::summarize as it was written first: util::Samples per
// class in a std::map, full sorts for every percentile.
MetricsSummary reference_summarize(const MetricsCollector& collector,
                                   std::int64_t silence,
                                   std::int64_t collision) {
  const std::vector<TxRecord>& log = collector.log();
  MetricsSummary summary;
  summary.silence_slots = silence;
  summary.collision_slots = collision;
  summary.delivered = static_cast<std::int64_t>(log.size());
  util::Samples latencies;
  std::map<int, util::Samples> class_latency;
  for (const TxRecord& tx : log) {
    const double latency = (tx.completed - tx.arrival).to_seconds();
    latencies.add(latency);
    auto& cls = summary.per_class[tx.class_id];
    cls.class_id = tx.class_id;
    ++cls.delivered;
    if (tx.completed > tx.deadline) {
      ++cls.misses;
    }
    class_latency[tx.class_id].add(latency);
  }
  for (auto& [id, cls] : summary.per_class) {
    auto& samples = class_latency[id];
    cls.mean_latency_s = samples.mean();
    cls.p99_latency_s = samples.percentile(99.0);
    cls.worst_latency_s = samples.max();
  }
  summary.misses = collector.misses();
  summary.worst_latency_s = collector.worst_latency_s();
  if (latencies.count() > 0) {
    summary.mean_latency_s = latencies.mean();
    summary.p99_latency_s = latencies.percentile(99.0);
  }
  std::map<int, std::int64_t> per_source;
  for (const TxRecord& tx : log) {
    ++per_source[tx.source];
  }
  if (per_source.size() > 1) {
    double sum = 0.0;
    double sum_sq = 0.0;
    for (const auto& [source, count] : per_source) {
      sum += static_cast<double>(count);
      sum_sq += static_cast<double>(count) * static_cast<double>(count);
    }
    summary.source_fairness =
        sum * sum / (static_cast<double>(per_source.size()) * sum_sq);
  }
  summary.deadline_inversions = reference_inversions(log);
  return summary;
}

std::uint64_t bits(double x) { return std::bit_cast<std::uint64_t>(x); }

// Every field, doubles bit for bit.
void expect_same_summary(const MetricsSummary& got, const MetricsSummary& want,
                         const std::string& label) {
  EXPECT_EQ(got.delivered, want.delivered) << label;
  EXPECT_EQ(got.misses, want.misses) << label;
  EXPECT_EQ(got.silence_slots, want.silence_slots) << label;
  EXPECT_EQ(got.collision_slots, want.collision_slots) << label;
  EXPECT_EQ(got.deadline_inversions, want.deadline_inversions) << label;
  EXPECT_EQ(bits(got.mean_latency_s), bits(want.mean_latency_s)) << label;
  EXPECT_EQ(bits(got.worst_latency_s), bits(want.worst_latency_s)) << label;
  EXPECT_EQ(bits(got.p99_latency_s), bits(want.p99_latency_s)) << label;
  EXPECT_EQ(bits(got.source_fairness), bits(want.source_fairness)) << label;
  ASSERT_EQ(got.per_class.size(), want.per_class.size()) << label;
  for (auto g = got.per_class.begin(), w = want.per_class.begin();
       g != got.per_class.end(); ++g, ++w) {
    EXPECT_EQ(g->first, w->first) << label;
    EXPECT_EQ(g->second.class_id, w->second.class_id) << label;
    EXPECT_EQ(g->second.delivered, w->second.delivered) << label;
    EXPECT_EQ(g->second.misses, w->second.misses) << label;
    EXPECT_EQ(bits(g->second.mean_latency_s), bits(w->second.mean_latency_s))
        << label << " class " << g->first;
    EXPECT_EQ(bits(g->second.p99_latency_s), bits(w->second.p99_latency_s))
        << label << " class " << g->first;
    EXPECT_EQ(bits(g->second.worst_latency_s), bits(w->second.worst_latency_s))
        << label << " class " << g->first;
  }
}

// A random transmission log of `n` deliveries among silence and collision
// slots, fed to a collector the way the channel feeds it: tx_start never
// decreases and often repeats, deadlines and arrivals tie, and class and
// source ids come from `ids`.
struct RandomLog {
  MetricsCollector collector;
  std::int64_t silence = 0;
  std::int64_t collision = 0;
};

void fill_log(RandomLog& log, util::Rng& rng, std::int64_t n,
              const std::vector<int>& ids) {
  const auto pick = [&rng, &ids] {
    return ids[static_cast<std::size_t>(
        rng.uniform_i64(0, static_cast<std::int64_t>(ids.size()) - 1))];
  };
  std::int64_t start = 1'000;
  for (std::int64_t uid = 0; uid < n; ++uid) {
    if (rng.uniform_i64(0, 3) == 0) {
      const bool silent = rng.uniform_i64(0, 1) == 0;
      log.collector.on_slot(plain_record(silent ? net::SlotKind::kSilence
                                                : net::SlotKind::kCollision));
      ++(silent ? log.silence : log.collision);
    }
    start += rng.uniform_i64(0, 2) * 10;  // equal tx_starts are common
    const std::int64_t end = start + 10 * rng.uniform_i64(1, 3);
    const std::int64_t arrival = start - 10 * rng.uniform_i64(0, 40);
    const std::int64_t deadline = arrival + 10 * rng.uniform_i64(0, 30);
    log.collector.on_slot(
        success_record(uid, pick(), pick(), arrival, start, end, deadline));
  }
}

TEST(MetricsOracle, SummarizeMatchesTheReferenceOnRandomLogs) {
  const std::vector<std::vector<int>> palettes = {
      {0, 1, 2, 3},                       // dense, as the runs have them
      {-3, -1, 0, 2},                     // negative
      {-1'000'000, 7, 2'000'000'000},     // sparse: beyond the id table
      {5},                                // one class, one source
  };
  util::Rng rng(2024);
  int with_inversions = 0;
  int with_misses = 0;
  for (int trial = 0; trial < 200; ++trial) {
    const std::vector<int>& ids =
        palettes[static_cast<std::size_t>(trial) % palettes.size()];
    const std::int64_t n = rng.uniform_i64(0, 400);
    RandomLog log;
    fill_log(log, rng, n, ids);
    const std::string label =
        "trial " + std::to_string(trial) + " n " + std::to_string(n);
    EXPECT_EQ(count_deadline_inversions(log.collector.log()),
              reference_inversions(log.collector.log()))
        << label;
    const MetricsSummary summary = log.collector.summarize();
    expect_same_summary(summary,
                        reference_summarize(log.collector, log.silence,
                                            log.collision),
                        label);
    with_inversions += summary.deadline_inversions > 0 ? 1 : 0;
    with_misses += summary.misses > 0 ? 1 : 0;
  }
  // Non-vacuity: the logs hold inversions and misses to count.
  EXPECT_GT(with_inversions, 150);
  EXPECT_GT(with_misses, 150);
}

TEST(MetricsOracle, SummarizeMatchesTheReferenceOnTinyLogs) {
  util::Rng rng(7);
  for (const std::int64_t n : {0, 1, 2}) {
    for (int trial = 0; trial < 50; ++trial) {
      RandomLog log;
      fill_log(log, rng, n, {-2, 0, 9});
      const std::string label =
          "n " + std::to_string(n) + " trial " + std::to_string(trial);
      expect_same_summary(log.collector.summarize(),
                          reference_summarize(log.collector, log.silence,
                                              log.collision),
                          label);
    }
  }
}

}  // namespace
}  // namespace hrtdm::core
