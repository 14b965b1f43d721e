// MetricsCollector: slot accounting, per-class summaries (incl. p99),
// Jain's fairness index, the running tallies, the class-independent
// latency histogram and the drop-late option.
#include "core/metrics.hpp"

#include <gtest/gtest.h>

#include <utility>

#include "core/ddcr_network.hpp"
#include "obs/registry.hpp"
#include "traffic/workload.hpp"
#include "util/check.hpp"

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

}  // namespace
}  // namespace hrtdm::core
