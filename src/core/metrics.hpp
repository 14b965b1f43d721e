// Run metrics: latency, deadline misses, channel-slot accounting and
// deadline-inversion counting.
//
// A deadline inversion is a pair of delivered messages (A, B) where A was
// transmitted before B, A's absolute deadline is later than B's, and B was
// already waiting when A's transmission began — exactly the events a
// perfect network-wide NP-EDF would avoid (up to non-preemptability), and
// the quantity the deadline-equivalence-class width c trades against
// channel idleness (section 3.2).
#pragma once

#include <cstdint>
#include <map>
#include <vector>

#include "net/channel.hpp"
#include "util/simtime.hpp"
#include "util/stats.hpp"

namespace hrtdm::core {

using util::SimTime;

struct TxRecord {
  std::int64_t uid = -1;
  int class_id = -1;
  int source = -1;
  SimTime arrival;
  SimTime deadline;
  SimTime tx_start;
  SimTime completed;
  bool in_burst = false;
};

struct ClassSummary {
  int class_id = -1;
  std::int64_t delivered = 0;
  std::int64_t misses = 0;
  double mean_latency_s = 0.0;
  double p99_latency_s = 0.0;
  double worst_latency_s = 0.0;
};

struct MetricsSummary {
  std::int64_t delivered = 0;
  std::int64_t misses = 0;
  std::int64_t silence_slots = 0;
  std::int64_t collision_slots = 0;
  std::int64_t deadline_inversions = 0;
  double mean_latency_s = 0.0;
  double worst_latency_s = 0.0;
  double p99_latency_s = 0.0;
  /// Jain's fairness index over per-source delivered counts: 1.0 = all
  /// sources served equally, 1/z = one source monopolised the medium.
  /// (Tree protocols with spread static indices should sit near 1 for
  /// symmetric workloads — a property randomized backoff lacks under
  /// capture effects.)
  double source_fairness = 1.0;
  std::map<int, ClassSummary> per_class;
};

class MetricsCollector final : public net::ChannelObserver {
 public:
  void on_slot(const net::SlotRecord& record) override;

  /// Fast-forwarded silence slots only move the silence counter; count them
  /// in bulk instead of synthesizing per-slot records.
  void on_idle_gap(std::int64_t slots, SimTime first_start,
                   util::Duration slot_x) override {
    (void)first_start;
    (void)slot_x;
    silence_slots_ += slots;
  }

  const std::vector<TxRecord>& log() const { return log_; }

  /// Running totals, O(1) to read; summarize() reports the same values.
  std::int64_t misses() const { return misses_; }
  double worst_latency_s() const { return worst_latency_.to_seconds(); }

  /// Aggregates the transmission log (O(n log n), dominated by the
  /// inversion count).
  MetricsSummary summarize() const;

 private:
  std::vector<TxRecord> log_;
  std::int64_t silence_slots_ = 0;
  std::int64_t collision_slots_ = 0;
  std::int64_t misses_ = 0;  ///< deliveries with completed > deadline
  util::Duration worst_latency_;  ///< zero until the first delivery
};

/// Counts deadline inversions over a completion-ordered transmission log.
/// Exposed separately so tests can drive it with synthetic logs.
std::int64_t count_deadline_inversions(const std::vector<TxRecord>& log);

}  // namespace hrtdm::core
