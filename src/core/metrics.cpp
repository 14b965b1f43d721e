#include "core/metrics.hpp"

#include <algorithm>

#include "obs/registry.hpp"
#include "util/check.hpp"

namespace hrtdm::core {

void MetricsCollector::on_slot(const net::SlotRecord& record) {
  switch (record.kind) {
    case net::SlotKind::kSilence:
      ++silence_slots_;
      return;
    case net::SlotKind::kCollision:
      ++collision_slots_;
      return;
    case net::SlotKind::kSuccess: {
      HRTDM_EXPECT(record.frame.has_value(), "success slot without a frame");
      TxRecord tx;
      tx.uid = record.frame->msg_uid;
      tx.class_id = record.frame->class_id;
      tx.source = record.frame->source;
      tx.arrival = record.frame->enqueue_time;
      tx.deadline = record.frame->absolute_deadline;
      tx.tx_start = record.start;
      tx.completed = record.end;
      tx.in_burst = record.in_burst;
      const util::Duration latency = tx.completed - tx.arrival;
      // One histogram whatever the class count (docs/OBSERVABILITY.md).
      HRTDM_OBSERVE("latency.delivery_ns", latency.ns());
      if (tx.completed > tx.deadline) {
        ++misses_;
      }
      if (log_.empty() || latency > worst_latency_) {
        worst_latency_ = latency;
      }
      log_.push_back(tx);
      return;
    }
  }
}

namespace {

/// Fenwick tree over deadline ranks.
class Bit {
 public:
  explicit Bit(std::size_t n) : tree_(n + 1, 0) {}
  void add(std::size_t rank) {
    for (std::size_t i = rank + 1; i < tree_.size(); i += i & (~i + 1)) {
      ++tree_[i];
    }
  }
  std::int64_t count_le(std::size_t rank) const {  // ranks [0, rank]
    std::int64_t sum = 0;
    for (std::size_t i = rank + 1; i > 0; i -= i & (~i + 1)) {
      sum += tree_[i];
    }
    return sum;
  }

 private:
  std::vector<std::int64_t> tree_;
};

}  // namespace

std::int64_t count_deadline_inversions(const std::vector<TxRecord>& log) {
  const std::size_t n = log.size();
  if (n < 2) {
    return 0;
  }
  // The sweep below relies on tx_start being non-decreasing, which holds
  // for any log produced by the (serialising) channel. Reject anything
  // else — a spliced or reordered log would silently produce a wrong
  // count. (An earlier guard `completed <= tx_start || tx_start <=
  // tx_start` was vacuously true for every completion-ordered pair.)
  for (std::size_t i = 1; i < n; ++i) {
    HRTDM_EXPECT(log[i - 1].tx_start <= log[i].tx_start,
                 "transmission log must be ordered by tx_start");
  }

  // inv = #{(i, j) : i < j, deadline_i > deadline_j, tx_start_i >= arrival_j}
  //
  // Since tx_start is non-decreasing in i, the condition tx_start_i >=
  // arrival_j restricts i to a suffix [lo_j, j). Decompose each query into
  // two prefix queries G(p, x) = #{i < p : deadline_i > x} and answer them
  // offline with one sweep over insertion position p and a Fenwick tree
  // over deadline ranks.
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
    std::size_t p;        // evaluate against the first p insertions
    std::size_t rank;     // deadline rank of the probe
    std::int64_t sign;    // +1 or -1
  };
  std::vector<PrefixQuery> queries;
  queries.reserve(2 * n);
  for (std::size_t j = 0; j < n; ++j) {
    const auto lo = static_cast<std::size_t>(
        std::lower_bound(tx_starts.begin(), tx_starts.begin() +
                                                static_cast<std::ptrdiff_t>(j),
                         log[j].arrival) -
        tx_starts.begin());
    const std::size_t rank = rank_of(deadlines[j]);
    queries.push_back({j, rank, +1});
    queries.push_back({lo, rank, -1});
  }
  std::sort(queries.begin(), queries.end(),
            [](const PrefixQuery& a, const PrefixQuery& b) { return a.p < b.p; });

  Bit bit(sorted.size());
  std::int64_t inversions = 0;
  std::size_t q = 0;
  for (std::size_t p = 0; p <= n; ++p) {
    while (q < queries.size() && queries[q].p == p) {
      // G(p, x) = p_inserted - count_le(rank(x))
      const std::int64_t greater =
          static_cast<std::int64_t>(p) - bit.count_le(queries[q].rank);
      inversions += queries[q].sign * greater;
      ++q;
    }
    if (p < n) {
      bit.add(rank_of(deadlines[p]));
    }
  }
  HRTDM_ENSURE(inversions >= 0, "negative inversion count");
  return inversions;
}

MetricsSummary MetricsCollector::summarize() const {
  MetricsSummary summary;
  summary.silence_slots = silence_slots_;
  summary.collision_slots = collision_slots_;
  summary.delivered = static_cast<std::int64_t>(log_.size());

  util::Samples latencies;
  std::map<int, util::Samples> class_latency;
  for (const TxRecord& tx : log_) {
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
  summary.misses = misses_;
  summary.worst_latency_s = worst_latency_s();
  if (latencies.count() > 0) {
    summary.mean_latency_s = latencies.mean();
    summary.p99_latency_s = latencies.percentile(99.0);
  }
  // Jain's index over per-source delivery counts:
  // (sum x)^2 / (n * sum x^2).
  std::map<int, std::int64_t> per_source;
  for (const TxRecord& tx : log_) {
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
  summary.deadline_inversions = count_deadline_inversions(log_);
  return summary;
}

}  // namespace hrtdm::core
