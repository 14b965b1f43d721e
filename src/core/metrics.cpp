#include "core/metrics.hpp"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <span>
#include <utility>

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
  std::vector<std::uint32_t> tree_;
};

/// The distinct values of one int field of the log, ascending, and each
/// record's position among them.
struct DenseIds {
  std::vector<int> values;
  std::vector<std::uint32_t> index;  ///< per record
};

DenseIds dense_ids(const std::vector<TxRecord>& log, int TxRecord::*field) {
  DenseIds ids;
  const std::size_t n = log.size();
  ids.index.resize(n);
  if (n == 0) {
    return ids;
  }
  const auto [lo_it, hi_it] = std::minmax_element(
      log.begin(), log.end(), [field](const TxRecord& a, const TxRecord& b) {
        return a.*field < b.*field;
      });
  const std::int64_t lo = (*lo_it).*field;
  const std::int64_t range = std::int64_t{(*hi_it).*field} - lo + 1;
  if (static_cast<std::uint64_t>(range) <= 2 * n + 64) {
    // A small id range (the common case: ids 0..k): one table entry per id.
    std::vector<std::uint32_t> slot(static_cast<std::size_t>(range), 0);
    for (const TxRecord& tx : log) {
      slot[static_cast<std::size_t>(tx.*field - lo)] = 1;
    }
    for (std::size_t k = 0; k < slot.size(); ++k) {
      if (slot[k] != 0) {
        slot[k] = static_cast<std::uint32_t>(ids.values.size());
        ids.values.push_back(
            static_cast<int>(lo + static_cast<std::int64_t>(k)));
      }
    }
    for (std::size_t i = 0; i < n; ++i) {
      ids.index[i] = slot[static_cast<std::size_t>(log[i].*field - lo)];
    }
    return ids;
  }
  // Sparse ids: sort the distinct ones.
  ids.values.reserve(n);
  for (const TxRecord& tx : log) {
    ids.values.push_back(tx.*field);
  }
  std::sort(ids.values.begin(), ids.values.end());
  ids.values.erase(std::unique(ids.values.begin(), ids.values.end()),
                   ids.values.end());
  for (std::size_t i = 0; i < n; ++i) {
    ids.index[i] = static_cast<std::uint32_t>(
        std::lower_bound(ids.values.begin(), ids.values.end(),
                         log[i].*field) -
        ids.values.begin());
  }
  return ids;
}

/// util::Samples::mean over `values`, summed in their order.
double mean(std::span<const double> values) {
  double sum = 0.0;
  for (const double v : values) {
    sum += v;
  }
  return sum / static_cast<double>(values.size());
}

/// util::Samples::percentile(99.0) of the non-empty `values` (nearest
/// rank), which it reorders: a selection, not a sort.
double p99(std::span<double> values) {
  const auto rank = static_cast<std::size_t>(
      std::ceil(99.0 / 100.0 * static_cast<double>(values.size())));
  const auto nth =
      values.begin() + static_cast<std::ptrdiff_t>(
                           std::min(rank, values.size()) - 1);
  std::nth_element(values.begin(), nth, values.end());
  return *nth;
}

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
  HRTDM_EXPECT(n < UINT32_MAX, "transmission log too long");

  // inv = #{(i, j) : i < j, deadline_i > deadline_j, tx_start_i >= arrival_j}
  //
  // Since tx_start is non-decreasing in i, the condition tx_start_i >=
  // arrival_j restricts i to a suffix [lo_j, j). Decompose each count into
  // two prefix counts G(p, x) = #{i < p : deadline_i > x}, at p = j and at
  // p = lo_j, and answer them offline with one sweep over insertion
  // position p and a Fenwick tree over deadline ranks.
  //
  // Deadline ranks from one sort: equal deadlines share a rank.
  std::vector<std::pair<std::int64_t, std::uint32_t>> by_deadline(n);
  for (std::size_t i = 0; i < n; ++i) {
    by_deadline[i] = {log[i].deadline.ns(), static_cast<std::uint32_t>(i)};
  }
  std::sort(by_deadline.begin(), by_deadline.end());
  std::vector<std::uint32_t> rank(n);
  std::uint32_t ranks = 0;
  for (std::size_t k = 0; k < n; ++k) {
    if (k > 0 && by_deadline[k].first != by_deadline[k - 1].first) {
      ++ranks;
    }
    rank[by_deadline[k].second] = ranks;
  }
  ++ranks;

  // The subtracted counts, bucketed by lo_j (a counting sort: lo_j <= j).
  std::vector<std::int64_t> tx_starts(n);
  for (std::size_t i = 0; i < n; ++i) {
    tx_starts[i] = log[i].tx_start.ns();
  }
  std::vector<std::uint32_t> lo(n);
  std::vector<std::uint32_t> bucket(n + 1, 0);
  for (std::size_t j = 0; j < n; ++j) {
    const auto first = tx_starts.begin();
    lo[j] = static_cast<std::uint32_t>(
        std::lower_bound(first, first + static_cast<std::ptrdiff_t>(j),
                         log[j].arrival.ns()) -
        first);
    ++bucket[lo[j] + 1];
  }
  for (std::size_t p = 1; p <= n; ++p) {
    bucket[p] += bucket[p - 1];
  }
  std::vector<std::uint32_t> at_lo(n);
  {
    std::vector<std::uint32_t> next(bucket.begin(), bucket.end() - 1);
    for (std::size_t j = 0; j < n; ++j) {
      at_lo[next[lo[j]]++] = static_cast<std::uint32_t>(j);
    }
  }

  Bit bit(ranks);
  std::int64_t inversions = 0;
  for (std::size_t p = 0; p < n; ++p) {
    // G(p, x) = p - count_le(rank(x)) over the first p insertions.
    const auto inserted = static_cast<std::int64_t>(p);
    for (std::uint32_t k = bucket[p]; k < bucket[p + 1]; ++k) {
      inversions -= inserted - bit.count_le(rank[at_lo[k]]);
    }
    inversions += inserted - bit.count_le(rank[p]);
    bit.add(rank[p]);
  }
  HRTDM_ENSURE(inversions >= 0, "negative inversion count");
  return inversions;
}

MetricsSummary MetricsCollector::summarize() const {
  MetricsSummary summary;
  summary.silence_slots = silence_slots_;
  summary.collision_slots = collision_slots_;
  const std::size_t n = log_.size();
  summary.delivered = static_cast<std::int64_t>(n);
  summary.misses = misses_;
  summary.worst_latency_s = worst_latency_s();

  std::vector<double> latencies(n);
  for (std::size_t i = 0; i < n; ++i) {
    latencies[i] = (log_[i].completed - log_[i].arrival).to_seconds();
  }

  // Per class, in ascending class id: a stable counting sort groups the
  // latencies by class, each class's in log order, so every mean sums in
  // the order the log holds them.
  const DenseIds classes = dense_ids(log_, &TxRecord::class_id);
  const std::size_t c = classes.values.size();
  std::vector<std::size_t> first(c + 1, 0);
  std::vector<std::int64_t> misses(c, 0);
  for (std::size_t i = 0; i < n; ++i) {
    const std::uint32_t k = classes.index[i];
    ++first[k + 1];
    if (log_[i].completed > log_[i].deadline) {
      ++misses[k];
    }
  }
  for (std::size_t k = 1; k <= c; ++k) {
    first[k] += first[k - 1];
  }
  std::vector<double> grouped(n);
  {
    std::vector<std::size_t> next(first.begin(), first.end() - 1);
    for (std::size_t i = 0; i < n; ++i) {
      grouped[next[classes.index[i]]++] = latencies[i];
    }
  }
  for (std::size_t k = 0; k < c; ++k) {
    const std::span<double> samples(grouped.data() + first[k],
                                    first[k + 1] - first[k]);
    ClassSummary cls;
    cls.class_id = classes.values[k];
    cls.delivered = static_cast<std::int64_t>(samples.size());
    cls.misses = misses[k];
    cls.mean_latency_s = mean(samples);
    cls.worst_latency_s = *std::max_element(samples.begin(), samples.end());
    cls.p99_latency_s = p99(samples);
    summary.per_class.emplace_hint(summary.per_class.end(), cls.class_id,
                                   cls);
  }
  if (n > 0) {
    summary.mean_latency_s = mean(latencies);
    summary.p99_latency_s = p99(latencies);
  }

  // Jain's index over per-source delivery counts, in ascending source id:
  // (sum x)^2 / (n * sum x^2).
  const DenseIds sources = dense_ids(log_, &TxRecord::source);
  if (sources.values.size() > 1) {
    std::vector<std::int64_t> per_source(sources.values.size(), 0);
    for (const std::uint32_t k : sources.index) {
      ++per_source[k];
    }
    double sum = 0.0;
    double sum_sq = 0.0;
    for (const std::int64_t count : per_source) {
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
