#include "core/ddcr_config.hpp"

#include <algorithm>
#include <cmath>
#include <string>
#include <utility>

#include "util/check.hpp"
#include "util/math.hpp"

namespace hrtdm::core {

Duration DdcrConfig::theta() const {
  HRTDM_EXPECT(theta_factor >= 0.0, "theta factor cannot be negative");
  return Duration::nanoseconds(static_cast<std::int64_t>(
      std::llround(theta_factor * static_cast<double>(class_width_c.ns()))));
}

namespace {

std::string str(std::int64_t v) { return std::to_string(v); }

std::string ns(Duration d) { return std::to_string(d.ns()) + " ns"; }

/// The smallest power of m (>= 2) that is at least n, as a fix to suggest.
std::string power_at_least(std::int64_t m, std::int64_t n) {
  return str(util::ipow(m, util::ilog_ceil(m, std::max<std::int64_t>(n, 1))));
}

}  // namespace

void DdcrConfig::validate(int z) const {
  HRTDM_EXPECT(z >= 1, "z = " + str(z) + ": a channel needs at least one "
                           "source");
  HRTDM_EXPECT(m_time >= 2, "m_time = " + str(m_time) +
                                ": the time tree's branching degree must be "
                                ">= 2, e.g. m_time = 4");
  HRTDM_EXPECT(m_static >= 2, "m_static = " + str(m_static) +
                                  ": the static tree's branching degree "
                                  "must be >= 2, e.g. m_static = 4");
  HRTDM_EXPECT(util::is_power_of(m_time, F),
               "F = " + str(F) + " is not a power of m_time = " +
                   str(m_time) + "; use e.g. F = " +
                   power_at_least(m_time, F));
  HRTDM_EXPECT(util::is_power_of(m_static, q),
               "q = " + str(q) + " is not a power of m_static = " +
                   str(m_static) + "; use e.g. q = " +
                   power_at_least(m_static, q));
  HRTDM_EXPECT(q >= z, "q = " + str(q) + " but z = " + str(z) +
                           " sources; q must be a power of m_static = " +
                           str(m_static) + " at least z, e.g. " +
                           power_at_least(m_static, z));
  HRTDM_EXPECT(class_width_c > Duration::nanoseconds(0),
               "class width c = " + ns(class_width_c) +
                   " must be positive; size it with "
                   "DdcrConfig::class_width_for(max deadline, F)");
  HRTDM_EXPECT(!alpha.is_negative(),
               "alpha = " + ns(alpha) + " cannot be negative; use alpha >= 0 "
                                        "(e.g. 2 * c)");
  // Deadline-class boundaries reft + alpha + (b + 1) * c, b <= F, are
  // compared in int64 nanoseconds (the compiled replay counts contenders
  // that way), so the largest offset must be representable.
  std::int64_t span = 0;
  HRTDM_EXPECT(!__builtin_mul_overflow(F + 1, class_width_c.ns(), &span) &&
                   !__builtin_add_overflow(span, alpha.ns(), &span),
               "alpha + (F + 1) * c overflows int64 nanoseconds (alpha = " +
                   ns(alpha) + ", c = " + ns(class_width_c) + ", F = " +
                   str(F) + "); shrink c or F");
  HRTDM_EXPECT(theta_factor >= 0.0,
               "theta_factor = " + std::to_string(theta_factor) +
                   " cannot be negative; use 0 (no compressed time) or a "
                   "positive factor such as 1.0");
  // In perpetual mode reft is only ever advanced by successes and by
  // compressed time; with theta = 0 an idle network freezes reft while
  // physical time runs on, pushing every future arrival beyond the
  // scheduling horizon for good (livelock).
  HRTDM_EXPECT(epoch_mode != EpochMode::kPerpetual || theta_factor > 0.0,
               "perpetual epoch mode with theta_factor = 0 livelocks: an "
               "idle network freezes reft and pushes every later arrival "
               "beyond the horizon; set theta_factor > 0 or epoch_mode = "
               "kCsmaCdFallback");
  HRTDM_EXPECT(max_empty_tts >= 0,
               "max_empty_tts = " + str(max_empty_tts) +
                   " cannot be negative; use 0 (no cap) or a positive cap");
  HRTDM_EXPECT(static_cast<int>(static_indices.size()) == z,
               "static_indices lists " + str(static_cast<std::int64_t>(
                                             static_indices.size())) +
                   " sources but z = " + str(z) +
                   "; give every source its own list, e.g. "
                   "DdcrConfig::one_index_per_source(z, q)");
  std::int64_t total = 0;
  for (const auto& indices : static_indices) {
    total += static_cast<std::int64_t>(indices.size());
  }
  HRTDM_EXPECT(total <= q, "sum of nu_i is " + str(total) + " (z = " +
                               str(z) + ") but q = " + str(q) +
                               "; q must be a power of m_static = " +
                               str(m_static) + " at least the sum, e.g. " +
                               power_at_least(m_static, total));
  // (leaf, source) for every static index, checked for disjointness below.
  std::vector<std::pair<std::int64_t, int>> held;
  held.reserve(static_cast<std::size_t>(total));
  for (int s = 0; s < z; ++s) {
    const auto& indices = static_indices[static_cast<std::size_t>(s)];
    HRTDM_EXPECT(!indices.empty(),
                 "source " + str(s) + " has no static index; every source "
                                      "needs nu_i >= 1");
    for (std::size_t i = 0; i < indices.size(); ++i) {
      const std::int64_t leaf = indices[i];
      HRTDM_EXPECT(leaf >= 0 && leaf < q,
                   "static index " + str(leaf) + " of source " + str(s) +
                       " is outside [0, q = " + str(q) +
                       "); every index must be a static-tree leaf");
      HRTDM_EXPECT(i == 0 || indices[i - 1] < leaf,
                   "static indices of source " + str(s) +
                       " are not ranked increasing (" + str(indices[i - 1]) +
                       " then " + str(leaf) +
                       "); list each source's indices in increasing order");
      held.emplace_back(leaf, s);
    }
  }
  std::sort(held.begin(), held.end());
  for (std::size_t i = 1; i < held.size(); ++i) {
    HRTDM_EXPECT(held[i - 1].first != held[i].first,
                 "static index " + str(held[i].first) +
                     " is held by sources " + str(held[i - 1].second) +
                     " and " + str(held[i].second) +
                     "; static indices must be disjoint across sources");
  }
}

std::vector<std::vector<std::int64_t>> DdcrConfig::spread_indices(
    int z, std::int64_t q, const std::vector<std::int64_t>& nu) {
  HRTDM_EXPECT(z >= 1, "z = " + str(z) + ": need at least one source");
  HRTDM_EXPECT(static_cast<int>(nu.size()) == z,
               "nu has " + str(static_cast<std::int64_t>(nu.size())) +
                   " entries but z = " + str(z) +
                   "; give one nu_i per source");
  std::int64_t total = 0;
  for (std::size_t s = 0; s < nu.size(); ++s) {
    HRTDM_EXPECT(nu[s] >= 1, "nu_" + str(static_cast<std::int64_t>(s)) +
                                 " = " + str(nu[s]) +
                                 "; every source needs nu_i >= 1 static "
                                 "index");
    total += nu[s];
  }
  HRTDM_EXPECT(total <= q, "sum of nu_i is " + str(total) + " (z = " +
                               str(z) + ") but q = " + str(q) +
                               "; raise q to a power of m_static at least " +
                               str(total) + ", or lower some nu_i");

  // Round-robin over sources that still need indices, walking the leaf
  // range left to right: sources end up maximally interleaved.
  std::vector<std::vector<std::int64_t>> result(static_cast<std::size_t>(z));
  std::vector<std::int64_t> remaining = nu;
  std::int64_t next_leaf = 0;
  // Stride the assignment across the whole range when it fits evenly.
  const std::int64_t stride = std::max<std::int64_t>(q / total, 1);
  int s = 0;
  while (total > 0) {
    if (remaining[static_cast<std::size_t>(s)] > 0) {
      result[static_cast<std::size_t>(s)].push_back(next_leaf);
      --remaining[static_cast<std::size_t>(s)];
      --total;
      // With stride = floor(q/total0) and exactly total0 assignments the
      // positions 0, stride, 2*stride, ... never reach q, so indices are
      // distinct by construction.
      next_leaf += stride;
      HRTDM_ENSURE(total == 0 || next_leaf < q, "static index allocation overflow");
    }
    s = (s + 1) % z;
  }
  for (auto& indices : result) {
    std::sort(indices.begin(), indices.end());
  }
  return result;
}

std::vector<std::vector<std::int64_t>> DdcrConfig::one_index_per_source(
    int z, std::int64_t q) {
  return spread_indices(z, q, std::vector<std::int64_t>(
                                  static_cast<std::size_t>(z), 1));
}

bool DdcrConfig::supports_quiet_rejoin() const {
  return epoch_mode == EpochMode::kCsmaCdFallback &&
         (theta_factor == 0.0 || max_empty_tts > 0);
}

void DdcrConfig::validate_rejoinable() const {
  HRTDM_EXPECT(epoch_mode == EpochMode::kCsmaCdFallback,
               "quiet-period rejoin is only sound in fallback epoch mode: "
               "perpetual mode never goes quiet, so a resyncing station "
               "would listen forever; set epoch_mode = kCsmaCdFallback");
  HRTDM_EXPECT(theta_factor == 0.0 || max_empty_tts > 0,
               "this configuration livelocks a rejoining station: with "
               "compressed time enabled (theta_factor > 0) and "
               "max_empty_tts == 0 an epoch can produce unbounded silence "
               "streaks, so no silence streak certifies 'no epoch in "
               "progress'; set max_empty_tts > 0 (bounds the empty-TTs "
               "chain) or theta_factor = 0");
}

std::int64_t DdcrConfig::resync_silence_threshold() const {
  validate_rejoinable();
  // Longest silent run a live epoch can produce: the remaining (all-silent)
  // DFS stacks of a nested static + time search, plus the capped chain of
  // empty time tree searches, plus one slot of margin.
  const std::int64_t time_stack =
      (m_time - 1) * util::ilog_floor(m_time, F) + 1;
  const std::int64_t static_stack =
      (m_static - 1) * util::ilog_floor(m_static, q) + 1;
  const std::int64_t empty_chains =
      static_cast<std::int64_t>(max_empty_tts) * m_time;
  return time_stack + static_stack + empty_chains + 2;
}

Duration DdcrConfig::class_width_for(Duration max_deadline, std::int64_t F,
                                     int margin_percent) {
  HRTDM_EXPECT(max_deadline > Duration::nanoseconds(0),
               "max deadline must be positive");
  HRTDM_EXPECT(F >= 2, "need at least two time-tree leaves");
  HRTDM_EXPECT(margin_percent >= 100, "margin must be at least 100%");
  const std::int64_t target_ns =
      util::ceil_div(max_deadline.ns() * margin_percent, 100);
  return Duration::nanoseconds(util::ceil_div(target_ns, F));
}

}  // namespace hrtdm::core
