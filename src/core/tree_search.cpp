#include "core/tree_search.hpp"

#include "obs/registry.hpp"
#include "util/check.hpp"
#include "util/math.hpp"
#include "util/rng.hpp"

namespace hrtdm::core {

TreeSearchEngine::TreeSearchEngine(int m, std::int64_t leaves,
                                   bool infer_last_child)
    : m_(m), leaves_(leaves), infer_last_child_(infer_last_child) {
  HRTDM_EXPECT(m >= 2, "branching degree must be >= 2");
  HRTDM_EXPECT(util::is_power_of(m, leaves), "leaves must be a power of m");
}

void TreeSearchEngine::push_children(Interval parent) {
  const std::int64_t child = parent.size / m_;
  groups_.push_back(Group{m_, false});
  const std::size_t group = groups_.size();
  // Rightmost first so the leftmost child is on top.
  for (int i = m_ - 1; i >= 0; --i) {
    stack_.push_back(Entry{Interval{parent.lo + i * child, child}, group});
  }
}

void TreeSearchEngine::note_outcome(const Entry& entry, bool silent) {
  if (entry.group == 0) {
    return;
  }
  HRTDM_ENSURE(entry.group == groups_.size(),
               "sibling groups must nest: the probed entry's group is the "
               "newest live one");
  Group& group = groups_.back();
  --group.remaining;
  group.activity = group.activity || !silent;
  if (group.remaining == 0) {
    groups_.pop_back();
  }
}

void TreeSearchEngine::normalize() {
  if (!infer_last_child_) {
    return;
  }
  while (!stack_.empty()) {
    const Entry top = stack_.back();
    if (top.group == 0 || top.interval.size == 1) {
      return;  // requeued entry or a leaf: always genuinely probed
    }
    HRTDM_ENSURE(top.group == groups_.size(),
                 "sibling groups must nest: the top entry's group is the "
                 "newest live one");
    if (groups_.back().remaining != 1 || groups_.back().activity) {
      return;  // earlier siblings still pending, or one was non-silent
    }
    // Every earlier sibling was silent, so this last child must contain
    // all >= 2 colliders of the parent: descend without spending a slot.
    ++inferred_skips_;
    stack_.pop_back();
    groups_.pop_back();
    push_children(top.interval);
  }
}

void TreeSearchEngine::begin() {
  HRTDM_EXPECT(stack_.empty(), "previous search still in progress");
  // Registry totals are flushed here — once per search, not per feedback
  // slot — so the feedback() hot path (bench E15 BM_TreeSearchEngine)
  // stays untouched. The per-search *distributions* (including the last
  // search of a run) are captured by the ddcr.*_search_slots histograms in
  // DdcrStation; these totals lag by the search in progress.
  if (!registry_muted_) {
    HRTDM_COUNT("tree.searches");
    HRTDM_COUNT_N("tree.silence_slots", silence_slots_);
    HRTDM_COUNT_N("tree.collision_slots", collision_slots_);
    HRTDM_COUNT_N("tree.inferred_skips", inferred_skips_);
  }
  search_slots_ = 0;
  collision_slots_ = 0;
  silence_slots_ = 0;
  inferred_skips_ = 0;
  groups_.clear();
  if (leaves_ == 1) {
    // Degenerate single-leaf tree: the root is the only leaf, and it was
    // already probed by the triggering collision — nothing to search.
    return;
  }
  // The triggering collision is the root probe: its children form the
  // first sibling group. No inference applies to them (the root is known
  // collided, but its group has no probed siblings yet).
  push_children(Interval{0, leaves_});
  normalize();
}

TreeSearchEngine::Interval TreeSearchEngine::current() const {
  HRTDM_EXPECT(!stack_.empty(), "no search in progress");
  return stack_.back().interval;
}

TreeSearchEngine::StepResult TreeSearchEngine::feedback(Feedback fb) {
  HRTDM_EXPECT(!stack_.empty(), "no search in progress");
  const Entry probed = stack_.back();
  StepResult result = StepResult::kFinished;
  switch (fb) {
    case Feedback::kSilence:
      ++search_slots_;
      ++silence_slots_;
      stack_.pop_back();
      note_outcome(probed, /*silent=*/true);
      result = stack_.empty() ? StepResult::kFinished : StepResult::kPruned;
      break;
    case Feedback::kSuccess:
      stack_.pop_back();
      note_outcome(probed, /*silent=*/false);
      result = stack_.empty() ? StepResult::kFinished
                              : StepResult::kTransmitted;
      break;
    case Feedback::kCollision: {
      ++search_slots_;
      ++collision_slots_;
      stack_.pop_back();
      note_outcome(probed, /*silent=*/false);
      if (probed.interval.size == 1) {
        // The tie-break procedure resolves every message on this leaf; pop
        // it so the search resumes at the adjacent subtree afterwards.
        result = StepResult::kLeafCollision;
        break;
      }
      push_children(probed.interval);
      result = StepResult::kDescended;
      break;
    }
  }
  normalize();
  if (stack_.empty() && result != StepResult::kLeafCollision) {
    result = StepResult::kFinished;
  }
  return result;
}

void TreeSearchEngine::requeue(Interval interval) {
  HRTDM_EXPECT(interval.size >= 1 && interval.lo >= 0 &&
                   interval.hi() <= leaves_,
               "requeued interval out of range");
  HRTDM_EXPECT(stack_.empty() || interval.lo <= stack_.back().interval.lo,
               "requeue must not skip ahead of the DFS frontier");
  stack_.push_back(Entry{interval, 0});
}

std::int64_t TreeSearchEngine::resolved_up_to() const {
  if (stack_.empty()) {
    return leaves_;
  }
  // DFS is strictly left-to-right: everything left of the pending top is
  // resolved.
  return stack_.back().interval.lo;
}

std::uint64_t TreeSearchEngine::digest() const {
  util::SplitMix64 mixer(0x9E3779B97F4A7C15ULL ^
                         static_cast<std::uint64_t>(search_slots_));
  std::uint64_t h = mixer.next();
  auto mix = [&h](std::uint64_t v) {
    util::SplitMix64 m2(h ^ v);
    h = m2.next();
  };
  mix(static_cast<std::uint64_t>(m_));
  mix(static_cast<std::uint64_t>(leaves_));
  mix(static_cast<std::uint64_t>(inferred_skips_));
  for (const Entry& entry : stack_) {
    mix(static_cast<std::uint64_t>(entry.interval.lo));
    mix(static_cast<std::uint64_t>(entry.interval.size));
    if (entry.group != 0) {
      const Group& group = groups_[entry.group - 1];
      mix(static_cast<std::uint64_t>(group.remaining));
      mix(static_cast<std::uint64_t>(group.activity));
    }
  }
  return h;
}

}  // namespace hrtdm::core
