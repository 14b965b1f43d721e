// The m-ary tree-search procedure m-ts (section 3.2), as a replicated
// deterministic state machine.
//
// Every station runs an identical copy of this engine, driven exclusively by
// the channel feedback everyone hears (silence / success / collision). Each
// probe targets an interval of leaf indices — the leaves of the subtree
// currently being examined; stations whose index falls inside the interval
// transmit. Feedback advances the DFS:
//
//   silence   -> the subtree holds no active source: prune   (1 search slot)
//   success   -> exactly one active source: it transmitted    (0 slots)
//   collision -> split into the m child subtrees, leftmost first (1 slot)
//
// A collision on a single-leaf interval cannot be split further; the engine
// reports it so the caller can run the tie-breaking static tree search
// (time trees) or treat it as a protocol-fatal event (static trees, where
// indices are unique by construction).
//
// Because all stations consume identical feedback, all replicas stay in
// lock-step — the distributed-consistency invariant the test suite checks
// by digest comparison.
//
// Sibling groups (the m children of one collided interval, tracked for the
// last-child inference) live on a flat stack whose lifetimes nest: a
// collided entry's children are stacked above its unprobed siblings, so the
// group of the top entry is always the newest live group. An entry names
// its group by 1-based stack position, and the engine never allocates once
// the stacks have grown to the deepest search — copying a replica into
// another reuses the target's capacity.
#pragma once

#include <cstdint>
#include <vector>

namespace hrtdm::core {

class TreeSearchEngine {
 public:
  /// `leaves` must be a power of `m`. With `infer_last_child` enabled the
  /// engine applies the classic collision-resolution inference the paper's
  /// Eq. 1 recursion deliberately excludes: when the first m-1 children of
  /// a collided node all turn out silent, the last child must hold every
  /// colliding station (>= 2 of them), so its probe is skipped and the
  /// search descends directly. All replicas draw the same inference from
  /// the same feedback, so consistency is preserved; measured search costs
  /// drop below xi(k, t) (see bench E20).
  TreeSearchEngine(int m, std::int64_t leaves, bool infer_last_child = false);

  /// Starts a search with the root already probed (the collision that
  /// triggered the search counts as the root probe): the m root children
  /// are pending, leftmost on top.
  void begin();

  /// Discards any search in progress (crash / MAC reset recovery).
  void abort() {
    stack_.clear();
    groups_.clear();
  }

  /// A search is also considered done before the first begin().
  bool done() const { return stack_.empty(); }
  bool active() const { return !stack_.empty(); }

  struct Interval {
    std::int64_t lo = 0;
    std::int64_t size = 0;
    std::int64_t hi() const { return lo + size; }  // exclusive
    bool contains(std::int64_t leaf) const {
      return leaf >= lo && leaf < hi();
    }
  };

  /// The interval being probed this slot. Requires active().
  Interval current() const;

  enum class Feedback { kSilence, kSuccess, kCollision };
  enum class StepResult {
    kPruned,         ///< silence: interval removed
    kTransmitted,    ///< success: interval removed
    kDescended,      ///< collision on an internal interval: split
    kLeafCollision,  ///< collision on a single leaf: caller must tie-break
    kFinished,       ///< the removed interval was the last one
  };

  /// Consumes one slot of channel feedback. Requires active().
  /// On kLeafCollision the leaf is popped — the caller's tie-break procedure
  /// is responsible for every message in it.
  StepResult feedback(Feedback fb);

  /// Re-queues an interval as the next probe. Used to retry a leaf whose
  /// lone transmission was destroyed by channel noise (the collision
  /// cannot be split further); `interval.lo` must not precede the current
  /// left-to-right frontier, so resolved_up_to() stays monotone.
  void requeue(Interval interval);

  /// Leaves strictly below this index are fully resolved (f* + 1 in the
  /// paper's terms; equals `leaves` once done).
  std::int64_t resolved_up_to() const;

  /// Collision + silence slots consumed since begin() — the quantity xi
  /// bounds. Successful transmissions cost nothing (they are accounted as
  /// transmission time, not search time).
  std::int64_t search_slots() const { return search_slots_; }
  std::int64_t collision_slots() const { return collision_slots_; }
  std::int64_t silence_slots() const { return silence_slots_; }
  std::int64_t inferred_skips() const { return inferred_skips_; }

  int m() const { return m_; }
  std::int64_t leaves() const { return leaves_; }

  /// Suppresses the registry flush in begin(). The epoch compiler replays
  /// searches on a muted working copy so compiled runs don't double-count
  /// tree.* totals; the equivalent amounts are emitted in bulk at span
  /// hand-off. Copy-assignment copies the flag — un-mute explicitly after
  /// installing a replica into a live station.
  void set_registry_muted(bool muted) { registry_muted_ = muted; }

  /// Order-sensitive digest of the replicated state (for consistency
  /// checks across stations).
  std::uint64_t digest() const;

 private:
  struct Entry {
    Interval interval;
    /// 1-based position of the entry's sibling group in groups_ (children
    /// of one collided parent share it); 0 = no group (requeued entries),
    /// exempt from inference.
    std::size_t group = 0;
  };
  struct Group {
    int remaining = 0;    ///< unprobed entries of the group still stacked
    bool activity = false;  ///< some probed sibling was non-silent
  };

  /// Applies the last-child inference to the top of the stack until the
  /// next genuine probe is exposed.
  void normalize();
  void push_children(Interval parent);
  void note_outcome(const Entry& entry, bool silent);

  int m_;
  std::int64_t leaves_;
  bool infer_last_child_;
  bool registry_muted_ = false;
  std::vector<Entry> stack_;  // back() is the next interval to probe
  /// Live sibling groups, oldest first; a grouped top entry's group is
  /// back() (the nesting invariant in the header note).
  std::vector<Group> groups_;
  std::int64_t search_slots_ = 0;
  std::int64_t collision_slots_ = 0;
  std::int64_t silence_slots_ = 0;
  std::int64_t inferred_skips_ = 0;
};

}  // namespace hrtdm::core
