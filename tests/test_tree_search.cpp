// The replicated m-ary tree-search engine: DFS semantics, cost accounting
// against the analysis layer, and replica consistency.
#include "core/tree_search.hpp"

#include <gtest/gtest.h>

#include <vector>

#include "analysis/xi.hpp"
#include "util/check.hpp"
#include "util/rng.hpp"

namespace hrtdm::core {
namespace {

/// Drives one engine with a concrete set of active leaves, emulating the
/// channel: silence when no active leaf is in the probed interval, success
/// when exactly one, collision otherwise. Returns transmitted leaf order.
std::vector<std::int64_t> drive(TreeSearchEngine& engine,
                                std::vector<std::int64_t> active) {
  std::vector<std::int64_t> transmitted;
  engine.begin();
  while (engine.active()) {
    const auto interval = engine.current();
    std::vector<std::int64_t> inside;
    for (const std::int64_t leaf : active) {
      if (interval.contains(leaf)) {
        inside.push_back(leaf);
      }
    }
    if (inside.empty()) {
      engine.feedback(TreeSearchEngine::Feedback::kSilence);
    } else if (inside.size() == 1) {
      transmitted.push_back(inside.front());
      std::erase(active, inside.front());
      engine.feedback(TreeSearchEngine::Feedback::kSuccess);
    } else {
      const auto result =
          engine.feedback(TreeSearchEngine::Feedback::kCollision);
      if (result == TreeSearchEngine::StepResult::kLeafCollision) {
        // Tie-break resolved externally: all leaf occupants transmitted.
        // (Cannot happen with distinct leaves; used by dedicated tests.)
        for (const std::int64_t leaf : inside) {
          transmitted.push_back(leaf);
          std::erase(active, leaf);
        }
      }
    }
  }
  return transmitted;
}

TEST(TreeSearchEngine, ResolvesLeavesInIndexOrder) {
  TreeSearchEngine engine(2, 8);
  const auto order = drive(engine, {6, 1, 3});
  EXPECT_EQ(order, (std::vector<std::int64_t>{1, 3, 6}));
  EXPECT_TRUE(engine.done());
}

TEST(TreeSearchEngine, EmptySearchCostsMSlots) {
  // DESIGN decision 1: an empty tree search probes the m root children and
  // hears m consecutive empty slots.
  for (int m = 2; m <= 5; ++m) {
    TreeSearchEngine engine(m, m * m);
    const auto order = drive(engine, {});
    EXPECT_TRUE(order.empty());
    EXPECT_EQ(engine.search_slots(), m);
    EXPECT_EQ(engine.silence_slots(), m);
    EXPECT_EQ(engine.collision_slots(), 0);
  }
}

TEST(TreeSearchEngine, CostMatchesAnalysisForConcretePlacements) {
  // The engine's slot count must equal search_cost_for_leaves minus the
  // root probe (the triggering collision is charged to the caller).
  util::Rng rng(123);
  for (const auto& [m, t] : {std::pair<int, std::int64_t>{2, 64},
                             {4, 64},
                             {2, 256},
                             {4, 256},
                             {3, 81}}) {
    for (int trial = 0; trial < 30; ++trial) {
      const std::int64_t k = rng.uniform_i64(2, std::min<std::int64_t>(t, 20));
      const auto perm = rng.permutation(t);
      std::vector<std::int64_t> leaves(perm.begin(), perm.begin() + k);
      std::sort(leaves.begin(), leaves.end());
      TreeSearchEngine engine(m, t);
      drive(engine, leaves);
      EXPECT_EQ(engine.search_slots() + 1,
                analysis::search_cost_for_leaves(m, t, leaves))
          << "m=" << m << " t=" << t << " k=" << k;
    }
  }
}

TEST(TreeSearchEngine, WorstCaseCostEqualsXi) {
  // Driving the engine with the adversarial placement from the analysis
  // layer realises exactly xi(k, t) total slots (incl. the root probe).
  for (const auto& [m, n] : {std::pair{2, 4}, {2, 6}, {4, 3}, {3, 4}}) {
    analysis::XiExactTable table(m, n);
    for (std::int64_t k = 2; k <= table.t();
         k += std::max<std::int64_t>(1, table.t() / 8)) {
      const auto leaves = analysis::worst_case_leaves(table, k);
      TreeSearchEngine engine(m, table.t());
      const auto order = drive(engine, leaves);
      EXPECT_EQ(static_cast<std::int64_t>(order.size()), k);
      EXPECT_EQ(engine.search_slots() + 1, table.xi(k))
          << "m=" << m << " t=" << table.t() << " k=" << k;
    }
  }
}

TEST(TreeSearchEngine, LeafCollisionReported) {
  TreeSearchEngine engine(2, 4);
  engine.begin();
  // Probe [0,2): collision; probe [0,1): leaf collision.
  EXPECT_EQ(engine.feedback(TreeSearchEngine::Feedback::kCollision),
            TreeSearchEngine::StepResult::kDescended);
  EXPECT_EQ(engine.current().size, 1);
  EXPECT_EQ(engine.current().lo, 0);
  EXPECT_EQ(engine.feedback(TreeSearchEngine::Feedback::kCollision),
            TreeSearchEngine::StepResult::kLeafCollision);
  // The leaf was popped; the search resumes at leaf 1.
  EXPECT_EQ(engine.current().lo, 1);
  EXPECT_EQ(engine.resolved_up_to(), 1);
}

TEST(TreeSearchEngine, ResolvedUpToAdvancesLeftToRight) {
  TreeSearchEngine engine(2, 8);
  engine.begin();
  EXPECT_EQ(engine.resolved_up_to(), 0);
  engine.feedback(TreeSearchEngine::Feedback::kSilence);  // [0,4) empty
  EXPECT_EQ(engine.resolved_up_to(), 4);
  engine.feedback(TreeSearchEngine::Feedback::kCollision);  // [4,8) splits
  EXPECT_EQ(engine.resolved_up_to(), 4);
  engine.feedback(TreeSearchEngine::Feedback::kSuccess);  // [4,6) done
  EXPECT_EQ(engine.resolved_up_to(), 6);
  engine.feedback(TreeSearchEngine::Feedback::kSuccess);  // [6,8) done
  EXPECT_TRUE(engine.done());
  EXPECT_EQ(engine.resolved_up_to(), 8);
}

TEST(TreeSearchEngine, ReplicasStayInLockstep) {
  // Two replicas fed the same feedback sequence agree on digest after
  // every step, and diverge immediately if one misses a step.
  util::Rng rng(99);
  TreeSearchEngine a(4, 64);
  TreeSearchEngine b(4, 64);
  a.begin();
  b.begin();
  while (a.active()) {
    EXPECT_EQ(a.digest(), b.digest());
    const auto interval = a.current();
    TreeSearchEngine::Feedback fb;
    if (interval.size > 1 && rng.bernoulli(0.4)) {
      fb = TreeSearchEngine::Feedback::kCollision;
    } else if (rng.bernoulli(0.5)) {
      fb = TreeSearchEngine::Feedback::kSilence;
    } else {
      fb = TreeSearchEngine::Feedback::kSuccess;
    }
    a.feedback(fb);
    b.feedback(fb);
  }
  EXPECT_EQ(a.digest(), b.digest());
  EXPECT_TRUE(b.done());
}

struct ScriptedFold {
  std::uint64_t fold = 0xCBF29CE484222325ULL;
  int leaf_collisions = 0;
  int handoffs = 0;
  std::int64_t inferred_skips = 0;
};

/// Folds digest() after every step of twelve seeded scripted searches on
/// an m-ary tree of m^3 leaves. The first leaf probe of each search
/// collides, and every leaf collision is answered with a requeue (the STs
/// noise retry). A second replica takes its own path, is copy-assigned from
/// the first mid-search (as the epoch compiler's hand-off does), and then
/// follows it in lock-step.
ScriptedFold scripted_digest_fold(int m, bool infer) {
  using Feedback = TreeSearchEngine::Feedback;
  ScriptedFold out;
  const std::int64_t leaves = std::int64_t{m} * m * m;
  TreeSearchEngine engine(m, leaves, infer);
  TreeSearchEngine replica(m, leaves, infer);
  util::Rng rng(static_cast<std::uint64_t>(100 + 2 * m + (infer ? 1 : 0)));
  const auto fold = [&out](std::uint64_t v) {
    out.fold = (out.fold ^ v) * 0x100000001B3ULL;
  };
  const auto script = [&rng](TreeSearchEngine::Interval probed) {
    if (probed.size > 1 ? rng.bernoulli(0.55) : rng.bernoulli(0.2)) {
      return Feedback::kCollision;
    }
    return rng.bernoulli(0.7) ? Feedback::kSilence : Feedback::kSuccess;
  };
  for (int search = 0; search < 12; ++search) {
    engine.begin();
    fold(engine.digest());
    if (replica.done()) {
      replica.begin();  // its own search, overwritten at the hand-off
    }
    bool synced = false;
    bool leaf_collided = false;
    for (int step = 0; engine.active(); ++step) {
      if (!synced && replica.active()) {
        const auto own = replica.feedback(script(replica.current()));
        if (own == TreeSearchEngine::StepResult::kLeafCollision) {
          replica.abort();
        }
      }
      if (!synced && step == 3) {
        replica = engine;
        synced = true;
        ++out.handoffs;
      }
      const auto probed = engine.current();
      const Feedback fb = probed.size == 1 && !leaf_collided
                              ? Feedback::kCollision
                              : script(probed);
      const auto result = engine.feedback(fb);
      if (synced) {
        replica.feedback(fb);
      }
      if (result == TreeSearchEngine::StepResult::kLeafCollision) {
        ++out.leaf_collisions;
        leaf_collided = true;
        engine.requeue(probed);
        if (synced) {
          replica.requeue(probed);
        }
      }
      fold(engine.digest());
      if (synced) {
        EXPECT_EQ(replica.digest(), engine.digest());
      }
    }
    fold(static_cast<std::uint64_t>(engine.search_slots()));
    out.inferred_skips += engine.inferred_skips();
  }
  return out;
}

TEST(TreeSearchEngine, DigestIsPinnedOverScriptedSearches) {
  // digest() feeds protocol_digest(), whose values are pinned across the
  // suite; the sibling-group bookkeeping behind it must never move them.
  struct Pin {
    int m;
    bool infer;
    std::uint64_t fold;
  };
  const Pin pins[] = {
      {2, false, 0xD594D2E9478E3C2FULL}, {2, true, 0xCC4763F29D1F413DULL},
      {3, false, 0xE1F4C6F4937CA9A8ULL}, {3, true, 0x4954014EB51922E4ULL},
      {4, false, 0xF3BEA7662B877774ULL}, {4, true, 0xEC38F67F09476AD1ULL},
  };
  for (const Pin& pin : pins) {
    const ScriptedFold run = scripted_digest_fold(pin.m, pin.infer);
    EXPECT_EQ(run.fold, pin.fold) << "m=" << pin.m << " infer=" << pin.infer
                                  << " got 0x" << std::hex << run.fold;
    // Non-vacuity: every path the pin is meant to cover was taken.
    EXPECT_GT(run.leaf_collisions, 0) << "m=" << pin.m << " infer=" << pin.infer;
    EXPECT_GT(run.handoffs, 0) << "m=" << pin.m << " infer=" << pin.infer;
    EXPECT_EQ(run.inferred_skips > 0, pin.infer) << "m=" << pin.m;
  }
}

TEST(TreeSearchEngine, ContractsOnMisuse) {
  TreeSearchEngine engine(2, 8);
  EXPECT_THROW(engine.current(), util::ContractViolation);
  EXPECT_THROW(engine.feedback(TreeSearchEngine::Feedback::kSilence),
               util::ContractViolation);
  engine.begin();
  EXPECT_THROW(engine.begin(), util::ContractViolation);
  EXPECT_THROW(TreeSearchEngine(2, 6), util::ContractViolation);
  EXPECT_THROW(TreeSearchEngine(1, 1), util::ContractViolation);
}

}  // namespace
}  // namespace hrtdm::core
