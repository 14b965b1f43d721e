// Self-stabilization harness (docs/FAULTS.md).
//
// Petig et al. (arXiv:1308.6475) define self-stabilization for a MAC
// protocol as convergence to legal executions from *arbitrary* initial
// state, not merely recovery from injected faults. This harness puts
// CSMA/DDCR to that test: every station starts from a randomly corrupted
// joint state — a fabricated observation history that leaves its tree
// engines, mode, reft/compressed-time references and watchdog streaks in
// arbitrary reachable positions, plus a garbage-filled EDF queue — and the
// network must reconverge (all stations synced, all protocol digests
// equal, all queues drained) within a stated bound of channel
// observations.
//
// Convergence is *checked*, not just simulated: after the measured
// convergence point a fresh verification workload runs and the recorded
// clean suffix must pass the full differential conformance check
// (check::ConformanceComparator with ConformanceInput::clean_suffix_begin)
// — the dual of the campaign harness's clean-prefix judging.
//
// The scramble streams derive from axis_seed(seed, CampaignAxis::kScramble)
// so they cannot perturb any pinned campaign sequence.
#pragma once

#include <cstdint>

#include "core/ddcr_config.hpp"
#include "core/ddcr_network.hpp"
#include "fault/campaign.hpp"
#include "net/phy.hpp"
#include "util/simtime.hpp"

namespace hrtdm::fault {

struct StabilizationOptions {
  int stations = 4;
  std::uint64_t seed = 1;

  /// Base PHY/protocol parameters; ddcr must be rejoin-capable.
  net::PhyConfig phy = small_rejoinable_options().phy;
  core::DdcrConfig ddcr = small_rejoinable_options().ddcr;

  /// Scramble strength: per station, up to this many fabricated channel
  /// observations are replayed into the state machine (driving it to an
  /// arbitrary reachable protocol state) ...
  int max_scramble_observations = 24;
  /// ... and up to this many garbage messages (random deadlines up to 2x
  /// the scheduling horizon) are loaded into its EDF queue.
  int max_garbage_messages = 4;

  /// Recovery bounds, as in the campaign harness: forced z-way
  /// reconvergence bursts inside an overall slot budget.
  int max_recovery_rounds = 12;
  std::int64_t recovery_slots_cap = 400'000;
  util::Duration arrival_spacing = util::Duration::microseconds(3);
  util::Duration relative_deadline = util::Duration::microseconds(8);

  /// Post-convergence verification workload (per station) judged under the
  /// clean-suffix conformance check.
  int verify_messages_per_station = 6;
  bool conformance_check = true;
};

struct StabilizationResult {
  bool reconverged = false;  ///< synced + digests agree + drained at end
  /// Observation index from which consistency held for good (0 = the
  /// scramble happened to be consistent from the first slot).
  std::int64_t convergence_observations = 0;
  /// The same, in frames (one frame = the scheduling horizon cF of slots).
  std::int64_t convergence_frames = 0;
  /// The stated bound (stabilization_bound_observations) and the verdict.
  std::int64_t bound_observations = 0;
  bool within_bound = false;
  int recovery_rounds_used = 0;
  std::int64_t scrambled_observations = 0;  ///< fabricated obs replayed
  std::int64_t garbage_messages = 0;        ///< EDF queue corruption size
  std::int64_t desyncs_detected = 0;
  std::int64_t quarantines = 0;
  std::int64_t rejoins = 0;
  bool safety_ok = false;
  std::int64_t safety_violations = 0;
  /// Clean-suffix conformance over the verification phase.
  bool suffix_checked = false;
  bool suffix_ok = true;
  core::ConformanceReport conformance;

  bool passed() const {
    return reconverged && safety_ok && within_bound &&
           (!suffix_checked || suffix_ok);
  }
};

/// The stated convergence bound, in channel observations, derived from the
/// configuration: worst-case garbage drain plus the forced reconvergence
/// rounds, each costing at most one full epoch (collision + complete TTs +
/// z STs tie-breaks + z transmissions) plus a quiet-period rejoin. It is
/// deliberately generous — an *empirical contract* with analytic structure,
/// not a proof — and the soak asserts every observed convergence stays
/// under it.
std::int64_t stabilization_bound_observations(
    const StabilizationOptions& options);

/// Runs one seeded scrambled-start experiment. Deterministic per options.
StabilizationResult run_stabilization(const StabilizationOptions& options);

}  // namespace hrtdm::fault
