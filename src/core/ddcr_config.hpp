// Configuration of the CSMA/DDCR protocol instance.
#pragma once

#include <cstdint>
#include <vector>

#include "util/simtime.hpp"

namespace hrtdm::core {

using util::Duration;

/// What happens when a time tree search completes (section 3.2 leaves the
/// outer loop informally specified; DESIGN.md decision 4.8).
enum class EpochMode {
  /// After a TTs with out = true the post-search à-la-CSMA-CD attempt is
  /// made and, absent a collision, the protocol returns to plain CSMA-CD
  /// until the next collision ("channel sharing works à la CSMA-CD whenever
  /// there is no unresolved collision pending"). After out = false with
  /// theta = 0 the epoch also closes.
  kCsmaCdFallback,
  /// The literal pseudocode loop: TTs runs perpetually, separated by single
  /// à-la-CSMA-CD attempt slots; out = false applies compressed time.
  kPerpetual,
};

struct DdcrConfig {
  // Time tree (TTs): F leaves of deadline-equivalence width c; cF is the
  // scheduling horizon.
  int m_time = 4;
  std::int64_t F = 64;
  Duration class_width_c = Duration::microseconds(100);  ///< constant c
  Duration alpha = Duration::microseconds(200);          ///< entry margin

  /// Compressed-time increment theta(c) = theta_factor * c applied when a
  /// time tree search ends without any transmission; 0 disables the mode.
  double theta_factor = 1.0;

  // Static tree (STs): q leaves; the set q' of allocated indices is
  // partitioned across the z sources (nu_i = static_indices[i].size()).
  int m_static = 4;
  std::int64_t q = 64;
  std::vector<std::vector<std::int64_t>> static_indices;

  EpochMode epoch_mode = EpochMode::kCsmaCdFallback;

  /// Enables the classic last-child inference in both tree searches: when
  /// the first m-1 children of a collided node are silent, the last child
  /// is descended into without a probe. Off by default — the paper's
  /// Eq. 1 analysis excludes it, so xi(k, t) remains the exact bound only
  /// with the flag off. Sound for static trees; for time trees a collider
  /// beyond the scheduling horizon can make the inference descend into an
  /// empty subtree (consistent across replicas, just extra silent slots).
  bool infer_last_child = false;

  /// When set, a station silently sheds queue-head messages whose absolute
  /// deadline has already passed instead of transmitting them late. HRTDM
  /// proper never sheds (the FCs guarantee no message IS late); the option
  /// models overloaded deployments where a late frame has no value. The
  /// decision is local, so replica consistency is unaffected.
  bool drop_late_messages = false;

  /// Granularity of the wired-OR arbitration key (ATM / 802.1Q mode).
  /// Zero: the key is the exact absolute deadline in nanoseconds (ideal
  /// EDF arbitration). Positive: deadlines are quantised to this quantum
  /// before keying — modelling section 5's suggestion to carry deadlines
  /// in the standard 802.1p priority field, whose 3 bits force coarse
  /// classes. Ties inside a quantum fall back to station order.
  Duration arb_priority_quantum = Duration::nanoseconds(0);

  /// Divergence watchdog (docs/FAULTS.md): on a protocol-impossible
  /// observation — a success whose sender's deadline class lies outside the
  /// subtree under probe, or an STs success from a source owning no static
  /// index in the probed interval — the station concludes its own replica
  /// has silently diverged (e.g. after a receiver-local CRC error) and, when
  /// the configuration supports the quiet-period certificate, self-
  /// quarantines through reset_for_rejoin() instead of corrupting the
  /// distributed state further. Detection is exact: on consistent replicas
  /// these observations cannot occur, so the watchdog never fires in
  /// fault-free operation. Counters: desyncs_detected / quarantines.
  bool enable_divergence_watchdog = true;

  /// Companion watchdog rule for the static search: static indices are
  /// unique per source, so consecutive leaf-collision retries on the same
  /// lone static leaf can only come from repeated channel noise (vanishing
  /// probability) or from diverged replicas contending out of turn — which
  /// is unbounded and would otherwise livelock the search. After this many
  /// consecutive retries the station concludes divergence (note_desync).
  /// 0 disables the rule. Only consulted when enable_divergence_watchdog.
  int sts_retry_desync_threshold = 6;

  /// Caps consecutive empty time tree searches within one epoch (fallback
  /// mode only; 0 = unbounded, the paper-literal behaviour). When the cap
  /// closes an epoch the compressed reference time is carried into the
  /// next epoch, so compression progress is not lost. A positive cap
  /// bounds the in-epoch silence streak, which is what makes quiet-period
  /// crash recovery (DdcrStation::reset_for_rejoin) sound under
  /// compressed time.
  int max_empty_tts = 0;

  Duration theta() const;

  /// True when the quiet-period (re)join certificate is sound under this
  /// configuration: fallback epoch mode with bounded in-epoch silence
  /// streaks (theta = 0, or the empty-TTs chain capped by max_empty_tts).
  /// Crash recovery, the divergence watchdog's quarantine, and fault
  /// campaigns all require this.
  bool supports_quiet_rejoin() const;

  /// Throws ContractViolation with an actionable message when
  /// supports_quiet_rejoin() is false. Called at network construction when
  /// a run requires rejoin capability (DdcrRunOptions::require_rejoinable,
  /// fault plans with crashes), so an impossible-to-rejoin configuration is
  /// rejected up front instead of livelocking a station in resync.
  void validate_rejoinable() const;

  /// Length of the silence streak that certifies "no epoch in progress"
  /// to a (re)joining station: longer than any silent run a live epoch
  /// can produce (pending-DFS stacks of both trees + the capped empty-TTs
  /// chain), plus margin. Requires a configuration under which that run
  /// is bounded — fallback mode with theta = 0 or max_empty_tts > 0.
  std::int64_t resync_silence_threshold() const;

  /// The scheduling horizon c * F.
  Duration horizon() const { return class_width_c * F; }

  /// Validates tree shapes, the class arithmetic (alpha + (F + 1) * c must
  /// fit in int64 ns) and the static-index partition for z sources. Each
  /// ContractViolation names the field, its value and the fix.
  void validate(int z) const;

  /// Allocates nu_i indices per source, interleaved across [0, q) so that
  /// concurrently active sources spread over distinct subtrees (which is
  /// what makes the static search cheap in the common case).
  static std::vector<std::vector<std::int64_t>> spread_indices(
      int z, std::int64_t q, const std::vector<std::int64_t>& nu);

  /// Convenience: one index per source.
  static std::vector<std::vector<std::int64_t>> one_index_per_source(
      int z, std::int64_t q);

  /// Picks the deadline-equivalence class width c so that the scheduling
  /// horizon cF covers the largest relative deadline, scaled by
  /// margin_percent (200 = horizon twice the largest deadline).
  ///
  /// Dimensioning note: the feasibility conditions of section 4.3 assume
  /// every pending message can enter the current time tree search; a
  /// message whose deadline lies beyond the horizon waits for compressed
  /// time (or for physical time) to pull it in — latency the analysis
  /// does not account for. Configure cF above the deadline range (with
  /// headroom for the reft drift across an epoch), as an end user applying
  /// the paper's FCs would.
  static Duration class_width_for(Duration max_deadline, std::int64_t F,
                                  int margin_percent = 200);
};

}  // namespace hrtdm::core
