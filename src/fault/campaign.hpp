// Randomized fault-campaign harness (docs/FAULTS.md).
//
// One campaign = one seeded run of a full CSMA/DDCR network (a
// core::DdcrTestbed) under a random mixture of crash, symmetric-noise and
// asymmetric receive faults, followed by a self-healing phase, checking
// the two invariants that must survive *any* fault pattern:
//
//  safety        — channel-level mutual exclusion: delivered transmissions
//                  never overlap in time (verified from the ground-truth
//                  SlotRecords, which faults cannot rewrite);
//  reconvergence — within a bounded number of observations after the last
//                  injected fault, every station is synced again, all
//                  protocol digests agree, and every queued message drains.
//
// Shared by tests/test_fault_campaign.cpp (50+ seeded campaigns) and the
// asymmetric-fault-rate sweep in bench_fault_tolerance. The checkers, the
// burst injection and the self-heal below are also the stabilization
// harness's (fault/stabilization.hpp).
#pragma once

#include <cstdint>
#include <vector>

#include "core/ddcr_network.hpp"
#include "fault/fault_injector.hpp"
#include "net/channel.hpp"
#include "traffic/message.hpp"

namespace hrtdm::fault {

/// The small, fast, rejoin-capable instance the fault harnesses, the
/// watchdog demos and the hostile soak run on: 100 ns slots at 1 Gbit/s
/// with no framing overhead, binary trees over F = q = 16, c = 1 us,
/// alpha = 0, and bounded silence streaks (max_empty_tts = 2), so the
/// quiet-period rejoin certificate is sound.
core::DdcrRunOptions small_rejoinable_options();

/// Payload of every harness message (bursts, scramble frames, garbage).
inline constexpr std::int64_t kHarnessMessageBits = 100;
/// Chunk size of every harness phase, in slots.
inline constexpr std::int64_t kHarnessChunkSlots = 64;

/// Ground-truth mutual-exclusion checker: slot records must be
/// time-ordered and non-overlapping, and every success must carry exactly
/// one transmitter's frame.
class SafetyChecker final : public net::ChannelObserver {
 public:
  void on_slot(const net::SlotRecord& record) override;

  bool ok() const { return violations_ == 0; }
  std::int64_t violations() const { return violations_; }

 private:
  std::int64_t violations_ = 0;
  util::SimTime last_end_;
  bool any_ = false;
};

/// The harnesses' reconvergence predicate: every station synced (none
/// quarantined, crashed or offline) and every protocol digest equal.
bool consistent(const core::DdcrTestbed& bed);

/// Per-observation reconvergence probe: evaluates consistent(bed) after
/// every delivery and remembers the last observation index at which it
/// was false.
class ReconvergenceProbe final : public net::ChannelObserver {
 public:
  explicit ReconvergenceProbe(const core::DdcrTestbed& bed) : bed_(bed) {}

  void on_slot(const net::SlotRecord& record) override;

  std::int64_t observations() const { return observations_; }
  /// -1 when the predicate held on every observation.
  std::int64_t last_divergent_observation() const { return last_divergent_; }

 private:
  const core::DdcrTestbed& bed_;
  std::int64_t observations_ = 0;
  std::int64_t last_divergent_ = -1;
};

/// Injects one message per station, all arriving at `at` with deadline
/// `at + relative_deadline`: station s sends uid `first_uid + s *
/// uid_stride` in class s. Shared arrival instants force a z-way collision
/// and shared deadlines same-class ties, so every burst exercises TTs and
/// STs. Each message is also appended to `injected`.
void inject_burst(core::DdcrTestbed& bed, util::SimTime at,
                  util::Duration relative_deadline, std::int64_t first_uid,
                  std::int64_t uid_stride,
                  std::vector<traffic::Message>& injected);

/// The self-heal both harnesses end with, in 64-slot chunks up to `cap`.
/// First it drains the backlog and gives crashed or quarantined stations
/// the quiet streak their rejoin certificate needs. Then it forces up to
/// `max_rounds` reconvergence bursts until every queue is empty and
/// consistent(bed) holds. Returns the rounds used; the burst messages are
/// appended to `injected`.
int self_heal(core::DdcrTestbed& bed, util::SimTime cap, int max_rounds,
              util::Duration relative_deadline,
              std::vector<traffic::Message>& injected);

/// The extended fault axes derive their RNG streams by channel_seed()-style
/// SplitMix64 splitting: axis k's seed is the (k+1)-th draw of a SplitMix64
/// chain over a base decorrelated from the campaign's legacy stream
/// (`seed ^ 0xFA17`, which feeds the fault-plan shape and the injector, in
/// that order, exactly as before). Enabling a new axis therefore never
/// perturbs the random sequence of an existing pinned campaign.
enum class CampaignAxis : int {
  kChurn = 0,
  kDrift = 1,
  kScramble = 2,  ///< stabilization harness state corruption
};

std::uint64_t axis_seed(std::uint64_t base_seed, CampaignAxis axis);

struct CampaignOptions {
  int stations = 4;
  std::uint64_t seed = 1;

  /// Base PHY/protocol parameters; ddcr must be rejoin-capable (checked at
  /// construction).
  net::PhyConfig phy = small_rejoinable_options().phy;
  core::DdcrConfig ddcr = small_rejoinable_options().ddcr;

  /// Phase-1 traffic: every station enqueues `messages_per_station`
  /// messages at shared arrival instants (worst case: z-way collisions and
  /// same-class ties on every burst).
  int messages_per_station = 12;
  util::Duration arrival_spacing = util::Duration::microseconds(3);
  util::Duration relative_deadline = util::Duration::microseconds(8);

  /// Fault mixture, scattered over the first `fault_window_observations`
  /// channel deliveries.
  std::int64_t fault_window_observations = 300;
  int crashes = 1;
  int symmetric_bursts = 1;
  double symmetric_prob = 0.3;
  int asymmetric_bursts = 2;
  double asymmetric_prob = 0.6;

  /// Churn axis (0 = disabled): scripted join/leave membership events over
  /// the fault window. Poisson background churn by default; the
  /// adversarial variant is one mass departure of every station but one at
  /// a third of the window, all rejoining `churn_rejoin_gap` observations
  /// later. Seeded from axis_seed(seed, CampaignAxis::kChurn).
  int churn_events = 0;
  bool churn_adversarial = false;
  std::int64_t churn_rejoin_gap = 96;

  /// Drift axis (0 = disabled): this many stations get drifting clocks
  /// (fault::DriftPlan::uniform) with the given phase bound and |rate|.
  /// Seeded from axis_seed(seed, CampaignAxis::kDrift).
  int drifted_stations = 0;
  util::Duration drift_phase_bound;
  double drift_rate_ppm = 0.0;

  /// Self-healing bounds: up to `max_recovery_rounds` forced reconvergence
  /// epochs inside an overall budget of `recovery_slots_cap` slot times.
  int max_recovery_rounds = 8;
  std::int64_t recovery_slots_cap = 400'000;

  /// Run the differential conformance check (src/check) over the clean
  /// prefix of the campaign — the observations strictly before the first
  /// injected fault, where the placement-model bounds and the EDF oracle
  /// comparison are sound. The faulted suffix remains covered by the
  /// campaign's own safety / reconvergence invariants.
  bool conformance_check = false;
};

struct CampaignResult {
  bool safety_ok = false;
  std::int64_t safety_violations = 0;
  bool drained = false;      ///< every queue empty at the end
  bool reconverged = false;  ///< all synced + digests agree at the end
  std::int64_t last_fault_observation = -1;
  /// Observations from the last injected fault until consistency held for
  /// good (0 when faults never broke it).
  std::int64_t reconvergence_observations = 0;
  int recovery_rounds_used = 0;
  FaultInjector::Stats faults;
  std::int64_t desyncs_detected = 0;
  std::int64_t quarantines = 0;
  std::int64_t rejoins = 0;
  std::int64_t generated = 0;
  std::int64_t delivered = 0;
  std::int64_t misses = 0;
  /// Filled when CampaignOptions::conformance_check was set (the clean
  /// pre-fault prefix only).
  core::ConformanceReport conformance;

  bool passed() const {
    return safety_ok && drained && reconverged &&
           (!conformance.checked || conformance.ok);
  }
};

/// Runs one seeded campaign to completion. Deterministic per options.
CampaignResult run_campaign(const CampaignOptions& options);

/// Runs one campaign per entry of `seeds` (the base options with the seed
/// overridden) and returns the results in seed order. Campaigns are
/// independent simulations, so `threads` > 1 executes them on the
/// deterministic worker pool (util::parallel_for_index); the result vector
/// is bit-identical to the serial threads = 1 loop.
std::vector<CampaignResult> run_campaigns(
    const CampaignOptions& base, const std::vector<std::uint64_t>& seeds,
    int threads = 1);

}  // namespace hrtdm::fault
