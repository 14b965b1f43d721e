// Executes fault, churn and drift plans against a live DdcrTestbed channel.
//
// The injector sits on both channel hooks: as the SlotInterceptor it
// destroys scripted transmissions (symmetric windows), rewrites chosen
// stations' observations (asymmetric windows) and mis-samples drifted
// stations' receive paths; as a ChannelObserver it counts delivered
// observations and fires crash and churn directives at their slot boundary
// on the testbed's stations: a crash sends an online station through the
// quiet-period rejoin (a powered-off station cannot crash), a leave takes
// it offline and a join brings it back.
//
// All randomness comes from one seeded stream drawn in a deterministic
// order (symmetric draw per window per slot, then asymmetric draws in
// station-attach order), so a (plan, seed) pair reproduces bit-for-bit.
// The churn and drift axes draw nothing at run time — churn plans are
// pre-generated and drift is a deterministic clock model — so enabling
// either axis cannot perturb the fault stream of an existing pinned run.
#pragma once

#include <cstdint>

#include "fault/churn_plan.hpp"
#include "fault/drift_plan.hpp"
#include "fault/fault_plan.hpp"
#include "net/channel.hpp"
#include "sim/drift_clock.hpp"
#include "util/rng.hpp"

namespace hrtdm::core {
class DdcrTestbed;
}  // namespace hrtdm::core

namespace hrtdm::fault {

class FaultInjector final : public net::SlotInterceptor,
                            public net::ChannelObserver {
 public:
  FaultInjector(FaultPlan plan, std::uint64_t seed);
  FaultInjector(FaultPlan plan, ChurnPlan churn, DriftPlan drift,
                std::uint64_t seed);

  /// Installs this injector on the testbed's channel (interceptor +
  /// observer) — call before the channel starts; the injector must
  /// outlive the channel's last slot. Crash and churn directives act on
  /// the testbed's stations.
  void install(core::DdcrTestbed& bed);

  struct Stats {
    std::int64_t crashes_fired = 0;
    std::int64_t symmetric_corruptions = 0;
    std::int64_t asymmetric_corruptions = 0;  ///< success heard as collision
    std::int64_t asymmetric_misses = 0;       ///< slot heard as silence
    std::int64_t churn_leaves = 0;
    std::int64_t churn_joins = 0;
    std::int64_t drift_missamples = 0;  ///< success garbled by phase error
    std::int64_t drift_resyncs = 0;     ///< clock re-anchoring episodes
  };
  const Stats& stats() const { return stats_; }
  const FaultPlan& plan() const { return plan_; }
  const ChurnPlan& churn() const { return churn_; }
  const DriftPlan& drift() const { return drift_; }

  /// Last observation index at which any *scripted* directive (fault or
  /// churn) can still act. Drift has no window: it is persistent and heals
  /// through the resync rule instead of expiring.
  std::int64_t last_fault_observation() const {
    const std::int64_t f = plan_.last_fault_observation();
    const std::int64_t c = churn_.last_observation();
    return f > c ? f : c;
  }
  /// True once every scripted directive's window lies strictly in the past.
  bool exhausted(std::int64_t observation_index) const {
    return observation_index > last_fault_observation();
  }

  /// End of the provably clean prefix: the smallest observation index at
  /// which anything acted or could have acted — the scripted firsts of the
  /// fault and churn plans, and the *runtime-observed* first drift
  /// mis-sample (drift has no scripted first; before the first rewrite the
  /// stream is truthful, so the prefix is sound). -1 when nothing ever
  /// acted: the whole run is clean.
  std::int64_t clean_prefix_end() const;

  // --- net::SlotInterceptor ---
  bool corrupt_slot(std::int64_t slot_index) override;
  net::SlotObservation deliver_to(int station_id, std::int64_t slot_index,
                                  const net::SlotObservation& obs) override;

  // --- net::ChannelObserver (crash/churn firing, drift resync) ---
  void on_slot(const net::SlotRecord& record) override;

 private:
  struct DriftedStation {
    int station = 0;
    sim::DriftClock clock;
    bool resyncing = false;
  };

  FaultPlan plan_;
  ChurnPlan churn_;
  DriftPlan drift_;
  core::DdcrTestbed* bed_ = nullptr;          ///< set at install()
  obs::FlightRecorder* recorder_ = nullptr;  ///< the testbed's, at install()
  util::Rng rng_;
  std::vector<bool> crash_fired_;
  std::vector<DriftedStation> drifted_;
  util::Duration slot_x_;  ///< set at install() from the testbed's phy
  std::size_t churn_next_ = 0;
  std::int64_t observations_seen_ = 0;
  std::int64_t first_drift_effect_ = -1;
  Stats stats_;
};

}  // namespace hrtdm::fault
