#include "fault/campaign.hpp"

#include <algorithm>
#include <utility>
#include <vector>

#include "check/conformance.hpp"
#include "obs/registry.hpp"
#include "util/check.hpp"
#include "util/rng.hpp"
#include "util/thread_pool.hpp"

namespace hrtdm::fault {

using core::DdcrStation;
using util::Duration;
using util::SimTime;

core::DdcrRunOptions small_rejoinable_options() {
  core::DdcrRunOptions options;
  options.phy.slot_x = Duration::nanoseconds(100);
  options.phy.psi_bps = 1e9;
  options.phy.overhead_bits = 0;
  options.ddcr.m_time = 2;
  options.ddcr.F = 16;
  options.ddcr.m_static = 2;
  options.ddcr.q = 16;
  options.ddcr.class_width_c = Duration::microseconds(1);
  options.ddcr.alpha = Duration::nanoseconds(0);
  options.ddcr.max_empty_tts = 2;  // bounded silence streaks: rejoin-capable
  return options;
}

void SafetyChecker::on_slot(const net::SlotRecord& record) {
  if (any_ && record.start < last_end_) {
    ++violations_;  // two slots overlapped in time
  }
  if (record.kind == net::SlotKind::kSuccess) {
    if (!record.frame.has_value()) {
      ++violations_;  // a delivery with no delivered frame
    }
    if (!record.in_burst && !record.arbitration && record.contenders != 1) {
      ++violations_;  // mutual exclusion: a success needs one transmitter
    }
  }
  if (record.end < record.start) {
    ++violations_;
  }
  any_ = true;
  last_end_ = std::max(last_end_, record.end);
}

bool consistent(const core::DdcrTestbed& bed) {
  return bed.all_synced() && bed.digests_agree();
}

void ReconvergenceProbe::on_slot(const net::SlotRecord& record) {
  (void)record;
  const std::int64_t index = observations_++;
  if (!consistent(bed_)) {
    last_divergent_ = index;
  }
}

void inject_burst(core::DdcrTestbed& bed, SimTime at,
                  Duration relative_deadline, std::int64_t first_uid,
                  std::int64_t uid_stride,
                  std::vector<traffic::Message>& injected) {
  for (int s = 0; s < bed.station_count(); ++s) {
    traffic::Message msg;
    msg.uid = first_uid + static_cast<std::int64_t>(s) * uid_stride;
    msg.class_id = s;
    msg.source = s;
    msg.l_bits = kHarnessMessageBits;
    msg.arrival = at;
    msg.absolute_deadline = at + relative_deadline;
    bed.inject(s, msg);
    injected.push_back(msg);
  }
}

int self_heal(core::DdcrTestbed& bed, SimTime cap, int max_rounds,
              Duration relative_deadline,
              std::vector<traffic::Message>& injected) {
  const auto unsettled = [&bed] {
    return !bed.drained() || !bed.all_synced();
  };
  bed.run_while(kHarnessChunkSlots, cap, unsettled);

  // Residual divergence (a stale reft or a carried compressed-time
  // reference) is protocol-legal until the next epoch resets it; force
  // epochs — a z-way burst of in-horizon messages — until every replica
  // digest agrees. A round can itself trigger a watchdog quarantine on a
  // replica whose stale divergence only now surfaces; the following round
  // picks the rejoined station up.
  const Duration slot_x = bed.options().phy.slot_x;
  int rounds = 0;
  std::int64_t round_uid = 2'000'000;
  while (bed.simulator().now() < cap && !(bed.drained() && consistent(bed)) &&
         rounds < max_rounds) {
    ++rounds;
    inject_burst(bed, bed.simulator().now() + slot_x * 2, relative_deadline,
                 round_uid, 1, injected);
    round_uid += bed.station_count();
    // Always step at least once: the burst arrivals lie in the future, so
    // an entry check on the queues would see them empty and skip the round.
    bed.advance(bed.simulator().now() + slot_x * kHarnessChunkSlots);
    bed.run_while(kHarnessChunkSlots, cap, unsettled);
  }
  return rounds;
}

std::uint64_t axis_seed(std::uint64_t base_seed, CampaignAxis axis) {
  // Mirrors core::channel_seed(): one SplitMix64 chain, axis k takes the
  // (k+1)-th draw. The base constant differs from the legacy 0xFA17 mix,
  // so these streams are decorrelated from (and cannot perturb) the
  // fault-plan and injector seeds of pinned campaigns.
  util::SplitMix64 mix(base_seed ^ 0xA715'C10C'D81F'7C4AULL);
  std::uint64_t seed = mix.next();
  for (int i = 0; i < static_cast<int>(axis); ++i) {
    seed = mix.next();
  }
  return seed;
}

CampaignResult run_campaign(const CampaignOptions& options) {
  HRTDM_EXPECT(options.stations >= 2,
               "a fault campaign needs >= 2 stations to contend");
  HRTDM_EXPECT(options.messages_per_station >= 1, "campaign needs traffic");

  // Derive independent streams for the plan shape and the in-run draws.
  // The churn and drift axes take their seeds from axis_seed(), a separate
  // SplitMix64 split, so enabling them leaves this legacy sequence — and
  // with it every pinned campaign — bit-identical.
  util::SplitMix64 mix(options.seed ^ 0xFA17ULL);
  const FaultPlan plan = FaultPlan::random_mix(
      options.stations, options.fault_window_observations, options.crashes,
      options.symmetric_bursts, options.symmetric_prob,
      options.asymmetric_bursts, options.asymmetric_prob, mix.next());
  ChurnPlan churn;
  if (options.churn_events > 0) {
    churn = options.churn_adversarial
                ? ChurnPlan::adversarial_burst(
                      options.stations, options.fault_window_observations / 3,
                      options.churn_rejoin_gap, /*survivors=*/1)
                : ChurnPlan::poisson(
                      options.stations, options.fault_window_observations,
                      options.churn_events,
                      axis_seed(options.seed, CampaignAxis::kChurn));
  }
  DriftPlan drift;
  if (options.drifted_stations > 0) {
    drift = DriftPlan::uniform(options.stations, options.drifted_stations,
                               options.drift_phase_bound,
                               options.drift_rate_ppm,
                               axis_seed(options.seed, CampaignAxis::kDrift));
  }

  // Crash directives and watchdog quarantines re-enter through the
  // quiet-period certificate: the testbed rejects configurations that
  // livelock it.
  core::DdcrRunOptions run;
  run.phy = options.phy;
  run.ddcr = options.ddcr;
  run.require_rejoinable = true;
  run.churn_events = static_cast<std::int64_t>(churn.events.size());
  core::DdcrTestbed bed(options.stations, run);
  const core::DdcrConfig& config = bed.options().ddcr;
  HRTDM_EXPECT(config.alpha + options.relative_deadline < config.horizon(),
               "campaign deadlines must fit the scheduling horizon cF");

  // Installed before the checkers, so crash and churn directives have
  // acted by the time the probe judges a slot.
  FaultInjector injector(plan, churn, drift, mix.next());
  injector.install(bed);

  SafetyChecker safety;
  ReconvergenceProbe probe(bed);
  bed.channel().add_observer(safety);
  bed.channel().add_observer(probe);
  check::ConformanceRecorder recorder;
  if (options.conformance_check) {
    bed.channel().add_observer(recorder);
  }

  // Phase 1 traffic: `messages_per_station` z-way bursts.
  std::vector<traffic::Message> injected;
  for (int k = 0; k < options.messages_per_station; ++k) {
    inject_burst(bed, SimTime() + options.arrival_spacing * (k + 1),
                 options.relative_deadline, 1'000'000 + k, 10'000, injected);
  }

  const SimTime hard_cap =
      SimTime() + options.phy.slot_x * options.recovery_slots_cap;

  // Phase 1: run the fault window out (silence slots also advance the
  // observation index, so the plan always exhausts). A drift-only campaign
  // has no scripted window at all — drift is persistent, not scheduled —
  // so the phase must also cover the arrival span, or nothing would ever
  // force the clock past t = 0 (phase 2 samples the queues before any
  // arrival event has enqueued a message).
  const SimTime last_arrival =
      SimTime() + options.arrival_spacing * options.messages_per_station;
  bed.run_while(kHarnessChunkSlots, hard_cap, [&injector, &bed, last_arrival] {
    return !injector.exhausted(bed.channel().observations_delivered()) ||
           bed.simulator().now() < last_arrival;
  });

  // Phases 2 and 3: self-heal and reconvergence epochs.
  const int rounds = self_heal(bed, hard_cap, options.max_recovery_rounds,
                               options.relative_deadline, injected);
  bed.stop();

  CampaignResult result;
  result.safety_ok = safety.ok();
  result.safety_violations = safety.violations();
  result.drained = bed.drained();
  result.reconverged = result.drained && consistent(bed);
  // Scripted axes only: drift has no window (it heals via the resync rule
  // rather than expiring), so reconvergence is measured from the last
  // fault or churn directive.
  result.last_fault_observation = injector.last_fault_observation();
  const std::int64_t last_divergent = probe.last_divergent_observation();
  result.reconvergence_observations =
      last_divergent <= result.last_fault_observation
          ? 0
          : last_divergent - result.last_fault_observation;
  result.recovery_rounds_used = rounds;
  result.faults = injector.stats();
  for (int s = 0; s < bed.station_count(); ++s) {
    const DdcrStation::Counters& counters = bed.station(s).counters();
    result.desyncs_detected += counters.desyncs_detected;
    result.quarantines += counters.quarantines;
    result.rejoins += counters.rejoins;
  }
  result.generated = bed.injected();
  result.delivered = static_cast<std::int64_t>(bed.metrics().log().size());
  result.misses = bed.metrics().misses();
  if (options.conformance_check) {
    // Full differential checking is only sound while no fault directive has
    // acted: clip the recorded stream at the first fault. The prefix saw no
    // noise, no crashes and no receive lies, so the placement-model bounds
    // and the EDF sweep apply without exemption.
    check::ConformanceInput input;
    input.messages = std::move(injected);
    input.phy = options.phy;
    input.collision_mode = net::CollisionMode::kDestructive;
    input.ddcr = config;
    input.protocol_is_ddcr = true;
    // The scripted firsts of the fault and churn plans, plus the
    // runtime-observed first drift mis-sample — before that index nothing
    // rewrote or silenced any observation, so the full check is sound.
    input.clean_prefix_end = injector.clean_prefix_end();
    input.replicas_clean = true;
    result.conformance =
        check::ConformanceComparator{}.check(input, recorder);
  }
  HRTDM_COUNT("fault.campaigns");
  if (result.passed()) {
    HRTDM_COUNT("fault.campaigns_passed");
  }
  // Rejoin latency, in channel observations from the last injected fault
  // to the last divergent digest — the self-healing figure of merit.
  HRTDM_OBSERVE("fault.rejoin_latency_obs", result.reconvergence_observations);
  HRTDM_OBSERVE("fault.recovery_rounds", result.recovery_rounds_used);
  return result;
}

std::vector<CampaignResult> run_campaigns(
    const CampaignOptions& base, const std::vector<std::uint64_t>& seeds,
    int threads) {
  std::vector<CampaignResult> results(seeds.size());
  util::parallel_for_index(
      threads, static_cast<std::int64_t>(seeds.size()),
      [&](std::int64_t i) {
        CampaignOptions options = base;
        options.seed = seeds[static_cast<std::size_t>(i)];
        results[static_cast<std::size_t>(i)] = run_campaign(options);
      });
  return results;
}

}  // namespace hrtdm::fault
