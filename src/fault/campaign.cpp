#include "fault/campaign.hpp"

#include <memory>
#include <vector>

#include "check/conformance.hpp"
#include "core/metrics.hpp"
#include "obs/registry.hpp"
#include "traffic/message.hpp"
#include "util/check.hpp"
#include "util/rng.hpp"
#include "util/thread_pool.hpp"

namespace hrtdm::fault {

using core::DdcrStation;
using util::Duration;
using util::SimTime;

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

void ReconvergenceProbe::on_slot(const net::SlotRecord& record) {
  (void)record;
  const std::int64_t index = observations_++;
  if (!consistent_()) {
    last_divergent_ = index;
  }
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

CampaignOptions::CampaignOptions() {
  phy.slot_x = Duration::nanoseconds(100);
  phy.psi_bps = 1e9;
  phy.overhead_bits = 0;
  ddcr.m_time = 2;
  ddcr.F = 16;
  ddcr.m_static = 2;
  ddcr.q = 16;
  ddcr.class_width_c = Duration::microseconds(1);
  ddcr.alpha = Duration::nanoseconds(0);
  ddcr.max_empty_tts = 2;  // bounded silence streaks: rejoin-capable
}

CampaignResult run_campaign(const CampaignOptions& options) {
  HRTDM_EXPECT(options.stations >= 2,
               "a fault campaign needs >= 2 stations to contend");
  HRTDM_EXPECT(options.messages_per_station >= 1, "campaign needs traffic");
  core::DdcrConfig config = options.ddcr;
  if (config.static_indices.empty()) {
    config.static_indices =
        core::DdcrConfig::one_index_per_source(options.stations, config.q);
  }
  config.validate(options.stations);
  // Crash directives and watchdog quarantines re-enter through the
  // quiet-period certificate; reject configurations that livelock it.
  config.validate_rejoinable();
  HRTDM_EXPECT(config.alpha + options.relative_deadline < config.horizon(),
               "campaign deadlines must fit the scheduling horizon cF");

  sim::Simulator simulator;
  net::BroadcastChannel channel(simulator, options.phy,
                                net::CollisionMode::kDestructive);
  // The stations view `config`, declared above them so it outlives them.
  std::vector<std::unique_ptr<DdcrStation>> stations;
  for (int s = 0; s < options.stations; ++s) {
    stations.push_back(std::make_unique<DdcrStation>(s, config));
    channel.attach(*stations.back());
  }

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
  FaultInjector injector(plan, churn, drift, mix.next());
  injector.set_crash_hook([&stations](int id) {
    DdcrStation* station = stations[static_cast<std::size_t>(id)].get();
    if (!station->online()) {
      return;  // a powered-off station cannot crash
    }
    station->reset_for_rejoin();
  });
  injector.set_churn_hook([&stations](int id, ChurnKind kind) {
    DdcrStation* station = stations[static_cast<std::size_t>(id)].get();
    if (kind == ChurnKind::kLeave) {
      station->go_offline();
    } else {
      station->bring_online();
    }
  });
  // The resync rule: a drifted station's clock is re-anchored while it sits
  // in a listen-only state (watchdog quarantine, crash recovery or churn
  // rejoin).
  injector.set_sync_probe([&stations](int id) {
    return !stations[static_cast<std::size_t>(id)]->synced();
  });
  injector.install(channel);

  core::MetricsCollector metrics;
  SafetyChecker safety;
  auto consistent = [&stations] {
    bool have_reference = false;
    std::uint64_t reference = 0;
    for (const auto& station : stations) {
      if (!station->synced()) {
        return false;  // a quarantined/crashed replica is not converged
      }
      const std::uint64_t digest = station->protocol_digest();
      if (!have_reference) {
        reference = digest;
        have_reference = true;
      } else if (digest != reference) {
        return false;
      }
    }
    return true;
  };
  ReconvergenceProbe probe(consistent);
  channel.add_observer(metrics);
  channel.add_observer(safety);
  channel.add_observer(probe);
  check::ConformanceRecorder recorder;
  std::vector<traffic::Message> injected;
  if (options.conformance_check) {
    channel.add_observer(recorder);
  }

  // Phase 1 traffic: shared arrival instants force z-way collisions, and a
  // shared relative deadline forces same-class ties, so every burst
  // exercises TTs + STs while the fault plan fires.
  std::int64_t generated = 0;
  for (int k = 0; k < options.messages_per_station; ++k) {
    const SimTime arrival = SimTime() + options.arrival_spacing * (k + 1);
    for (int s = 0; s < options.stations; ++s) {
      traffic::Message msg;
      msg.uid = 1'000'000 + static_cast<std::int64_t>(s) * 10'000 + k;
      msg.class_id = s;
      msg.source = s;
      msg.l_bits = 100;
      msg.arrival = arrival;
      msg.absolute_deadline = arrival + options.relative_deadline;
      DdcrStation* station = stations[static_cast<std::size_t>(s)].get();
      simulator.schedule_at(
          arrival, [station, msg] { station->enqueue(msg); }, "arrival");
      if (options.conformance_check) {
        injected.push_back(msg);
      }
      ++generated;
    }
  }

  auto queued = [&stations] {
    std::int64_t total = 0;
    for (const auto& station : stations) {
      total += static_cast<std::int64_t>(station->queue().size());
    }
    return total;
  };
  auto all_synced = [&stations] {
    for (const auto& station : stations) {
      if (!station->synced()) {
        return false;
      }
    }
    return true;
  };

  channel.start();
  const Duration step = options.phy.slot_x * 64;
  const SimTime hard_cap =
      SimTime() + options.phy.slot_x * options.recovery_slots_cap;

  // Phase 1: run the fault window out (silence slots also advance the
  // observation index, so the plan always exhausts). A drift-only campaign
  // has no scripted window at all — drift is persistent, not scheduled —
  // so the phase must also cover the arrival span, or nothing would ever
  // force the clock past t = 0 (phase 2 samples queued() before any
  // arrival event has enqueued a message).
  const SimTime last_arrival =
      SimTime() + options.arrival_spacing * options.messages_per_station;
  sim::run_chunked(simulator, step, hard_cap,
                   [&injector, &channel, &simulator, last_arrival] {
                     return !injector.exhausted(
                                channel.observations_delivered()) ||
                            simulator.now() < last_arrival;
                   });

  // Phase 2: self-heal — drain the backlog and give crashed or quarantined
  // stations the quiet streak their rejoin certificate needs.
  sim::run_chunked(simulator, step, hard_cap, [&queued, &all_synced] {
    return queued() > 0 || !all_synced();
  });

  // Phase 3: reconvergence epochs. Residual divergence (a stale reft or a
  // carried compressed-time reference) is protocol-legal until the next
  // epoch resets it; force epochs — a z-way burst of in-horizon messages —
  // until every replica digest agrees. A round can itself trigger a
  // watchdog quarantine on a replica whose stale divergence only now
  // surfaces; the following round picks the rejoined station up.
  int rounds = 0;
  std::int64_t round_uid = 2'000'000;
  while (simulator.now() < hard_cap &&
         !(queued() == 0 && all_synced() && consistent())) {
    if (rounds >= options.max_recovery_rounds) {
      break;
    }
    ++rounds;
    const SimTime burst_at = simulator.now() + options.phy.slot_x * 2;
    for (int s = 0; s < options.stations; ++s) {
      traffic::Message msg;
      msg.uid = round_uid++;
      msg.class_id = s;
      msg.source = s;
      msg.l_bits = 100;
      msg.arrival = burst_at;
      msg.absolute_deadline = burst_at + options.relative_deadline;
      DdcrStation* station = stations[static_cast<std::size_t>(s)].get();
      simulator.schedule_at(
          burst_at, [station, msg] { station->enqueue(msg); }, "arrival");
      if (options.conformance_check) {
        injected.push_back(msg);
      }
      ++generated;
    }
    // Always step at least once: the burst arrivals lie in the future, so
    // an entry check on queued() would see empty queues and skip the round.
    simulator.run_until(simulator.now() + step);
    sim::run_chunked(simulator, step, hard_cap, [&queued, &all_synced] {
      return queued() > 0 || !all_synced();
    });
  }
  channel.stop();

  CampaignResult result;
  result.safety_ok = safety.ok();
  result.safety_violations = safety.violations();
  result.drained = queued() == 0;
  result.reconverged = result.drained && all_synced() && consistent();
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
  for (const auto& station : stations) {
    result.desyncs_detected += station->counters().desyncs_detected;
    result.quarantines += station->counters().quarantines;
    result.rejoins += station->counters().rejoins;
  }
  result.generated = generated;
  result.delivered = static_cast<std::int64_t>(metrics.log().size());
  result.misses = metrics.summarize().misses;
  if (options.conformance_check) {
    // Full differential checking is only sound while no fault directive has
    // acted: clip the recorded stream at the first fault. The prefix saw no
    // noise, no crashes and no receive lies, so the placement-model bounds
    // and the EDF sweep apply without exemption.
    check::ConformanceInput input;
    input.messages = injected;
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
