#include "fault/stabilization.hpp"

#include <algorithm>
#include <vector>

#include "analysis/xi.hpp"
#include "check/conformance.hpp"
#include "net/channel.hpp"
#include "obs/registry.hpp"
#include "traffic/message.hpp"
#include "util/check.hpp"
#include "util/math.hpp"
#include "util/rng.hpp"

namespace hrtdm::fault {

using core::DdcrStation;
using util::Duration;
using util::SimTime;

std::int64_t stabilization_bound_observations(
    const StabilizationOptions& options) {
  core::DdcrConfig config = options.ddcr;
  const std::int64_t z = options.stations;
  const Duration x = options.phy.slot_x;
  HRTDM_EXPECT(z >= 2 && x.ns() > 0, "bound needs stations and a slot time");

  // Worst-case cost of one complete collision-resolution epoch with all z
  // stations active: the triggering collision, a full time-tree search
  // (xi non-transmission slots, P1 worst case, plus the resolving slot),
  // a full static-tree tie-break per station, and z transmissions.
  const std::int64_t n_time = util::ilog_floor(config.m_time, config.F);
  const std::int64_t n_static = util::ilog_floor(config.m_static, config.q);
  const std::int64_t xi_time =
      analysis::XiExactTable(config.m_time, static_cast<int>(n_time))
          .xi(std::min<std::int64_t>(z, config.F));
  const std::int64_t xi_static =
      analysis::XiExactTable(config.m_static, static_cast<int>(n_static))
          .xi(std::min<std::int64_t>(z, config.q));
  const std::int64_t tx_slots = std::max<std::int64_t>(
      1, options.phy.tx_time(kHarnessMessageBits).ceil_div(x));
  const std::int64_t per_epoch =
      1 + (xi_time + 1) + z * (xi_static + 1) + z * tx_slots;

  const std::int64_t rejoin_quiet = config.resync_silence_threshold();
  const std::int64_t frame_slots = config.horizon().ceil_div(x);
  const std::int64_t spacing_slots = options.arrival_spacing.ceil_div(x);
  const std::int64_t garbage =
      z * static_cast<std::int64_t>(options.max_garbage_messages);

  // The stated bound, in channel observations from the (corrupted) start:
  //  - 2 frames of real time make every garbage deadline (drawn below twice
  //    the horizon) schedulable: f(reft, msg) <= F - 1 once reft has
  //    advanced past DM - cF. The wait is global — time advances for every
  //    station at once — so it is paid once, not per message.
  //  - each garbage message then drains within one worst-case epoch plus
  //    its own transmission;
  //  - each station may burn one watchdog quarantine on its scrambled state
  //    and needs the quiet-period certificate plus one epoch to re-enter;
  //  - each forced reconvergence round costs at most one worst-case epoch,
  //    one rejoin quiet period (a round may surface a stale replica), the
  //    arrival stagger, and the harness's 64-slot chunking slack;
  //  - one final frame + quiet period of settling slack.
  // Deliberately generous: an empirical contract with analytic structure
  // (the soak asserts every observed convergence stays under it), not a
  // derived worst case.
  return 2 * frame_slots + garbage * (per_epoch + tx_slots) +
         z * (rejoin_quiet + per_epoch) +
         static_cast<std::int64_t>(options.max_recovery_rounds) *
             (per_epoch + rejoin_quiet + spacing_slots + 66) +
         frame_slots + rejoin_quiet;
}

StabilizationResult run_stabilization(const StabilizationOptions& options) {
  HRTDM_EXPECT(options.stations >= 2,
               "self-stabilization needs >= 2 stations to contend");
  HRTDM_EXPECT(options.max_scramble_observations >= 0 &&
                   options.max_garbage_messages >= 0,
               "scramble strengths cannot be negative");
  HRTDM_EXPECT(options.verify_messages_per_station >= 1,
               "the clean-suffix verdict needs a verification workload");
  // Scrambled replicas recover through watchdog quarantines: the testbed
  // rejects configurations whose quiet-period certificate livelocks.
  core::DdcrRunOptions run;
  run.phy = options.phy;
  run.ddcr = options.ddcr;
  run.require_rejoinable = true;
  core::DdcrTestbed bed(options.stations, run);
  const core::DdcrConfig& config = bed.options().ddcr;
  HRTDM_EXPECT(config.alpha + options.relative_deadline < config.horizon(),
               "verification deadlines must fit the scheduling horizon cF");

  SafetyChecker safety;
  ReconvergenceProbe probe(bed);
  check::ConformanceRecorder recorder;
  bed.channel().add_observer(safety);
  bed.channel().add_observer(probe);
  if (options.conformance_check) {
    bed.channel().add_observer(recorder);
  }

  StabilizationResult result;
  result.bound_observations = stabilization_bound_observations(options);

  // --- Phase A: scramble -------------------------------------------------
  // Before the channel starts, drive every station to an arbitrary
  // *reachable* protocol state by replaying a fabricated observation
  // history into its public observe() entry point: random mixtures of
  // silence, collisions and foreign successes leave the tree engines, mode,
  // reft / carried compressed-time references and watchdog streaks in
  // random positions (including mid-quarantine — a fabricated impossible
  // success trips the watchdog exactly as a real one would). Then corrupt
  // the EDF queue with garbage messages (deadlines up to twice the
  // horizon) and, with probability 1/4, drop the station into a partially
  // complete resync. Seeded via axis_seed(.., kScramble), so pinned
  // campaigns never observe these draws.
  const Duration x = options.phy.slot_x;
  util::SplitMix64 scramble_mix(axis_seed(options.seed, CampaignAxis::kScramble));
  std::int64_t fabricated_uid = 90'000'000;
  std::int64_t garbage_uid = 95'000'000;
  for (int s = 0; s < options.stations; ++s) {
    DdcrStation& station = bed.station(s);
    util::Rng rng(scramble_mix.next());
    const std::int64_t n_obs =
        rng.uniform_i64(0, options.max_scramble_observations);
    SimTime t;
    for (std::int64_t i = 0; i < n_obs; ++i) {
      net::SlotObservation obs;
      obs.slot_start = t;
      obs.slot_end = t + x;
      const std::int64_t kind = rng.uniform_i64(0, 9);
      if (kind < 3) {
        obs.kind = net::SlotKind::kSilence;
      } else if (kind < 7) {
        obs.kind = net::SlotKind::kCollision;
      } else {
        obs.kind = net::SlotKind::kSuccess;
        net::Frame frame;
        // Never the station's own id: a station removes its *own* delivered
        // frame from its queue, and these frames were never queued.
        frame.source = static_cast<int>(
            (s + 1 + rng.uniform_i64(0, options.stations - 2)) %
            options.stations);
        frame.msg_uid = fabricated_uid++;
        frame.class_id = 0;
        frame.l_bits = kHarnessMessageBits;
        frame.enqueue_time = t;
        frame.absolute_deadline =
            t + Duration::nanoseconds(
                    rng.uniform_i64(1, config.horizon().ns() - 1));
        obs.frame = frame;
        obs.slot_end =
            t + std::max(options.phy.tx_time(kHarnessMessageBits), x);
      }
      station.observe(obs);
      t = obs.slot_end;
      ++result.scrambled_observations;
    }
    const std::int64_t n_garbage =
        rng.uniform_i64(0, options.max_garbage_messages);
    for (std::int64_t j = 0; j < n_garbage; ++j) {
      traffic::Message msg;
      msg.uid = garbage_uid++;
      msg.class_id = s;
      msg.source = s;
      msg.l_bits = kHarnessMessageBits;
      msg.arrival = SimTime();
      msg.absolute_deadline =
          SimTime() +
          Duration::nanoseconds(rng.uniform_i64(1, 2 * config.horizon().ns()));
      station.enqueue(msg);
      ++result.garbage_messages;
    }
    if (rng.bernoulli(0.25)) {
      station.reset_for_rejoin();  // corrupted epoch counter / mid-resync
    }
  }

  // --- Phase B: recover --------------------------------------------------
  // No injector, no scripted faults: from here the run is clean, and the
  // network must converge on its own through the campaign harness's
  // self-heal.
  const SimTime hard_cap = SimTime() + x * options.recovery_slots_cap;
  std::vector<traffic::Message> recovery_bursts;
  result.recovery_rounds_used =
      self_heal(bed, hard_cap, options.max_recovery_rounds,
                options.relative_deadline, recovery_bursts);
  result.reconverged = bed.drained() && consistent(bed);

  // --- Phase C: verify the clean suffix ----------------------------------
  // The quiet boundary: queues drained, every station synced, digests
  // equal. Everything delivered from here on is fresh verification traffic,
  // so the suffix must pass the *full* differential conformance check —
  // placement-model bounds, EDF-oracle sweep and all.
  const std::int64_t suffix_begin = bed.channel().observations_delivered();
  const auto watchdog_events = [&bed] {
    std::int64_t events = 0;
    for (int s = 0; s < bed.station_count(); ++s) {
      const DdcrStation::Counters& counters = bed.station(s).counters();
      events += counters.desyncs_detected + counters.quarantines +
                counters.rejoins;
    }
    return events;
  };
  const std::int64_t boundary_watchdog = watchdog_events();
  std::vector<traffic::Message> verify_messages;
  if (result.reconverged) {
    const SimTime base = bed.simulator().now() + x * 2;
    for (int k = 0; k < options.verify_messages_per_station; ++k) {
      inject_burst(bed, base + options.arrival_spacing * k,
                   options.relative_deadline, 97'000'000 + k, 10'000,
                   verify_messages);
    }
    bed.advance(bed.simulator().now() + x * kHarnessChunkSlots);
    bed.run_while(kHarnessChunkSlots, hard_cap, [&bed] {
      return !bed.drained() || !bed.all_synced();
    });
  }
  bed.stop();

  result.safety_ok = safety.ok();
  result.safety_violations = safety.violations();
  for (int s = 0; s < bed.station_count(); ++s) {
    const DdcrStation::Counters& counters = bed.station(s).counters();
    result.desyncs_detected += counters.desyncs_detected;
    result.quarantines += counters.quarantines;
    result.rejoins += counters.rejoins;
  }
  const std::int64_t last_divergent = probe.last_divergent_observation();
  result.convergence_observations = last_divergent + 1;
  const std::int64_t frame_slots = config.horizon().ceil_div(x);
  result.convergence_frames =
      (result.convergence_observations + frame_slots - 1) / frame_slots;
  result.within_bound =
      result.convergence_observations <= result.bound_observations;

  if (options.conformance_check && result.reconverged) {
    check::ConformanceInput input;
    input.messages = verify_messages;
    input.phy = options.phy;
    input.collision_mode = net::CollisionMode::kDestructive;
    input.ddcr = config;
    input.protocol_is_ddcr = true;
    input.clean_suffix_begin = suffix_begin;
    // The placement-model bounds require replica agreement over the judged
    // window: clean iff no watchdog event fired after the boundary.
    input.replicas_clean = watchdog_events() == boundary_watchdog;
    result.conformance = check::ConformanceComparator{}.check(input, recorder);
    result.suffix_checked = result.conformance.checked;
    result.suffix_ok = result.conformance.ok;
  }

  HRTDM_COUNT("fault.stabilization_runs");
  if (result.passed()) {
    HRTDM_COUNT("fault.stabilization_passed");
  }
  HRTDM_OBSERVE("fault.stabilization_convergence_obs",
                result.convergence_observations);
  HRTDM_OBSERVE("fault.stabilization_recovery_rounds",
                result.recovery_rounds_used);
  return result;
}

}  // namespace hrtdm::fault
