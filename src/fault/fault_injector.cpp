#include "fault/fault_injector.hpp"

#include <algorithm>

#include "core/ddcr_network.hpp"
#include "obs/registry.hpp"
#include "util/check.hpp"

namespace hrtdm::fault {

FaultInjector::FaultInjector(FaultPlan plan, std::uint64_t seed)
    : FaultInjector(std::move(plan), ChurnPlan{}, DriftPlan{}, seed) {}

FaultInjector::FaultInjector(FaultPlan plan, ChurnPlan churn, DriftPlan drift,
                             std::uint64_t seed)
    : plan_(std::move(plan)),
      churn_(std::move(churn)),
      drift_(std::move(drift)),
      rng_(seed),
      crash_fired_(plan_.crashes.size(), false) {
  for (const DriftSpec& spec : drift_.specs) {
    drifted_.push_back({spec.station, spec.make_clock(), false});
  }
}

void FaultInjector::install(core::DdcrTestbed& bed) {
  bed_ = &bed;
  slot_x_ = bed.options().phy.slot_x;
  recorder_ = &bed.flight_recorder();
  bed.channel().set_interceptor(this);
  bed.channel().add_observer(*this);
}

std::int64_t FaultInjector::clean_prefix_end() const {
  std::int64_t first = INT64_MAX;
  if (const std::int64_t f = plan_.first_fault_observation(); f >= 0) {
    first = std::min(first, f);
  }
  if (const std::int64_t c = churn_.first_observation(); c >= 0) {
    first = std::min(first, c);
  }
  if (first_drift_effect_ >= 0) {
    first = std::min(first, first_drift_effect_);
  }
  return first == INT64_MAX ? -1 : first;
}

bool FaultInjector::corrupt_slot(std::int64_t slot_index) {
  bool corrupt = false;
  for (const SymmetricNoiseFault& s : plan_.symmetric) {
    if (slot_index < s.from_observation || slot_index >= s.to_observation) {
      continue;
    }
    // Draw for every covering window so the stream stays aligned with the
    // plan regardless of earlier outcomes.
    if (rng_.bernoulli(s.prob)) {
      corrupt = true;
    }
  }
  if (corrupt) {
    ++stats_.symmetric_corruptions;
    HRTDM_COUNT("fault.symmetric_corruptions");
  }
  return corrupt;
}

net::SlotObservation FaultInjector::deliver_to(
    int station_id, std::int64_t slot_index,
    const net::SlotObservation& obs) {
  net::SlotObservation heard = obs;
  for (const AsymmetricFault& a : plan_.asymmetric) {
    if (a.station != station_id || slot_index < a.from_observation ||
        slot_index >= a.to_observation) {
      continue;
    }
    if (!rng_.bernoulli(a.prob)) {
      continue;
    }
    switch (a.kind) {
      case AsymmetricKind::kCorruptReceive:
        // Receiver-local CRC failure: the transmission is heard, but as
        // garbage — indistinguishable from a collision of equal length.
        if (heard.kind == net::SlotKind::kSuccess) {
          heard.kind = net::SlotKind::kCollision;
          heard.frame.reset();
          heard.arbitration = false;
          ++stats_.asymmetric_corruptions;
          HRTDM_COUNT("fault.asymmetric_corruptions");
        }
        break;
      case AsymmetricKind::kMissReceive:
        // Deaf receiver: carrier sense missed the activity entirely.
        if (heard.kind != net::SlotKind::kSilence) {
          heard.kind = net::SlotKind::kSilence;
          heard.frame.reset();
          heard.arbitration = false;
          heard.in_burst = false;
          ++stats_.asymmetric_misses;
          HRTDM_COUNT("fault.asymmetric_misses");
        }
        break;
    }
  }
  // Drift mis-sampling runs after the scripted asymmetric faults so the
  // rng_ draw order is untouched (drift draws nothing). A station whose
  // phase error has reached x/2 samples the slot boundary on the wrong
  // side: a successful frame straddles its misplaced boundary and fails
  // the CRC, so it hears a collision of the same duration. Collisions and
  // silence carry no frame to garble and pass through.
  if (!drifted_.empty()) {
    HRTDM_EXPECT(slot_x_.ns() > 0,
                 "install() must run before drifted delivery");
  }
  for (const DriftedStation& d : drifted_) {
    if (d.station != station_id ||
        !d.clock.missamples(heard.slot_start, slot_x_)) {
      continue;
    }
    if (heard.kind == net::SlotKind::kSuccess) {
      heard.kind = net::SlotKind::kCollision;
      heard.frame.reset();
      heard.arbitration = false;
      ++stats_.drift_missamples;
      HRTDM_COUNT("fault.drift_missamples");
      HRTDM_FR_RECORD(recorder_, obs::FrKind::kDriftMissample,
                      heard.slot_start.ns(), station_id,
                      d.clock.phase_error(heard.slot_start).ns());
      if (first_drift_effect_ < 0) {
        first_drift_effect_ = slot_index;
      }
    }
  }
  return heard;
}

void FaultInjector::on_slot(const net::SlotRecord& record) {
  const std::int64_t index = observations_seen_++;
  for (std::size_t i = 0; i < plan_.crashes.size(); ++i) {
    if (crash_fired_[i] || plan_.crashes[i].at_observation > index) {
      continue;
    }
    crash_fired_[i] = true;
    ++stats_.crashes_fired;
    HRTDM_COUNT("fault.crashes_fired");
    core::DdcrStation& station = bed_->station(plan_.crashes[i].station);
    if (station.online()) {  // a powered-off station cannot crash
      station.reset_for_rejoin();
    }
  }
  while (churn_next_ < churn_.events.size() &&
         churn_.events[churn_next_].at_observation <= index) {
    const ChurnEvent& e = churn_.events[churn_next_++];
    if (e.kind == ChurnKind::kLeave) {
      ++stats_.churn_leaves;
      HRTDM_COUNT("fault.churn_leaves");
      bed_->station(e.station).go_offline();
    } else {
      ++stats_.churn_joins;
      HRTDM_COUNT("fault.churn_joins");
      bed_->station(e.station).bring_online();
    }
  }
  // The resync rule: while a drifted station sits in the listen-only
  // resync state (watchdog quarantine, crash recovery or churn rejoin),
  // its clock is re-anchored against the channel it is listening to —
  // phase returns to zero, the residual frequency error stays.
  for (DriftedStation& d : drifted_) {
    const bool resyncing = !bed_->station(d.station).synced();
    if (resyncing) {
      d.clock.resync(record.end);
      if (!d.resyncing) {
        ++stats_.drift_resyncs;
        HRTDM_COUNT("fault.drift_resyncs");
        HRTDM_FR_RECORD(recorder_, obs::FrKind::kDriftResync, record.end.ns(),
                        d.station);
      }
    }
    d.resyncing = resyncing;
  }
}

}  // namespace hrtdm::fault
