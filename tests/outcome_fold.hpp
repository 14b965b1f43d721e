// One FNV-1a value per harness outcome, for the OutcomesArePinned tests:
// any change to any folded field changes the value, so a pin recorded
// before a refactor catches outcomes that moved while staying legal.
#pragma once

#include <cstdint>

#include "core/ddcr_network.hpp"

namespace hrtdm::pins {

class OutcomeFold {
 public:
  OutcomeFold& add(std::int64_t value) {
    hash_ = (hash_ ^ static_cast<std::uint64_t>(value)) * 0x100000001b3ULL;
    return *this;
  }

  /// Every count of the report (its makespans are not folded).
  OutcomeFold& add(const core::ConformanceReport& report) {
    return add(report.checked)
        .add(report.ok)
        .add(static_cast<std::int64_t>(report.violations.size()))
        .add(report.slots_checked)
        .add(report.epochs)
        .add(report.tts_bound_checked)
        .add(report.sts_bound_checked)
        .add(report.p2_windows_checked)
        .add(report.edf_pairs_checked)
        .add(report.observed_misses)
        .add(report.oracle_misses)
        .add(report.oracle_feasible);
  }

  std::uint64_t value() const { return hash_; }

 private:
  std::uint64_t hash_ = 0xcbf29ce484222325ULL;  // FNV-1a offset basis
};

}  // namespace hrtdm::pins
