// Arrival-process generators under the unimodal arbitrary model.
//
// The paper's adversary may submit up to a(msg) arrivals of msg in *any*
// sliding window of w(msg); it subsumes periodic and Poisson models. The
// generators below produce arrival-time sequences that respect the bound
// (verified by respects_density); the saturating adversary realises its
// extreme point, which is what the feasibility conditions assume.
#pragma once

#include <cstdint>
#include <vector>

#include "traffic/message.hpp"
#include "util/rng.hpp"
#include "util/simtime.hpp"

namespace hrtdm::traffic {

using util::Rng;

enum class ArrivalKind {
  /// Peak load: bursts of `a` simultaneous-as-possible arrivals at the
  /// start of every window — the worst case the FCs are computed against.
  kSaturatingAdversary,
  /// Evenly spaced arrivals with period w/a and uniform phase jitter,
  /// clamped so the density bound still holds.
  kPeriodicJitter,
  /// Sporadic: minimum separation w/a plus an exponential extra gap.
  kSporadic,
  /// Poisson at rate a/w, thinned to respect the sliding-window bound.
  kBoundedPoisson,
};

/// The one arrival generator: yields one class's arrival times over
/// [0, horizon), ascending, one at a time with O(1) state (O(a) for the
/// bounded-Poisson thinning ring). generate_arrivals() drains it;
/// WorkloadStream merges one per class into per-source message streams.
class ArrivalStream {
 public:
  ArrivalStream(const MessageClass& cls, ArrivalKind kind, SimTime horizon,
                Rng rng);

  bool done() const { return !has_next_; }
  /// Next arrival time; done() must be false.
  SimTime peek() const;
  /// Returns the next arrival time and advances past it.
  SimTime take();
  /// Number of arrivals taken so far (== the index of peek()'s arrival).
  std::int64_t emitted() const { return emitted_; }
  /// The generator state: once the stream is done, exactly what drawing
  /// every arrival left behind.
  const Rng& rng() const { return rng_; }

 private:
  /// Computes the next arrival into next_ (or marks the stream done),
  /// advancing the generator cursor. Every kind draws from rng_ lazily,
  /// so a drained stream has made exactly the draws its arrivals needed.
  void prime();

  MessageClass cls_;
  ArrivalKind kind_;
  SimTime horizon_;
  Rng rng_;
  bool has_next_ = false;
  SimTime next_;
  std::int64_t emitted_ = 0;

  // Saturating-adversary cursor.
  SimTime window_;
  std::int64_t burst_i_ = 0;
  // Periodic-jitter / sporadic / Poisson cursor.
  SimTime at_;
  Duration period_;             ///< w/a: jitter base period / sporadic min gap
  std::int64_t max_extra_ = 0;  ///< periodic jitter bound
  double rate_ = 0.0;           ///< Poisson rate a/w
  std::vector<SimTime> ring_;   ///< last `a` accepted times (thinning check)
  std::int64_t accepted_ = 0;
};

/// Arrival times for one class over [0, horizon), sorted ascending: a
/// drained ArrivalStream. `rng` is advanced past every draw the arrivals
/// took.
std::vector<SimTime> generate_arrivals(const MessageClass& cls,
                                       ArrivalKind kind, SimTime horizon,
                                       Rng& rng);

/// True iff every sliding window of length w contains at most `a` of the
/// (sorted) arrival times: for all i, times[i + a] - times[i] >= w.
bool respects_density(const std::vector<SimTime>& times, std::int64_t a,
                      Duration w);

/// Materialises Message instances (uid, DM) from arrival times.
std::vector<Message> materialize(const MessageClass& cls,
                                 const std::vector<SimTime>& times,
                                 std::int64_t& next_uid);

}  // namespace hrtdm::traffic
