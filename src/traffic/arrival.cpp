#include "traffic/arrival.hpp"

#include <algorithm>

#include "util/check.hpp"

namespace hrtdm::traffic {

ArrivalStream::ArrivalStream(const MessageClass& cls, ArrivalKind kind,
                             SimTime horizon, Rng rng)
    : cls_(cls), kind_(kind), horizon_(horizon), rng_(rng) {
  HRTDM_EXPECT(cls_.a >= 1, "arrival bound a must be >= 1");
  HRTDM_EXPECT(cls_.w > Duration::nanoseconds(0), "window w must be positive");
  HRTDM_EXPECT(cls_.d > Duration::nanoseconds(0),
               "deadline d must be positive");
  switch (kind_) {
    case ArrivalKind::kSaturatingAdversary:
      window_ = SimTime::zero();
      break;
    case ArrivalKind::kPeriodicJitter:
      period_ = cls_.w / cls_.a;
      HRTDM_EXPECT(period_ > Duration::nanoseconds(0), "period underflow");
      max_extra_ = std::max<std::int64_t>(period_.ns() / 5, 0);
      at_ = SimTime::zero();
      break;
    case ArrivalKind::kSporadic:
      period_ = cls_.w / cls_.a;
      at_ = SimTime::zero();
      break;
    case ArrivalKind::kBoundedPoisson:
      rate_ = static_cast<double>(cls_.a) / cls_.w.to_seconds();
      ring_.resize(static_cast<std::size_t>(cls_.a));
      at_ = SimTime::zero() +
            Duration::from_seconds(rng_.exponential(rate_));
      break;
  }
  prime();
}

SimTime ArrivalStream::peek() const {
  HRTDM_EXPECT(has_next_, "peek() past the end of the stream");
  return next_;
}

SimTime ArrivalStream::take() {
  HRTDM_EXPECT(has_next_, "take() past the end of the stream");
  const SimTime at = next_;
  ++emitted_;
  prime();
  return at;
}

void ArrivalStream::prime() {
  has_next_ = false;
  switch (kind_) {
    case ArrivalKind::kSaturatingAdversary:
      // `a` arrivals at the very start of every window. Separating the
      // burst members by 1 ns keeps timestamps distinct (and the density
      // bound intact: any window of length w still sees exactly a of
      // them). Burst members at/after the horizon are skipped, not a stop:
      // the cursor scans the full burst before moving to the next window.
      while (window_ < horizon_) {
        while (burst_i_ < cls_.a) {
          const SimTime at = window_ + Duration::nanoseconds(burst_i_);
          ++burst_i_;
          if (at < horizon_) {
            next_ = at;
            has_next_ = true;
            return;
          }
        }
        burst_i_ = 0;
        window_ += cls_.w;
      }
      return;
    case ArrivalKind::kPeriodicJitter:
      // Nominal spacing w/a with a non-negative random gap extension of up
      // to 20% of the period, drawn once per emitted arrival, after the
      // emission. Gap jitter (as opposed to per-arrival phase slip) can
      // only stretch inter-arrival distances, so any window of length w
      // still holds at most `a` arrivals.
      if (at_ >= horizon_) {
        return;
      }
      next_ = at_;
      has_next_ = true;
      at_ += period_ + Duration::nanoseconds(
                           max_extra_ > 0 ? rng_.uniform_i64(0, max_extra_)
                                          : 0);
      return;
    case ArrivalKind::kSporadic:
      // Minimum inter-arrival w/a plus an exponential extension with mean
      // 0.5 * w/a; strictly sparser than the saturating adversary.
      if (at_ >= horizon_) {
        return;
      }
      next_ = at_;
      has_next_ = true;
      {
        const double extra_s =
            rng_.exponential(2.0 / std::max(period_.to_seconds(), 1e-12));
        at_ += period_ + Duration::from_seconds(extra_s);
      }
      return;
    case ArrivalKind::kBoundedPoisson:
      // Poisson at the nominal rate a/w, then thinned: a candidate that
      // would be the (a+1)-th inside some window of length w is dropped.
      // ring_[accepted_ % a] holds the (accepted_ - a)-th accepted time;
      // the inter-arrival draw happens once per candidate, after the
      // accept/drop decision.
      while (at_ < horizon_) {
        const bool violates =
            accepted_ >= cls_.a &&
            at_ - ring_[static_cast<std::size_t>(accepted_ % cls_.a)] <
                cls_.w;
        const SimTime at = at_;
        at_ += Duration::from_seconds(rng_.exponential(rate_));
        if (!violates) {
          ring_[static_cast<std::size_t>(accepted_ % cls_.a)] = at;
          ++accepted_;
          next_ = at;
          has_next_ = true;
          return;
        }
      }
      return;
  }
}

std::vector<SimTime> generate_arrivals(const MessageClass& cls,
                                       ArrivalKind kind, SimTime horizon,
                                       Rng& rng) {
  ArrivalStream stream(cls, kind, horizon, rng);
  std::vector<SimTime> times;
  while (!stream.done()) {
    times.push_back(stream.take());
  }
  rng = stream.rng();
  HRTDM_ENSURE(std::is_sorted(times.begin(), times.end()),
               "arrival times must be sorted");
  HRTDM_ENSURE(respects_density(times, cls.a, cls.w),
               "generator violated the unimodal arbitrary bound");
  return times;
}

bool respects_density(const std::vector<SimTime>& times, std::int64_t a,
                      Duration w) {
  HRTDM_EXPECT(a >= 1, "arrival bound a must be >= 1");
  for (std::size_t i = 0; i + static_cast<std::size_t>(a) < times.size();
       ++i) {
    if (times[i + static_cast<std::size_t>(a)] - times[i] < w) {
      return false;
    }
  }
  return true;
}

std::vector<Message> materialize(const MessageClass& cls,
                                 const std::vector<SimTime>& times,
                                 std::int64_t& next_uid) {
  std::vector<Message> messages;
  messages.reserve(times.size());
  for (const SimTime at : times) {
    Message msg;
    msg.uid = next_uid++;
    msg.class_id = cls.id;
    msg.source = cls.source;
    msg.l_bits = cls.l_bits;
    msg.arrival = at;
    msg.absolute_deadline = at + cls.d;
    messages.push_back(msg);
  }
  return messages;
}

}  // namespace hrtdm::traffic
