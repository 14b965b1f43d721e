#include "traffic/arrival_stream.hpp"

#include "util/check.hpp"

namespace hrtdm::traffic {

const Message& SourceStream::peek() const {
  HRTDM_EXPECT(has_head_, "peek() past the end of the stream");
  return head_;
}

Message SourceStream::take() {
  HRTDM_EXPECT(has_head_, "take() past the end of the stream");
  const Message msg = head_;
  lanes_[head_lane_].stream.take();
  refresh();
  return msg;
}

void SourceStream::refresh() {
  // Linear k-way merge by (arrival, uid) — sources carry a handful of
  // classes, so a heap would cost more than it saves. Within a lane uids
  // ascend with the arrival index, so lane heads are enough.
  has_head_ = false;
  SimTime best_at;
  std::int64_t best_uid = 0;
  for (std::size_t i = 0; i < lanes_.size(); ++i) {
    const Lane& lane = lanes_[i];
    if (lane.stream.done()) {
      continue;
    }
    const SimTime at = lane.stream.peek();
    const std::int64_t uid = lane.uid_base + lane.stream.emitted();
    if (!has_head_ || at < best_at || (at == best_at && uid < best_uid)) {
      has_head_ = true;
      head_lane_ = i;
      best_at = at;
      best_uid = uid;
    }
  }
  if (!has_head_) {
    return;
  }
  const Lane& lane = lanes_[head_lane_];
  head_.uid = best_uid;
  head_.class_id = lane.class_id;
  head_.source = lane.source;
  head_.l_bits = lane.l_bits;
  head_.arrival = best_at;
  head_.absolute_deadline = best_at + lane.d;
}

WorkloadStream::WorkloadStream(const Workload& workload, ArrivalKind kind,
                               SimTime horizon, std::uint64_t seed) {
  workload.validate();
  util::Rng rng(seed);
  std::int64_t next_uid = 0;
  sources_.resize(workload.sources.size());
  for (std::size_t s = 0; s < workload.sources.size(); ++s) {
    SourceStream& out = sources_[s];
    for (const auto& cls : workload.sources[s].classes) {
      // Same split discipline as generate_traffic(): one child RNG per
      // class, drawn in source-major class order.
      util::Rng class_rng = rng.split();
      // The next lane's uids start after this lane's last arrival: count
      // them on a copy of the stream (O(a) memory, nothing materialized).
      ArrivalStream counter(cls, kind, horizon, class_rng);
      while (!counter.done()) {
        counter.take();
      }
      out.lanes_.push_back(SourceStream::Lane{
          ArrivalStream(cls, kind, horizon, class_rng), next_uid, cls.id,
          cls.source, cls.l_bits, cls.d});
      next_uid += counter.emitted();
    }
    out.refresh();
  }
  total_messages_ = next_uid;
}

}  // namespace hrtdm::traffic
