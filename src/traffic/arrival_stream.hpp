// Streamed per-source view of a workload's arrivals.
//
// generate_traffic() materialises every message of a run up front.
// WorkloadStream yields the same messages lazily: one ArrivalStream (the
// arrival generator, traffic/arrival.hpp) per class, with
// generate_traffic()'s exact RNG-split discipline and uid assignment, and
// each source's class lanes merged on the fly. The i-th message a
// SourceStream emits is bit-identical (uid, class, source, length,
// arrival, deadline) to the i-th element of generate_traffic()'s sorted
// per-source vector for the same (workload, kind, horizon, seed).
#pragma once

#include <cstdint>
#include <vector>

#include "traffic/arrival.hpp"
#include "traffic/message.hpp"
#include "traffic/workload.hpp"
#include "util/rng.hpp"
#include "util/simtime.hpp"

namespace hrtdm::traffic {

/// One source's merged message stream: class lanes combined by
/// (arrival, uid), messages carrying generate_traffic()'s exact uids.
class SourceStream {
 public:
  bool done() const { return !has_head_; }
  /// Next message in (arrival, uid) order; done() must be false.
  const Message& peek() const;
  Message take();

 private:
  friend class WorkloadStream;
  struct Lane {
    ArrivalStream stream;
    std::int64_t uid_base;  ///< uid of the lane's first arrival
    int class_id;
    int source;
    std::int64_t l_bits;
    Duration d;
  };
  void refresh();

  std::vector<Lane> lanes_;
  bool has_head_ = false;
  std::size_t head_lane_ = 0;
  Message head_;
};

/// Streaming equivalent of generate_traffic(): same RNG split per class,
/// same global uid numbering (source-major, class-major, arrival-index),
/// same per-source (arrival, uid) emission order.
class WorkloadStream {
 public:
  WorkloadStream(const Workload& workload, ArrivalKind kind, SimTime horizon,
                 std::uint64_t seed);

  int num_sources() const { return static_cast<int>(sources_.size()); }
  SourceStream& source(int s) { return sources_[static_cast<std::size_t>(s)]; }
  /// == GeneratedTraffic::total_messages for the same inputs.
  std::int64_t total_messages() const { return total_messages_; }

 private:
  std::vector<SourceStream> sources_;
  std::int64_t total_messages_ = 0;
};

}  // namespace hrtdm::traffic
