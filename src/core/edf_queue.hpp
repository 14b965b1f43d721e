// Local Algorithm LA of the paper: each source services its waiting queue Q
// in Earliest-Deadline-First order. msg* denotes the head (smallest absolute
// deadline DM, ties broken by arrival uid for network-wide determinism).
#pragma once

#include <cstdint>
#include <map>
#include <optional>
#include <set>

#include "traffic/message.hpp"

namespace hrtdm::core {

using traffic::Message;
using util::SimTime;

class EdfQueue {
 public:
  /// The service order: earlier deadline first, then lower uid.
  static bool precedes(const Message& a, const Message& b) {
    if (a.absolute_deadline != b.absolute_deadline) {
      return a.absolute_deadline < b.absolute_deadline;
    }
    return a.uid < b.uid;
  }

  /// Inserts a newly arrived message. `served` queued messages have
  /// already been delivered by a compiled span that hands them back only
  /// at its end; the recorded depth leaves them out.
  void push(const Message& msg, std::size_t served = 0);

  /// msg* — the EDF head, or nullopt when Q is empty.
  std::optional<Message> head() const;

  /// Removes the message with the given uid (after successful transmission).
  /// Returns true if it was present.
  bool remove(std::int64_t uid);

  bool empty() const { return by_deadline_.empty(); }
  std::size_t size() const { return by_deadline_.size(); }

  /// Const iteration in EDF order (deadline, then uid). The epoch compiler
  /// walks the queue in service order without copying or mutating it.
  auto begin() const { return by_deadline_.begin(); }
  auto end() const { return by_deadline_.end(); }

  /// Messages whose absolute deadline is already in the past at `now`
  /// (still transmitted — HRTDM requires them bounded, and the metrics
  /// layer records the misses).
  std::int64_t count_late(SimTime now) const;

 private:
  struct EdfOrder {
    bool operator()(const Message& a, const Message& b) const {
      return precedes(a, b);
    }
  };
  std::set<Message, EdfOrder> by_deadline_;
  /// Duplicate-uid guard, and the deadline key a remove() needs to locate
  /// the set node in O(log n) (EdfOrder compares only deadline and uid).
  std::map<std::int64_t, SimTime> uids_;
};

}  // namespace hrtdm::core
