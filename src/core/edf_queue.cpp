#include "core/edf_queue.hpp"

#include <algorithm>

#include "obs/registry.hpp"
#include "util/check.hpp"

namespace hrtdm::core {

void EdfQueue::push(const Message& msg,
                    [[maybe_unused]] std::size_t served) {
  HRTDM_EXPECT(msg.uid >= 0, "message uid must be assigned");
  HRTDM_EXPECT(uids_.emplace(msg.uid, msg.absolute_deadline).second,
               "duplicate message uid in EDF queue");
  const bool inserted = by_deadline_.insert(msg).second;
  HRTDM_ENSURE(inserted, "EDF order collision despite distinct uids");
  HRTDM_COUNT("edf.push");
  HRTDM_OBSERVE("edf.depth", by_deadline_.size() - served);
}

std::optional<Message> EdfQueue::head() const {
  if (by_deadline_.empty()) {
    return std::nullopt;
  }
  return *by_deadline_.begin();
}

bool EdfQueue::remove(std::int64_t uid) {
  const auto uid_it = uids_.find(uid);
  if (uid_it == uids_.end()) {
    return false;
  }
  // EdfOrder compares only (absolute_deadline, uid), so a key-only probe
  // finds the node without scanning the queue.
  Message key;
  key.uid = uid;
  key.absolute_deadline = uid_it->second;
  uids_.erase(uid_it);
  const auto erased = by_deadline_.erase(key);
  HRTDM_ENSURE(erased == 1, "uid set and deadline set diverged");
  HRTDM_COUNT("edf.remove");
  return true;
}

std::int64_t EdfQueue::count_late(SimTime now) const {
  std::int64_t late = 0;
  for (const Message& msg : by_deadline_) {
    if (msg.absolute_deadline < now) {
      ++late;
    } else {
      break;  // EDF order: the rest have later deadlines
    }
  }
  return late;
}

}  // namespace hrtdm::core
