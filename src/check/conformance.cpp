#include "check/conformance.hpp"

#include <algorithm>
#include <atomic>
#include <cstdlib>
#include <fstream>
#include <map>
#include <set>
#include <sstream>

#include "check/bound_checker.hpp"
#include "check/epoch_tracker.hpp"
#include "traffic/workload.hpp"
#include "util/check.hpp"

namespace hrtdm::check {
namespace {

using core::ConformanceReport;
using util::Duration;

/// Violation lists are capped so a systematically broken run does not
/// produce a megabyte of strings; the tail is summarised.
constexpr std::size_t kMaxViolations = 40;

class ViolationSink {
 public:
  explicit ViolationSink(ConformanceReport& report) : report_(report) {}
  void add(std::string text) {
    if (report_.violations.size() < kMaxViolations) {
      report_.violations.push_back(std::move(text));
    } else {
      ++overflow_;
    }
  }
  /// Call exactly once, before the report leaves the function.
  void finalize() {
    if (overflow_ > 0) {
      report_.violations.push_back("... and " + std::to_string(overflow_) +
                                   " further violation(s)");
    }
    report_.ok = report_.violations.empty();
  }

 private:
  ConformanceReport& report_;
  std::int64_t overflow_ = 0;
};

/// The entries strictly before observation index `end`; a gap entry
/// straddling the cut is clipped to the slots that fit before it.
std::vector<ConformanceRecorder::Entry> clip_before(
    const std::vector<ConformanceRecorder::Entry>& entries, std::int64_t end) {
  std::vector<ConformanceRecorder::Entry> prefix;
  for (const ConformanceRecorder::Entry& entry : entries) {
    if (entry.obs_index >= end) {
      break;
    }
    if (entry.gap_slots > 0 && entry.obs_index + entry.gap_slots > end) {
      ConformanceRecorder::Entry clipped = entry;
      clipped.gap_slots = end - entry.obs_index;
      const Duration slot =
          (entry.record.end - entry.record.start) / entry.gap_slots;
      clipped.record.end = entry.record.start + slot * clipped.gap_slots;
      prefix.push_back(clipped);
      break;
    }
    prefix.push_back(entry);
  }
  return prefix;
}

struct Delivery {
  std::int64_t uid = -1;
  SimTime start;
  SimTime end;
  SimTime deadline;
  bool in_burst = false;
};

std::string slot_at(const net::SlotRecord& record) {
  std::ostringstream os;
  os << " (slot at " << record.start.str() << ")";
  return os.str();
}

}  // namespace

void ConformanceRecorder::on_slot(const net::SlotRecord& record) {
  Entry entry;
  entry.record = record;
  entry.obs_index = observations_;
  entries_.push_back(entry);
  ++observations_;
}

void ConformanceRecorder::on_idle_gap(std::int64_t slots, SimTime first_start,
                                      util::Duration slot_x) {
  if (slots <= 0) {
    return;
  }
  Entry entry;
  entry.record.kind = net::SlotKind::kSilence;
  entry.record.contenders = 0;
  entry.record.start = first_start;
  entry.record.end = first_start + slot_x * slots;
  entry.gap_slots = slots;
  entry.obs_index = observations_;
  entries_.push_back(entry);
  observations_ += slots;
}

std::vector<ConformanceRecorder::Entry> ConformanceRecorder::clean_prefix(
    std::int64_t end) const {
  return clip_before(entries_, end);
}

std::vector<ConformanceRecorder::Entry> ConformanceRecorder::clean_suffix(
    std::int64_t begin) const {
  std::vector<Entry> suffix;
  for (const Entry& entry : entries_) {
    const std::int64_t covered =
        entry.gap_slots > 0 ? entry.gap_slots : 1;
    if (entry.obs_index + covered <= begin) {
      continue;
    }
    if (entry.gap_slots > 0 && entry.obs_index < begin) {
      // Clip the gap to the slots at or after the cut.
      Entry clipped = entry;
      clipped.gap_slots = entry.obs_index + entry.gap_slots - begin;
      const Duration slot =
          (entry.record.end - entry.record.start) / entry.gap_slots;
      clipped.record.start = entry.record.end - slot * clipped.gap_slots;
      clipped.obs_index = begin;
      suffix.push_back(clipped);
      continue;
    }
    suffix.push_back(entry);
  }
  return suffix;
}

core::ConformanceReport ConformanceComparator::check(
    const ConformanceInput& input, const ConformanceRecorder& recorder) const {
  const bool prefix_clipped = input.clean_prefix_end >= 0;
  const bool suffix_clipped = input.clean_suffix_begin >= 0;
  if (!prefix_clipped && !suffix_clipped) {
    return check_entries(input, recorder.entries(), /*whole_run=*/true);
  }
  std::vector<ConformanceRecorder::Entry> stream =
      suffix_clipped ? recorder.clean_suffix(input.clean_suffix_begin)
                     : recorder.entries();
  if (prefix_clipped) {
    // Drop (and clip) everything at or past the prefix end — combining the
    // two cuts judges a clean window.
    stream = clip_before(stream, input.clean_prefix_end);
  }
  return check_entries(input, stream, /*whole_run=*/false);
}

core::ConformanceReport ConformanceComparator::check_entries(
    const ConformanceInput& input,
    const std::vector<ConformanceRecorder::Entry>& entries,
    bool whole_run) const {
  ConformanceReport report;
  report.checked = true;
  ViolationSink sink(report);

  const bool destructive =
      input.collision_mode == net::CollisionMode::kDestructive;
  const bool may_corrupt =
      input.phy.corruption_prob > 0.0 || input.phy.ge_enabled;
  const bool clean = whole_run && !may_corrupt && input.replicas_clean;

  // --- message index -------------------------------------------------------
  std::map<std::int64_t, traffic::Message> by_uid;
  std::vector<SimTime> arrivals;
  arrivals.reserve(input.messages.size());
  for (const traffic::Message& msg : input.messages) {
    const bool inserted = by_uid.emplace(msg.uid, msg).second;
    HRTDM_EXPECT(inserted, "conformance input uids must be unique");
    arrivals.push_back(msg.arrival);
  }
  std::sort(arrivals.begin(), arrivals.end());

  // --- pass 1: slot-grid sanity, safety, delivery extraction ---------------
  std::vector<Delivery> deliveries;
  std::set<std::int64_t> delivered_uids;
  bool have_prev = false;
  SimTime prev_end;
  Duration busy_silence;     // silence while some message was pending
  Duration contention;       // collision slots (wall time)
  Duration arbitration_extra;  // the slot_x preamble of arbitration wins
  std::size_t arrived_ptr = 0;
  std::int64_t delivered_count = 0;

  for (const ConformanceRecorder::Entry& entry : entries) {
    const net::SlotRecord& rec = entry.record;
    report.slots_checked += entry.gap_slots > 0 ? entry.gap_slots : 1;
    if (rec.end < rec.start) {
      sink.add("slot ends before it starts" + slot_at(rec));
    }
    if (have_prev && rec.start < prev_end) {
      sink.add("slots overlap: starts at " + rec.start.str() +
               " before previous ended at " + prev_end.str());
    }
    have_prev = true;
    prev_end = rec.end;

    if (entry.gap_slots > 0) {
      // Idle fast-forward gaps commit only when every station is quiescent,
      // i.e. every queue is empty — so nothing can be pending during them.
      if (rec.kind != net::SlotKind::kSilence || rec.contenders != 0) {
        sink.add("idle gap recorded as non-silence" + slot_at(rec));
      }
      continue;
    }

    switch (rec.kind) {
      case net::SlotKind::kSilence: {
        if (rec.contenders != 0) {
          sink.add("silence with transmitters on the medium" + slot_at(rec));
        }
        if (rec.frame.has_value()) {
          sink.add("silence slot carries a frame" + slot_at(rec));
        }
        if (rec.end - rec.start != input.phy.slot_x) {
          sink.add("silence slot duration != x" + slot_at(rec));
        }
        while (arrived_ptr < arrivals.size() &&
               arrivals[arrived_ptr] <= rec.end) {
          ++arrived_ptr;
        }
        if (static_cast<std::int64_t>(arrived_ptr) > delivered_count) {
          busy_silence += rec.end - rec.start;
        }
        break;
      }
      case net::SlotKind::kCollision: {
        if (destructive && !may_corrupt && rec.contenders < 2) {
          sink.add("collision with fewer than 2 transmitters" + slot_at(rec));
        }
        if (!destructive && !may_corrupt) {
          sink.add("destructive collision in arbitration mode" +
                   slot_at(rec));
        }
        if (!may_corrupt && rec.end - rec.start != input.phy.slot_x) {
          sink.add("collision slot duration != x" + slot_at(rec));
        }
        contention += rec.end - rec.start;
        break;
      }
      case net::SlotKind::kSuccess: {
        if (!rec.frame.has_value()) {
          sink.add("success without a frame" + slot_at(rec));
          break;
        }
        const net::Frame& frame = *rec.frame;
        // Mutual exclusion: in destructive mode a delivered frame means
        // exactly one transmitter held the medium. (Arbitration wins and
        // burst continuations legitimately differ.)
        if (destructive && !rec.in_burst && !rec.arbitration &&
            rec.contenders != 1) {
          sink.add("mutual exclusion violated: success with " +
                   std::to_string(rec.contenders) + " transmitters" +
                   slot_at(rec));
        }
        const Duration tx = input.phy.tx_time(frame.l_bits);
        const Duration expect =
            rec.in_burst ? tx
                         : rec.arbitration ? input.phy.slot_x + tx
                                           : std::max(tx, input.phy.slot_x);
        if (rec.end - rec.start != expect) {
          sink.add("success slot duration inconsistent with l'/psi" +
                   slot_at(rec));
        }
        if (rec.arbitration) {
          arbitration_extra += input.phy.slot_x;
        }
        const auto it = by_uid.find(frame.msg_uid);
        if (it == by_uid.end()) {
          sink.add("delivered frame was never injected (uid " +
                   std::to_string(frame.msg_uid) + ")" + slot_at(rec));
          break;
        }
        const traffic::Message& msg = it->second;
        if (frame.source != msg.source || frame.class_id != msg.class_id ||
            frame.l_bits != msg.l_bits || frame.enqueue_time != msg.arrival ||
            frame.absolute_deadline != msg.absolute_deadline) {
          sink.add("frame metadata does not match the injected message (uid " +
                   std::to_string(frame.msg_uid) + ")" + slot_at(rec));
        }
        if (rec.start < msg.arrival) {
          sink.add("message transmitted before it arrived (uid " +
                   std::to_string(frame.msg_uid) + ")" + slot_at(rec));
        }
        if (!delivered_uids.insert(frame.msg_uid).second) {
          sink.add("message delivered twice (uid " +
                   std::to_string(frame.msg_uid) + ")" + slot_at(rec));
        }
        ++delivered_count;
        Delivery d;
        d.uid = frame.msg_uid;
        d.start = rec.start;
        d.end = rec.end;
        d.deadline = msg.absolute_deadline;
        d.in_burst = rec.in_burst;
        deliveries.push_back(d);
        break;
      }
    }
  }

  // --- completeness --------------------------------------------------------
  if (input.expect_drain && whole_run) {
    for (const auto& [uid, msg] : by_uid) {
      if (delivered_uids.count(uid) == 0) {
        sink.add("message never delivered (uid " + std::to_string(uid) +
                 ", source " + std::to_string(msg.source) + ")");
      }
    }
  }

  // --- timeliness + oracle -------------------------------------------------
  SimTime observed_makespan;
  for (const Delivery& d : deliveries) {
    observed_makespan = std::max(observed_makespan, d.end);
    if (d.end > d.deadline) {
      ++report.observed_misses;
      if (input.expect_timeliness) {
        sink.add("deadline missed (uid " + std::to_string(d.uid) +
                 "): completed " + d.end.str() + " > DM " + d.deadline.str());
      }
    }
  }
  report.observed_makespan_s = observed_makespan.to_seconds();

  const EdfOracle oracle(input.phy);
  const OracleSchedule ideal = oracle.schedule(input.messages);
  report.oracle_feasible = ideal.feasible;
  report.oracle_misses = ideal.misses;
  report.oracle_makespan_s = ideal.makespan.to_seconds();
  if (input.expect_timeliness && !ideal.feasible) {
    sink.add("scenario declared timely but the ideal centralized NP-EDF "
             "already misses " +
             std::to_string(ideal.misses) + " deadline(s)");
  }

  // --- EDF dispatch order --------------------------------------------------
  // A delivered message must not overtake a message that was already
  // waiting with a deadline earlier by more than the protocol's legal
  // granularity. Sweep deliveries in transmission order against the set of
  // arrived-but-undelivered messages (O(n log n)).
  if (input.protocol_is_ddcr && !input.ddcr.drop_late_messages) {
    const Duration tolerance =
        input.edf_tolerance > Duration()
            ? input.edf_tolerance
            : input.ddcr.horizon() + input.ddcr.alpha +
                  input.ddcr.class_width_c;
    std::vector<const traffic::Message*> by_arrival;
    by_arrival.reserve(input.messages.size());
    for (const traffic::Message& msg : input.messages) {
      by_arrival.push_back(&msg);
    }
    std::sort(by_arrival.begin(), by_arrival.end(),
              [](const traffic::Message* a, const traffic::Message* b) {
                if (a->arrival != b->arrival) return a->arrival < b->arrival;
                return a->uid < b->uid;
              });
    std::vector<Delivery> in_tx_order = deliveries;
    std::sort(in_tx_order.begin(), in_tx_order.end(),
              [](const Delivery& a, const Delivery& b) {
                return a.start < b.start;
              });
    std::set<std::pair<SimTime, std::int64_t>> waiting;  // (deadline, uid)
    std::map<std::int64_t, SimTime> waiting_deadline;
    std::set<std::int64_t> transmitted;
    std::size_t next_arrival = 0;
    for (const Delivery& d : in_tx_order) {
      // Strictly-before: an arrival racing the slot boundary may or may not
      // have been visible to the transmitter's poll. A message that starts
      // transmitting in its very arrival slot is ingested *after* its own
      // delivery sweeps past — the transmitted set keeps it out of waiting.
      transmitted.insert(d.uid);
      while (next_arrival < by_arrival.size() &&
             by_arrival[next_arrival]->arrival < d.start) {
        const traffic::Message* msg = by_arrival[next_arrival];
        if (transmitted.count(msg->uid) == 0) {
          waiting.emplace(msg->absolute_deadline, msg->uid);
          waiting_deadline.emplace(msg->uid, msg->absolute_deadline);
        }
        ++next_arrival;
      }
      const auto mine = waiting_deadline.find(d.uid);
      if (mine != waiting_deadline.end()) {
        waiting.erase({mine->second, d.uid});
        waiting_deadline.erase(mine);
      }
      if (d.in_burst || waiting.empty()) {
        continue;  // bursts legally chain the winner's queue
      }
      ++report.edf_pairs_checked;
      const auto& [min_deadline, min_uid] = *waiting.begin();
      if (d.deadline - min_deadline > tolerance) {
        std::ostringstream os;
        os << "EDF order violated: uid " << d.uid << " (DM "
           << d.deadline.str() << ") transmitted at " << d.start.str()
           << " while uid " << min_uid << " (DM " << min_deadline.str()
           << ") had been waiting; skew exceeds tolerance "
           << tolerance.str();
        sink.add(os.str());
      }
    }
  }

  // --- epoch replica, xi / P2 bounds, counter cross-checks -----------------
  const bool track_epochs = input.protocol_is_ddcr && destructive &&
                            !may_corrupt && input.replicas_clean;
  if (track_epochs) {
    EpochTracker tracker(input.ddcr);
    for (const ConformanceRecorder::Entry& entry : entries) {
      if (entry.gap_slots > 0) {
        continue;  // gaps require all-quiescent: plain CSMA-CD silences
      }
      tracker.on_slot(entry.record);
    }
    tracker.finish();
    report.epochs = tracker.epochs();

    if (!input.ddcr.drop_late_messages) {
      BoundChecker bounds(input.ddcr, arrivals);
      bounds.run(tracker);
      report.tts_bound_checked = bounds.tts_checked();
      report.sts_bound_checked = bounds.sts_checked();
      report.p2_windows_checked = bounds.p2_windows_checked();
      for (const std::string& violation : bounds.violations()) {
        sink.add(violation);
      }
    }

    if (input.per_station != nullptr && whole_run && !may_corrupt) {
      // Every synced replica hears every slot, so each station's own search
      // accounting must agree with the channel-side replica. A search still
      // in progress when the run ended is counted by stations but discarded
      // by the tracker, so equality only holds for fully-drained streams.
      for (const core::DdcrStation::Counters& c : *input.per_station) {
        if (c.epochs != tracker.epochs()) {
          sink.add("epoch accounting drift: station counted " +
                   std::to_string(c.epochs) + " epochs, channel replica " +
                   std::to_string(tracker.epochs()));
        }
        const std::int64_t tts_runs =
            static_cast<std::int64_t>(tracker.tts_runs().size());
        const std::int64_t sts_runs =
            static_cast<std::int64_t>(tracker.sts_runs().size());
        const bool exact = !tracker.truncated_mid_search();
        if (exact ? c.tts_runs != tts_runs : c.tts_runs < tts_runs) {
          sink.add("TTs run accounting drift: station " +
                   std::to_string(c.tts_runs) + " vs replica " +
                   std::to_string(tts_runs));
        }
        if (exact ? c.sts_runs != sts_runs : c.sts_runs < sts_runs) {
          sink.add("STs run accounting drift: station " +
                   std::to_string(c.sts_runs) + " vs replica " +
                   std::to_string(sts_runs));
        }
        if (exact
                ? c.search_slots_time != tracker.total_tts_search_slots()
                : c.search_slots_time < tracker.total_tts_search_slots()) {
          sink.add("TTs search-slot accounting drift: station " +
                   std::to_string(c.search_slots_time) + " vs replica " +
                   std::to_string(tracker.total_tts_search_slots()));
        }
        if (exact
                ? c.search_slots_static != tracker.total_sts_search_slots()
                : c.search_slots_static < tracker.total_sts_search_slots()) {
          sink.add("STs search-slot accounting drift: station " +
                   std::to_string(c.search_slots_static) + " vs replica " +
                   std::to_string(tracker.total_sts_search_slots()));
        }
      }
    }
  }

  // --- bounded lateness vs the oracle --------------------------------------
  // The protocol may finish later than the clairvoyant single-queue server
  // only by overhead the analysis accounts: silences while work was
  // pending, contention slots, and arbitration preambles (plus two slots of
  // grid-alignment slack). Everything else — transmission time — is
  // identical on both sides.
  if (input.protocol_is_ddcr && input.expect_drain && whole_run && clean &&
      !input.ddcr.drop_late_messages && !deliveries.empty()) {
    const Duration slack = input.phy.slot_x * 2;
    const SimTime bound = ideal.makespan + busy_silence + contention +
                          arbitration_extra + slack;
    if (observed_makespan > bound) {
      std::ostringstream os;
      os << "lateness vs oracle unbounded: last completion "
         << observed_makespan.str() << " > ideal " << ideal.makespan.str()
         << " + accounted overhead (" << (bound - ideal.makespan).str()
         << ")";
      sink.add(os.str());
    }
  }

  // --- channel accounting cross-check --------------------------------------
  if (input.stats != nullptr && whole_run) {
    std::int64_t silences = 0;
    std::int64_t collisions = 0;
    std::int64_t successes = 0;
    for (const ConformanceRecorder::Entry& entry : entries) {
      if (entry.gap_slots > 0) {
        silences += entry.gap_slots;
        continue;
      }
      switch (entry.record.kind) {
        case net::SlotKind::kSilence: ++silences; break;
        case net::SlotKind::kCollision: ++collisions; break;
        case net::SlotKind::kSuccess: ++successes; break;
      }
    }
    if (silences != input.stats->silence_slots ||
        collisions != input.stats->collision_slots ||
        successes != input.stats->successes) {
      std::ostringstream os;
      os << "channel accounting drift: recorded " << silences << "/"
         << collisions << "/" << successes
         << " silence/collision/success vs stats "
         << input.stats->silence_slots << "/"
         << input.stats->collision_slots << "/" << input.stats->successes;
      sink.add(os.str());
    }
  }

  sink.finalize();
  return report;
}

namespace {

/// The auditor run_ddcr instantiates for conformance-checked runs: records
/// the ground truth during the run, regenerates the identical arrival
/// stream afterwards (generate_traffic is deterministic in (workload, kind,
/// horizon, seed)) and judges the recording.
class RunConformanceAuditor final : public core::RunAuditor {
 public:
  RunConformanceAuditor(const traffic::Workload& workload,
                        const core::DdcrRunOptions& options)
      : workload_(workload), options_(options) {}

  net::ChannelObserver& observer() override { return recorder_; }

  void finish(core::DdcrRunResult& result) override {
    ConformanceInput input;
    const auto traffic = traffic::generate_traffic(
        workload_, options_.arrivals, options_.arrival_horizon,
        options_.seed);
    for (const auto& source : traffic.per_source) {
      input.messages.insert(input.messages.end(), source.begin(),
                            source.end());
    }
    input.phy = options_.phy;
    input.collision_mode = options_.collision_mode;
    input.ddcr = options_.ddcr;
    input.protocol_is_ddcr = true;
    input.replicas_clean = result.desyncs_detected == 0 &&
                           result.quarantines == 0 && result.rejoins == 0;
    input.expect_drain =
        result.undelivered == 0 && result.dropped_late == 0;
    input.stats = &result.channel;
    input.per_station = &result.per_station;
    result.conformance = ConformanceComparator{}.check(input, recorder_);
    if (!result.conformance.ok) {
      // The run's black box, rendered next to the violation so whoever
      // pins the failure as a .repro can dump the causal history with it.
      result.conformance.flight_dump =
          obs::FlightRecorder::format_window(result.flight_window);
      write_flight_dump(result);
    }
  }

  /// With HRTDM_FLIGHT_DUMP_DIR set (CI exports it for every ctest run),
  /// each violating run drops its flight-recorder window into that
  /// directory as conformance_<n>.flightrec — the artifact CI uploads when
  /// a test fails, so the causal history survives the runner.
  static void write_flight_dump(const core::DdcrRunResult& result) {
    const char* dir = std::getenv("HRTDM_FLIGHT_DUMP_DIR");
    if (dir == nullptr || dir[0] == '\0') {
      return;
    }
    static std::atomic<int> sequence{0};
    const int n = sequence.fetch_add(1, std::memory_order_relaxed);
    const std::string path = std::string(dir) + "/conformance_" +
                             std::to_string(n) + ".flightrec";
    std::ofstream out(path);
    if (!out.good()) {
      return;  // the dump is best-effort: never fail the run over it
    }
    out << result.conformance.summary() << "\n";
    for (const std::string& violation : result.conformance.violations) {
      out << "violation: " << violation << "\n";
    }
    out << result.conformance.flight_dump;
  }

 private:
  traffic::Workload workload_;
  core::DdcrRunOptions options_;
  ConformanceRecorder recorder_;
};

std::unique_ptr<core::RunAuditor> make_auditor(
    const traffic::Workload& workload, const core::DdcrRunOptions& resolved) {
  return std::make_unique<RunConformanceAuditor>(workload, resolved);
}

}  // namespace

bool install_conformance_auditor() {
  core::set_auditor_factory(&make_auditor);
  return true;
}

}  // namespace hrtdm::check
