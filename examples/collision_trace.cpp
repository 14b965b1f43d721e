// Slot-level anatomy of one CSMA/DDCR epoch, rendered as an ASCII
// timeline from the testbed's flight recorder. Five stations collide; the
// trace shows the initial collision (X), the time-tree descent (X/.
// probes), the successful transmissions (#) and the return to silence —
// exactly the slot sequence the paper's xi analysis counts.
//
// Alongside the ASCII view, the same epoch is exported as a Perfetto
// trace (Chrome trace-event JSON) through obs::EventTracer: the channel's
// slot track sits next to one track per station showing the TTs/STs
// descent probes and epoch markers. Open the file at
// https://ui.perfetto.dev (or chrome://tracing).
//
// Build & run:  ./build/examples/collision_trace [trace-out.json]
#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

#include "core/ddcr_network.hpp"
#include "obs/event_tracer.hpp"
#include "obs/flight_recorder.hpp"
#include "traffic/message.hpp"

namespace {

/// The slots of a flight-recorder window as an ASCII timeline, `width`
/// slots per row, each row labelled with its first slot's start time.
/// A slot record carries its end time and its duration (t_ns, a); an idle
/// gap record stands for `b` silence slots of equal length.
std::string ascii_timeline(const std::vector<hrtdm::obs::FrRecord>& window,
                           std::size_t width) {
  using hrtdm::obs::FrKind;
  struct Slot {
    std::int64_t start_ns;
    char symbol;
  };
  std::vector<Slot> slots;
  for (const hrtdm::obs::FrRecord& r : window) {
    const std::int64_t start_ns = r.t_ns - r.a;
    if (r.kind == FrKind::kSlotSilence) {
      slots.push_back({start_ns, '.'});
    } else if (r.kind == FrKind::kSlotCollision) {
      slots.push_back({start_ns, 'X'});
    } else if (r.kind == FrKind::kSlotSuccess) {
      slots.push_back({start_ns, '#'});
    } else if (r.kind == FrKind::kIdleGap) {
      for (std::int64_t k = 0; k < r.b; ++k) {
        slots.push_back({start_ns + k * (r.a / r.b), '.'});
      }
    }
  }
  std::string out;
  for (std::size_t i = 0; i < slots.size(); i += width) {
    out += hrtdm::util::SimTime::from_ns(slots[i].start_ns).str() + "  ";
    for (std::size_t j = i; j < std::min(i + width, slots.size()); ++j) {
      out += slots[j].symbol;
    }
    out += '\n';
  }
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace hrtdm;

  core::DdcrRunOptions options;
  options.phy.slot_x = util::Duration::nanoseconds(100);
  options.phy.psi_bps = 1e9;
  options.phy.overhead_bits = 0;
  options.ddcr.m_time = 2;
  options.ddcr.F = 16;
  options.ddcr.m_static = 2;
  options.ddcr.q = 16;
  options.ddcr.class_width_c = util::Duration::microseconds(1);
  options.ddcr.alpha = util::Duration::nanoseconds(0);

  // An explicit tracer (not the HRTDM_TRACE_OUT-gated global) so the
  // example always demonstrates the Perfetto export.
  obs::EventTracer tracer;
  options.tracer = &tracer;

  core::DdcrTestbed bed(5, options);

  // Five messages: three distinct deadline classes plus a same-class pair
  // that will need the static tie-break.
  const std::int64_t deadlines_us[] = {5, 5, 8, 11, 14};
  for (int s = 0; s < 5; ++s) {
    traffic::Message msg;
    msg.uid = s;
    msg.class_id = s;
    msg.source = s;
    msg.l_bits = 200;  // 200 ns = 2 slots of transmission
    msg.arrival = sim::SimTime::zero();
    msg.absolute_deadline =
        sim::SimTime::from_ns(deadlines_us[s] * 1'000);
    bed.inject(s, msg);
  }
  bed.run_until_delivered(5, sim::SimTime::from_ns(1'000'000));
  bed.run(bed.simulator().now() + options.phy.slot_x * 6);  // trailing idle

  // Every testbed owns a flight recorder that holds the channel's slot
  // records (and the protocol's causal records) of the run.
  const std::vector<obs::FrRecord> window = bed.flight_recorder().window();
  std::printf("5 stations, deadlines {5, 5, 8, 11, 14} us, c = 1 us\n");
  if (window.empty()) {
    std::printf("(no slot timeline: this build sets HRTDM_OBS_OFF, which "
                "compiles the flight recorder out)\n\n");
  } else {
    std::printf("legend: X collision   . silence   # transmission\n\n");
    std::printf("%s\n", ascii_timeline(window, 64).c_str());
  }

  std::printf("delivery order (expect EDF, station 0/1 tie broken by "
              "static index):\n");
  for (const auto& tx : bed.metrics().log()) {
    std::printf("  t=%6lld ns  station %d  (deadline %lld us)\n",
                static_cast<long long>(tx.completed.ns()), tx.source,
                static_cast<long long>(tx.deadline.ns() / 1000));
  }

  const auto& counters = bed.station(0).counters();
  std::printf("\nepochs: %lld, time tree searches: %lld, static searches: "
              "%lld\n",
              static_cast<long long>(counters.epochs),
              static_cast<long long>(counters.tts_runs),
              static_cast<long long>(counters.sts_runs));
  std::printf("time-tree search slots heard: %lld, static: %lld\n",
              static_cast<long long>(counters.search_slots_time),
              static_cast<long long>(counters.search_slots_static));
  if (!window.empty()) {
    std::printf("\nflight recorder (first 4 of %zu records):\n",
                window.size());
    for (std::size_t i = 0; i < std::min<std::size_t>(4, window.size());
         ++i) {
      std::printf("  %s",
                  obs::FlightRecorder::format_window({window[i]}).c_str());
    }
  }

  // End-of-run introspection: every station should be back in CSMA-CD
  // with an empty queue.
  std::printf("\nstation snapshots:\n");
  for (const auto& snap : bed.station_snapshots()) {
    std::printf("  station %d: mode=%s queue=%zu reft=%lld ns\n", snap.id,
                snap.mode, snap.queue_depth,
                static_cast<long long>(snap.reft_ns));
  }

  const char* trace_path =
      argc > 1 ? argv[1] : "collision_trace.perfetto.json";
  if (tracer.write_chrome_json(trace_path)) {
    std::printf("\nwrote %s (%zu events; open at https://ui.perfetto.dev)\n",
                trace_path, tracer.size());
  } else {
    std::printf("\nfailed to write %s\n", trace_path);
    return 1;
  }
  return 0;
}
