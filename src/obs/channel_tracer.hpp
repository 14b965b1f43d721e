// ChannelObserver -> EventTracer adapter: turns every resolved channel
// slot into a complete ('X') event on the channel's own trace track
// (pid = channel id, tid = 0), next to the per-station protocol tracks
// the DdcrStation hooks populate on tid = station + 1.
//
// Header-only on purpose: obs must not link against net (util links obs,
// net links util), so the only net dependency lives in whoever includes
// this adapter — core and bench code that already links both.
#pragma once

#include "net/channel.hpp"
#include "obs/event_tracer.hpp"

namespace hrtdm::obs {

class ChannelTracer final : public net::ChannelObserver {
 public:
  ChannelTracer(EventTracer& tracer, int channel_id)
      : tracer_(tracer), pid_(channel_id) {
    tracer_.set_process_name(pid_, "channel " + std::to_string(channel_id));
    tracer_.set_thread_name(pid_, 0, "channel");
  }

  /// A fast-forwarded idle gap renders as one merged span instead of
  /// thousands of identical per-slot silence spans — same covered interval,
  /// far smaller trace.
  void on_idle_gap(std::int64_t slots, net::SimTime first_start,
                   util::Duration slot_x) override {
    if (!tracer_.enabled() || slots <= 0) {
      return;
    }
    tracer_.complete(pid_, 0, first_start.ns(), (slot_x * slots).ns(), "idle",
                     "contenders,source,bits", 0, -1, 0);
  }

  /// A fully elapsed compiled span renders as an instant marker on the
  /// channel track: the per-slot stream above already drew the exact slots
  /// (the channel's span flush replays them through on_slot), so a span
  /// marker — not a covering span — keeps the track free of double-covered
  /// time while still making compiled regions visible.
  void on_compiled_span_commit(net::SimTime start, net::SimTime end,
                               std::int64_t slots) override {
    if (!tracer_.enabled()) {
      return;
    }
    tracer_.instant(pid_, 0, start.ns(), "compiled-span",
                    "contenders,source,bits", slots, -1,
                    end.ns() - start.ns());
  }

  void on_slot(const net::SlotRecord& record) override {
    // Registry counters for these slots live in BroadcastChannel::deliver
    // (they populate whether or not a tracer is installed); this adapter
    // only renders the slot onto the Perfetto channel track.
    const char* name = "silence";
    switch (record.kind) {
      case net::SlotKind::kSilence:
        name = "silence";
        break;
      case net::SlotKind::kCollision:
        name = record.arbitration ? "arbitration" : "collision";
        break;
      case net::SlotKind::kSuccess:
        name = record.in_burst ? "burst" : "tx";
        break;
    }
    if (!tracer_.enabled()) {
      return;
    }
    const std::int64_t source =
        record.frame.has_value() ? record.frame->source : -1;
    const std::int64_t bits = record.frame.has_value() ? record.frame->l_bits : 0;
    tracer_.complete(pid_, 0, record.start.ns(),
                     record.end.ns() - record.start.ns(), name,
                     "contenders,source,bits", record.contenders, source, bits);
  }

 private:
  EventTracer& tracer_;
  std::int32_t pid_;
};

}  // namespace hrtdm::obs
