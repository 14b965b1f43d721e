#include "core/fabric.hpp"

#include <algorithm>
#include <cstring>
#include <memory>
#include <utility>

#include "obs/registry.hpp"
#include "obs/sampler.hpp"
#include "util/check.hpp"
#include "util/thread_pool.hpp"

namespace hrtdm::core {

// --- StationSoA -----------------------------------------------------------

namespace {

std::size_t pad_up(std::size_t n) {
  return (n + StationSoA::kPadEntries - 1) & ~(StationSoA::kPadEntries - 1);
}

}  // namespace

void StationSoA::build(const std::vector<int>& stations_per_channel) {
  base_.clear();
  count_.clear();
  size_ = 0;
  std::size_t padded = 0;
  for (const int n : stations_per_channel) {
    HRTDM_EXPECT(n >= 0, "negative station count in SoA layout");
    base_.push_back(padded);
    count_.push_back(static_cast<std::size_t>(n));
    size_ += static_cast<std::size_t>(n);
    padded += pad_up(static_cast<std::size_t>(n));
  }
  head_deadline_ns_.assign(padded, 0);
  reft_ns_.assign(padded, 0);
  id_.assign(padded, -1);
  backlog_.assign(padded, 0);
  flags_.assign(padded, 0);
}

void StationSoA::store(std::size_t slot, std::int32_t id,
                       DdcrStation::Mode mode, bool synced, bool online,
                       std::size_t queue_depth, bool has_head,
                       std::int64_t head_deadline_ns, std::int64_t reft_ns) {
  id_[slot] = id;
  head_deadline_ns_[slot] = head_deadline_ns;
  reft_ns_[slot] = reft_ns;
  backlog_[slot] = static_cast<std::int32_t>(queue_depth);
  flags_[slot] = static_cast<std::uint8_t>(
      (synced ? 1 : 0) | (online ? 2 : 0) | (has_head ? 4 : 0) |
      (static_cast<std::uint8_t>(mode) << 3));
}

void StationSoA::load(std::size_t slot, const DdcrStation& station) {
  const std::optional<Message> head = station.queue().head();
  store(slot, station.id(), station.mode(), station.synced(),
        station.online(), station.queue().size(), head.has_value(),
        head ? head->absolute_deadline.ns() : 0, station.reft().ns());
}

void StationSoA::load(std::size_t slot, const StationSnapshot& snap) {
  DdcrStation::Mode mode = DdcrStation::Mode::kCsmaCd;
  for (const DdcrStation::Mode m :
       {DdcrStation::Mode::kCsmaCd, DdcrStation::Mode::kTimeSearch,
        DdcrStation::Mode::kStaticSearch, DdcrStation::Mode::kResync,
        DdcrStation::Mode::kOffline}) {
    if (std::strcmp(snap.mode, DdcrStation::mode_name(m)) == 0) {
      mode = m;
      break;
    }
  }
  // The snapshot has no separate online flag; it is a pure function of the
  // mode, exactly as in DdcrStation::online().
  store(slot, snap.id, mode, snap.synced, mode != DdcrStation::Mode::kOffline,
        snap.queue_depth, snap.has_head, snap.head_deadline_ns, snap.reft_ns);
}

StationSnapshot StationSoA::hot_snapshot(std::size_t slot) const {
  StationSnapshot snap;
  snap.id = id_[slot];
  snap.mode = DdcrStation::mode_name(mode(slot));
  snap.synced = synced(slot);
  snap.queue_depth = static_cast<std::size_t>(backlog_[slot]);
  snap.has_head = has_head(slot);
  snap.head_deadline_ns = head_deadline_ns_[slot];
  snap.reft_ns = reft_ns_[slot];
  return snap;
}

StationSoA::Aggregate StationSoA::aggregate(int channel) const {
  Aggregate agg;
  const std::size_t lo = base(channel);
  const std::size_t hi = lo + count(channel);
  for (std::size_t slot = lo; slot < hi; ++slot) {
    agg.backlog += backlog_[slot];
    const std::uint8_t f = flags_[slot];
    agg.synced += f & 1;
    agg.online += (f >> 1) & 1;
    if ((f & 4) != 0 && head_deadline_ns_[slot] < agg.min_head_deadline_ns) {
      agg.min_head_deadline_ns = head_deadline_ns_[slot];
    }
  }
  return agg;
}

StationSoA::Aggregate StationSoA::aggregate_all() const {
  Aggregate agg;
  for (int ch = 0; ch < channels(); ++ch) {
    const Aggregate part = aggregate(ch);
    agg.backlog += part.backlog;
    agg.synced += part.synced;
    agg.online += part.online;
    agg.min_head_deadline_ns =
        std::min(agg.min_head_deadline_ns, part.min_head_deadline_ns);
  }
  return agg;
}

// --- per-channel runner ---------------------------------------------------

namespace {

/// Records every delivered frame (with its slot end) for bridge relay at
/// the next barrier. Compiled-span flushes replay the exact per-slot
/// on_slot stream, so captures are complete under the fast path too.
class BridgeCapture final : public net::ChannelObserver {
 public:
  struct Captured {
    net::Frame frame;
    SimTime end;  ///< delivery completion (slot end)
  };

  void on_slot(const net::SlotRecord& record) override {
    if (record.kind == net::SlotKind::kSuccess && record.frame.has_value()) {
      captured_.push_back({*record.frame, record.end});
    }
  }

  /// Idle gaps hold only silence — skip the synthesized per-slot calls.
  void on_idle_gap(std::int64_t slots, SimTime first_start,
                   util::Duration slot_x) override {
    (void)slots;
    (void)first_start;
    (void)slot_x;
  }

  std::vector<Captured> take() {
    std::vector<Captured> out;
    out.swap(captured_);
    return out;
  }

 private:
  std::vector<Captured> captured_;
};

/// Everything needed to open one channel, staged serially up front.
struct ChannelSetup {
  traffic::Workload sub;   ///< the channel's sources (workload channels)
  DdcrRunOptions options;  ///< per-channel; the testbed resolves them
  /// Replay channels (run_fabric_replay): explicit messages for
  /// `replay_stations` stations instead of a generating workload.
  const std::vector<traffic::Message>* replay = nullptr;
  int replay_stations = 0;
  bool empty = false;
};

/// One live fabric channel: a DdcrTestbed (the run_ddcr object graph and
/// result assembly) steerable from outside so the barrier loop can advance
/// every channel in lockstep, plus what only the fabric needs: bridge
/// capture, relay injection and their counters, the lean summary and the
/// SoA refresh.
class ChannelRunner {
 public:
  /// Arrivals are injected exactly as run_ddcr() injects them (replay
  /// channels: the explicit messages, in order); start() is left to the
  /// first advance().
  ChannelRunner(const ChannelSetup& setup, bool capture_bridges)
      : bed_(setup.replay != nullptr
                 ? std::make_unique<DdcrTestbed>(setup.replay_stations,
                                                 setup.options)
                 : std::make_unique<DdcrTestbed>(setup.sub, setup.options)) {
    if (capture_bridges) {
      bridge_capture_ = std::make_unique<BridgeCapture>();
      bed_->channel().add_observer(*bridge_capture_);
    }
    if (setup.replay != nullptr) {
      for (const traffic::Message& msg : *setup.replay) {
        bed_->inject(msg.source, msg);
      }
    } else {
      const DdcrRunOptions& resolved = bed_->options();
      bed_->inject(traffic::generate_traffic(setup.sub, resolved.arrivals,
                                             resolved.arrival_horizon,
                                             resolved.seed));
    }
  }

  ChannelRunner(const ChannelRunner&) = delete;
  ChannelRunner& operator=(const ChannelRunner&) = delete;

  void advance(SimTime t) { bed_->advance(t); }
  void drain(SimTime cap) { bed_->drain(cap); }
  void stop() { bed_->stop(); }

  /// "Still working" predicate at a barrier: messages queued (modulo
  /// compiled-span hand-off lag) or relays injected but not yet arrived.
  bool drained() const { return bed_->drained() && pending_relays_ == 0; }

  /// Enqueues a bridge relay at msg.arrival (>= now). `origin_uid` is the
  /// relayed frame's uid, for the flight-recorder breadcrumb. Relays are
  /// not injected messages: they never count as generated.
  void inject_relay(const traffic::Message& msg,
                    [[maybe_unused]] std::int64_t origin_uid) {
    DdcrStation* station = &bed_->station(msg.source);
    ++pending_relays_;
    ++bridge_injected_;
    bed_->simulator().schedule_at(
        msg.arrival,
        [this, station, msg] {
          station->enqueue(msg);
          --pending_relays_;
        },
        "bridge-relay");
    HRTDM_FR_RECORD(&bed_->flight_recorder(), obs::FrKind::kBridgeHop,
                    msg.arrival.ns(), msg.source, msg.arrival.ns(),
                    origin_uid);
  }

  std::vector<BridgeCapture::Captured> take_captured() {
    auto out = bridge_capture_->take();
    bridge_captured_ += static_cast<std::int64_t>(out.size());
    return out;
  }

  void refresh_soa(StationSoA& soa, std::size_t base) {
    for (int s = 0; s < bed_->station_count(); ++s) {
      soa.load(base + static_cast<std::size_t>(s), bed_->station(s));
    }
  }

  int station_count() const { return bed_->station_count(); }
  bool audited() const { return bed_->options().conformance_check; }

  /// Lean summary: reads the collector's running tallies instead of
  /// summarizing its log, so its cost does not grow with deliveries or
  /// classes. Call after stop().
  FabricChannelSummary summarize() {
    FabricChannelSummary s;
    s.stations = bed_->station_count();
    s.generated = bed_->injected();
    const MetricsCollector& metrics = bed_->metrics();
    s.delivered = static_cast<std::int64_t>(metrics.log().size());
    s.misses = metrics.misses();
    s.worst_latency_s = metrics.worst_latency_s();
    s.undelivered = bed_->queued();
    s.utilization = bed_->channel().utilization();
    const net::ChannelStats& stats = bed_->channel().stats();
    s.slots = stats.silence_slots + stats.collision_slots + stats.successes;
    s.protocol_digest = bed_->protocol_digest();
    for (int i = 0; i < bed_->station_count(); ++i) {
      s.dropped_late += bed_->station(i).counters().dropped_late;
    }
    s.consistency_ok = bed_->consistency_ok();
    s.bridge_captured = bridge_captured_;
    s.bridge_injected = bridge_injected_;
    return s;
  }

  /// The full run_ddcr() result (collect_channel_results and audited
  /// channels — the auditor needs the fully populated result).
  DdcrRunResult full_result() { return bed_->result(); }

 private:
  std::unique_ptr<DdcrTestbed> bed_;
  std::unique_ptr<BridgeCapture> bridge_capture_;
  std::int64_t bridge_captured_ = 0;
  std::int64_t bridge_injected_ = 0;
  std::int64_t pending_relays_ = 0;
};

std::vector<ChannelSetup> stage_channels(const traffic::Workload& workload,
                                         const ChannelPlan& plan,
                                         const FabricOptions& options) {
  std::vector<ChannelSetup> setups(
      static_cast<std::size_t>(options.channels));
  for (int ch = 0; ch < options.channels; ++ch) {
    ChannelSetup& setup = setups[static_cast<std::size_t>(ch)];
    setup.sub = channel_workload(workload, plan, ch);
    if (setup.sub.sources.empty()) {
      setup.empty = true;
      continue;
    }
    setup.options = options.run;
    setup.options.ddcr.static_indices.clear();  // re-derive per channel
    setup.options.seed = channel_seed(options.run.seed, ch);
    setup.options.trace_channel = ch;
    if (options.audit_stride > 0 && ch % options.audit_stride == 0) {
      setup.options.conformance_check = true;
    }
  }
  return setups;
}

void validate_common(const FabricOptions& options) {
  HRTDM_EXPECT(options.channels >= 1, "need at least one fabric channel");
  HRTDM_EXPECT(options.shards >= 1, "need at least one shard");
  HRTDM_EXPECT(options.audit_stride >= 0,
               "audit_stride cannot be negative");
  for (const BridgeSpec& bridge : options.bridges) {
    HRTDM_EXPECT(bridge.from_channel >= 0 &&
                     bridge.from_channel < options.channels &&
                     bridge.to_channel >= 0 &&
                     bridge.to_channel < options.channels,
                 "bridge channel index out of range");
    HRTDM_EXPECT(bridge.from_channel != bridge.to_channel,
                 "bridge endpoints must differ");
    HRTDM_EXPECT(bridge.to_source >= 0, "bridge to_source cannot be negative");
    HRTDM_EXPECT(bridge.latency.ns() > 0, "bridge latency must be positive");
  }
}

void aggregate_result(FabricResult& result) {
  result.protocol_digest = 0xcbf29ce484222325ULL;  // FNV-1a offset basis
  double utilization_sum = 0.0;
  int live_channels = 0;
  for (const FabricChannelSummary& s : result.channels) {
    result.protocol_digest =
        (result.protocol_digest ^ s.protocol_digest) * 0x100000001b3ULL;
    result.stations += s.stations;
    result.generated += s.generated;
    result.delivered += s.delivered;
    result.misses += s.misses;
    result.undelivered += s.undelivered;
    result.dropped_late += s.dropped_late;
    result.worst_latency_s = std::max(result.worst_latency_s,
                                      s.worst_latency_s);
    result.station_slots += s.stations * s.slots;
    result.bridge_captured += s.bridge_captured;
    result.bridge_injected += s.bridge_injected;
    result.consistency_ok = result.consistency_ok && s.consistency_ok;
    if (s.conformance_checked) {
      ++result.audited_channels;
      result.conformance_ok = result.conformance_ok && s.conformance_ok;
    }
    if (s.generated > 0) {
      utilization_sum += s.utilization;
      ++live_channels;
    }
  }
  result.mean_utilization =
      live_channels > 0 ? utilization_sum / live_channels : 0.0;
}

void set_fabric_gauges(const StationSoA& soa) {
  [[maybe_unused]] const StationSoA::Aggregate agg = soa.aggregate_all();
  HRTDM_GAUGE_SET("fabric.stations", static_cast<std::int64_t>(soa.size()));
  HRTDM_GAUGE_SET("fabric.backlog", agg.backlog);
  HRTDM_GAUGE_SET("fabric.synced", agg.synced);
  HRTDM_GAUGE_SET("fabric.online", agg.online);
}

/// Finishes one stopped runner: SoA refresh, summary, optional full result.
void harvest(ChannelRunner& runner, int ch, const FabricOptions& options,
             FabricResult& result) {
  runner.refresh_soa(result.soa, result.soa.base(ch));
  FabricChannelSummary s = runner.summarize();
  if (runner.audited() || options.collect_channel_results) {
    DdcrRunResult full = runner.full_result();
    s.conformance_checked = full.conformance.checked;
    s.conformance_ok = full.conformance.ok;
    if (options.collect_channel_results) {
      result.full[static_cast<std::size_t>(ch)] = std::move(full);
    }
  }
  result.channels[static_cast<std::size_t>(ch)] = std::move(s);
  HRTDM_COUNT("fabric.channels.completed");
}

/// Independent-channel path: construct, run and destroy each channel
/// entirely inside its shard task (first-touch NUMA placement; peak memory
/// is one live channel per shard, not one per channel).
void run_unbridged(const std::vector<ChannelSetup>& setups, SimTime horizon,
                   const FabricOptions& options, FabricResult& result) {
  util::parallel_for_index(
      options.shards, options.channels, [&](std::int64_t ch) {
        const ChannelSetup& setup = setups[static_cast<std::size_t>(ch)];
        if (setup.empty) {
          return;
        }
        ChannelRunner runner(setup, /*capture_bridges=*/false);
        runner.advance(horizon);
        runner.drain(options.run.drain_cap);
        runner.stop();
        harvest(runner, static_cast<int>(ch), options, result);
      });
}

/// Barrier path (bridges and/or sampler): every channel lives for the whole
/// run and advances in lockstep quanta; bridge relays are drained serially
/// at each barrier, so results are deterministic and shard-count invariant.
void run_barriers(const std::vector<ChannelSetup>& setups, SimTime horizon,
                  const FabricOptions& options, FabricResult& result) {
  util::Duration quantum = options.barrier_quantum;
  if (quantum.ns() == 0) {
    if (options.bridges.empty()) {
      quantum = options.run.phy.slot_x * 1024;
    } else {
      quantum = options.bridges.front().latency;
      for (const BridgeSpec& bridge : options.bridges) {
        quantum = std::min(quantum, bridge.latency);
      }
    }
  }
  HRTDM_EXPECT(quantum.ns() > 0, "barrier quantum must be positive");
  for (const BridgeSpec& bridge : options.bridges) {
    HRTDM_EXPECT(bridge.latency >= quantum,
                 "bridge latency below the barrier quantum breaks relay "
                 "causality: a frame could be due before the next barrier");
  }

  std::vector<char> captures_out(static_cast<std::size_t>(options.channels),
                                 0);
  for (const BridgeSpec& bridge : options.bridges) {
    captures_out[static_cast<std::size_t>(bridge.from_channel)] = 1;
  }

  std::vector<std::unique_ptr<ChannelRunner>> runners(
      static_cast<std::size_t>(options.channels));
  util::parallel_for_index(
      options.shards, options.channels, [&](std::int64_t ch) {
        const ChannelSetup& setup = setups[static_cast<std::size_t>(ch)];
        if (setup.empty) {
          return;
        }
        runners[static_cast<std::size_t>(ch)] = std::make_unique<ChannelRunner>(
            setup, captures_out[static_cast<std::size_t>(ch)] != 0);
      });
  for (const BridgeSpec& bridge : options.bridges) {
    ChannelRunner* dest = runners[static_cast<std::size_t>(bridge.to_channel)]
                              .get();
    HRTDM_EXPECT(dest != nullptr && bridge.to_source < dest->station_count(),
                 "bridge to_source out of range on the destination channel");
  }

  const SimTime cap = std::max(horizon, options.run.drain_cap);
  std::int64_t relay_counter = 0;
  SimTime t = SimTime::from_ns(0);
  while (t < cap) {
    SimTime next = t + quantum;
    if (t < horizon && next > horizon) {
      next = horizon;  // sample the arrival horizon boundary exactly
    }
    if (next > cap) {
      next = cap;
    }
    t = next;
    util::parallel_for_index(options.shards, options.channels,
                             [&](std::int64_t ch) {
                               auto& runner =
                                   runners[static_cast<std::size_t>(ch)];
                               if (runner != nullptr) {
                                 runner->advance(t);
                               }
                             });
    ++result.barriers;
    HRTDM_COUNT("fabric.barriers");

    // Serial bridge drain, in bridge-spec order, capture order within: the
    // relay uid assignment and injection order are a pure function of the
    // captured streams, independent of shard count.
    if (!options.bridges.empty()) {
      std::vector<std::vector<BridgeCapture::Captured>> captured(
          static_cast<std::size_t>(options.channels));
      for (int ch = 0; ch < options.channels; ++ch) {
        if (captures_out[static_cast<std::size_t>(ch)] != 0 &&
            runners[static_cast<std::size_t>(ch)] != nullptr) {
          captured[static_cast<std::size_t>(ch)] =
              runners[static_cast<std::size_t>(ch)]->take_captured();
        }
      }
      for (const BridgeSpec& bridge : options.bridges) {
        ChannelRunner& dest =
            *runners[static_cast<std::size_t>(bridge.to_channel)];
        for (const BridgeCapture::Captured& cap_frame :
             captured[static_cast<std::size_t>(bridge.from_channel)]) {
          traffic::Message relay;
          relay.uid = kBridgeUidBase + relay_counter++;
          relay.class_id = cap_frame.frame.class_id;
          relay.source = bridge.to_source;
          relay.l_bits = cap_frame.frame.l_bits;
          SimTime relay_at = cap_frame.end + bridge.latency;
          if (relay_at < t) {
            relay_at = t;  // unreachable under latency >= quantum; belt
          }
          relay.arrival = relay_at;
          // The relay keeps the original's *relative* deadline budget.
          relay.absolute_deadline =
              relay_at + (cap_frame.frame.absolute_deadline -
                          cap_frame.frame.enqueue_time);
          dest.inject_relay(relay, cap_frame.frame.msg_uid);
          HRTDM_COUNT("fabric.bridge.relayed");
        }
      }
    }

    if (options.sampler != nullptr) {
      for (int ch = 0; ch < options.channels; ++ch) {
        if (runners[static_cast<std::size_t>(ch)] != nullptr) {
          runners[static_cast<std::size_t>(ch)]->refresh_soa(
              result.soa, result.soa.base(ch));
        }
      }
      set_fabric_gauges(result.soa);
      options.sampler->poll(t.ns());
    }

    if (t >= horizon) {
      bool all_drained = true;
      for (const auto& runner : runners) {
        if (runner != nullptr && !runner->drained()) {
          all_drained = false;
          break;
        }
      }
      if (all_drained) {
        break;
      }
    }
  }

  util::parallel_for_index(options.shards, options.channels,
                           [&](std::int64_t ch) {
                             auto& runner =
                                 runners[static_cast<std::size_t>(ch)];
                             if (runner == nullptr) {
                               return;
                             }
                             runner->stop();
                             harvest(*runner, static_cast<int>(ch), options,
                                     result);
                             runner.reset();
                           });
  if (options.sampler != nullptr) {
    set_fabric_gauges(result.soa);
    options.sampler->sample(t.ns());
  }
}

/// Runs the staged channels (free-running, or in barrier mode when bridges
/// or a sampler need it) and aggregates the fabric result.
void run_channels(const std::vector<ChannelSetup>& setups, SimTime horizon,
                  const FabricOptions& options, FabricResult& result) {
  result.channels.resize(static_cast<std::size_t>(options.channels));
  if (options.collect_channel_results) {
    result.full.resize(static_cast<std::size_t>(options.channels));
  }
  if (options.bridges.empty() && options.sampler == nullptr) {
    run_unbridged(setups, horizon, options, result);
  } else {
    run_barriers(setups, horizon, options, result);
  }
  aggregate_result(result);
  set_fabric_gauges(result.soa);
}

}  // namespace

// --- entry points ---------------------------------------------------------

FabricResult run_fabric(const traffic::Workload& workload,
                        const FabricOptions& options) {
  validate_common(options);

  FabricResult result;
  result.plan = plan_channels(workload, options.channels);  // validates
  const std::vector<ChannelSetup> setups =
      stage_channels(workload, result.plan, options);

  std::vector<int> stations_per_channel;
  stations_per_channel.reserve(setups.size());
  for (const ChannelSetup& setup : setups) {
    stations_per_channel.push_back(setup.empty ? 0 : setup.sub.z());
  }
  result.soa.build(stations_per_channel);

  run_channels(setups, options.run.arrival_horizon, options, result);
  return result;
}

FabricResult run_fabric_replay(const std::vector<traffic::Message>& messages,
                               int stations, const FabricOptions& options) {
  validate_common(options);
  HRTDM_EXPECT(stations >= 1, "replay fabric needs at least one station");
  HRTDM_EXPECT(options.audit_stride == 0 && !options.run.conformance_check,
               "conformance auditing needs a generating workload; replay "
               "fabrics have none");
  SimTime horizon = options.run.arrival_horizon;
  for (const traffic::Message& msg : messages) {
    HRTDM_EXPECT(msg.source >= 0 && msg.source < stations,
                 "replay message source out of range");
    if (msg.arrival + util::Duration::nanoseconds(1) > horizon) {
      horizon = msg.arrival + util::Duration::nanoseconds(1);
    }
  }

  FabricResult result;
  result.plan.channels = options.channels;
  result.plan.classes_per_channel.resize(
      static_cast<std::size_t>(options.channels));
  result.plan.load_per_channel.assign(
      static_cast<std::size_t>(options.channels), 0.0);
  result.plan.sources_per_channel.resize(
      static_cast<std::size_t>(options.channels));

  // Every channel is an identical copy: same stations, same messages, same
  // options (seeds feed only generators, which replay skips).
  ChannelSetup setup;
  setup.options = options.run;
  setup.options.ddcr.static_indices.clear();
  setup.replay = &messages;
  setup.replay_stations = stations;
  const std::vector<ChannelSetup> setups(
      static_cast<std::size_t>(options.channels), setup);

  result.soa.build(std::vector<int>(static_cast<std::size_t>(options.channels),
                                    stations));
  run_channels(setups, horizon, options, result);
  return result;
}

}  // namespace hrtdm::core
