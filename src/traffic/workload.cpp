#include "traffic/workload.hpp"

#include <algorithm>
#include <cmath>

#include "util/check.hpp"

namespace hrtdm::traffic {

std::vector<MessageClass> Workload::all_classes() const {
  std::vector<MessageClass> classes;
  for (const auto& src : sources) {
    classes.insert(classes.end(), src.classes.begin(), src.classes.end());
  }
  return classes;
}

void Workload::validate() const {
  HRTDM_EXPECT(!sources.empty(), "workload needs at least one source");
  std::vector<int> source_ids;
  std::vector<int> class_ids;
  source_ids.reserve(sources.size());
  for (const auto& src : sources) {
    HRTDM_EXPECT(src.id >= 0, "source ids must be non-negative");
    source_ids.push_back(src.id);
    for (const auto& cls : src.classes) {
      HRTDM_EXPECT(cls.source == src.id,
                   "class source must match its owning source");
      class_ids.push_back(cls.id);
      HRTDM_EXPECT(cls.l_bits > 0, "class length must be positive");
      HRTDM_EXPECT(cls.d > Duration::nanoseconds(0),
                   "class deadline must be positive");
      HRTDM_EXPECT(cls.a >= 1, "class arrival bound must be >= 1");
      HRTDM_EXPECT(cls.w > Duration::nanoseconds(0),
                   "class window must be positive");
    }
  }
  // Sort-and-scan duplicate checks: linear-logarithmic in a contiguous
  // vector, where a node-based set costs an allocation per id.
  std::sort(source_ids.begin(), source_ids.end());
  HRTDM_EXPECT(std::adjacent_find(source_ids.begin(), source_ids.end()) ==
                   source_ids.end(),
               "duplicate source id");
  std::sort(class_ids.begin(), class_ids.end());
  HRTDM_EXPECT(std::adjacent_find(class_ids.begin(), class_ids.end()) ==
                   class_ids.end(),
               "duplicate class id");
}

Duration Workload::max_deadline() const {
  Duration max_d;
  for (const auto& src : sources) {
    for (const auto& cls : src.classes) {
      max_d = std::max(max_d, cls.d);
    }
  }
  return max_d;
}

double Workload::offered_load_bits_per_second() const {
  double bits_per_second = 0.0;
  for (const auto& src : sources) {
    for (const auto& cls : src.classes) {
      bits_per_second += static_cast<double>(cls.a) *
                         static_cast<double>(cls.l_bits) /
                         cls.w.to_seconds();
    }
  }
  return bits_per_second;
}

Workload Workload::scaled_load(double factor) const {
  HRTDM_EXPECT(factor > 0.0, "load factor must be positive");
  Workload scaled = *this;
  for (auto& src : scaled.sources) {
    for (auto& cls : src.classes) {
      const auto ns = static_cast<std::int64_t>(
          std::llround(static_cast<double>(cls.w.ns()) / factor));
      cls.w = Duration::nanoseconds(std::max<std::int64_t>(ns, cls.a + 1));
    }
  }
  return scaled;
}

GeneratedTraffic generate_traffic(const Workload& workload, ArrivalKind kind,
                                  SimTime horizon, std::uint64_t seed) {
  workload.validate();
  GeneratedTraffic traffic;
  traffic.per_source.resize(workload.sources.size());
  util::Rng rng(seed);
  std::int64_t next_uid = 0;
  for (std::size_t s = 0; s < workload.sources.size(); ++s) {
    std::vector<Message>& out = traffic.per_source[s];
    for (const auto& cls : workload.sources[s].classes) {
      util::Rng class_rng = rng.split();
      const auto times = generate_arrivals(cls, kind, horizon, class_rng);
      const auto msgs = materialize(cls, times, next_uid);
      out.insert(out.end(), msgs.begin(), msgs.end());
    }
    std::sort(out.begin(), out.end(),
              [](const Message& a, const Message& b) {
                if (a.arrival != b.arrival) {
                  return a.arrival < b.arrival;
                }
                return a.uid < b.uid;
              });
    traffic.total_messages += static_cast<std::int64_t>(out.size());
  }
  return traffic;
}

namespace {

MessageClass make_class(int id, std::string name, int source,
                        std::int64_t l_bits, Duration d, std::int64_t a,
                        Duration w) {
  MessageClass cls;
  cls.id = id;
  cls.name = std::move(name);
  cls.source = source;
  cls.l_bits = l_bits;
  cls.d = d;
  cls.a = a;
  cls.w = w;
  return cls;
}

}  // namespace

Workload quickstart(int z) {
  HRTDM_EXPECT(z >= 1, "need at least one source");
  Workload wl;
  wl.name = "quickstart";
  int next_class = 0;
  for (int s = 0; s < z; ++s) {
    SourceSpec src;
    src.id = s;
    src.name = "node-" + std::to_string(s);
    src.classes.push_back(make_class(
        next_class++, "ctl-" + std::to_string(s), s, /*l_bits=*/512 * 8,
        /*d=*/Duration::milliseconds(5), /*a=*/1,
        /*w=*/Duration::milliseconds(10)));
    src.classes.push_back(make_class(
        next_class++, "bulk-" + std::to_string(s), s, /*l_bits=*/12000,
        /*d=*/Duration::milliseconds(20), /*a=*/2,
        /*w=*/Duration::milliseconds(40)));
    wl.sources.push_back(std::move(src));
  }
  return wl;
}

Workload videoconference(int z) {
  HRTDM_EXPECT(z >= 1, "need at least one source");
  Workload wl;
  wl.name = "videoconference";
  int next_class = 0;
  for (int s = 0; s < z; ++s) {
    SourceSpec src;
    src.id = s;
    src.name = "conf-" + std::to_string(s);
    // G.711-ish audio: 160-byte payload every 20 ms, deadline 10 ms.
    src.classes.push_back(make_class(
        next_class++, "audio-" + std::to_string(s), s, 160 * 8,
        Duration::milliseconds(10), 1, Duration::milliseconds(20)));
    // Compressed video: up to 2 slices of 1500 bytes per 33 ms frame.
    src.classes.push_back(make_class(
        next_class++, "video-" + std::to_string(s), s, 1500 * 8,
        Duration::milliseconds(33), 2, Duration::milliseconds(33)));
    // Floor control: rare, small, fairly tight.
    src.classes.push_back(make_class(
        next_class++, "floor-" + std::to_string(s), s, 64 * 8,
        Duration::milliseconds(8), 1, Duration::milliseconds(100)));
    wl.sources.push_back(std::move(src));
  }
  return wl;
}

Workload air_traffic_control(int z) {
  HRTDM_EXPECT(z >= 1, "need at least one source");
  Workload wl;
  wl.name = "air-traffic-control";
  int next_class = 0;
  for (int s = 0; s < z; ++s) {
    SourceSpec src;
    src.id = s;
    src.name = "radar-" + std::to_string(s);
    // Track updates: 4 tracks of 400 bytes per 100 ms sweep.
    src.classes.push_back(make_class(
        next_class++, "track-" + std::to_string(s), s, 400 * 8,
        Duration::milliseconds(50), 4, Duration::milliseconds(100)));
    // Conflict alerts: at most 1 per 200 ms, must go out within 2 ms.
    src.classes.push_back(make_class(
        next_class++, "alert-" + std::to_string(s), s, 128 * 8,
        Duration::milliseconds(2), 1, Duration::milliseconds(200)));
    wl.sources.push_back(std::move(src));
  }
  return wl;
}

Workload stock_exchange(int z) {
  HRTDM_EXPECT(z >= 1, "need at least one source");
  Workload wl;
  wl.name = "stock-exchange";
  int next_class = 0;
  for (int s = 0; s < z; ++s) {
    SourceSpec src;
    src.id = s;
    src.name = "gateway-" + std::to_string(s);
    // Order entries: bursts of 4 per 10 ms, 3 ms deadline.
    src.classes.push_back(make_class(
        next_class++, "order-" + std::to_string(s), s, 256 * 8,
        Duration::milliseconds(3), 4, Duration::milliseconds(10)));
    // Market data ticks: 8 per 20 ms, 15 ms deadline.
    src.classes.push_back(make_class(
        next_class++, "tick-" + std::to_string(s), s, 512 * 8,
        Duration::milliseconds(15), 8, Duration::milliseconds(20)));
    // Audit records: loose.
    src.classes.push_back(make_class(
        next_class++, "audit-" + std::to_string(s), s, 1024 * 8,
        Duration::milliseconds(100), 1, Duration::milliseconds(100)));
    wl.sources.push_back(std::move(src));
  }
  return wl;
}

Workload factory_cell(int z) {
  HRTDM_EXPECT(z >= 1, "need at least one source");
  Workload wl;
  wl.name = "factory-cell";
  int next_class = 0;
  for (int s = 0; s < z; ++s) {
    SourceSpec src;
    src.id = s;
    src.name = "plc-" + std::to_string(s);
    // PLC scan exchange: 64-byte I/O image every 5 ms, 2 ms deadline.
    src.classes.push_back(make_class(
        next_class++, "scan-" + std::to_string(s), s, 64 * 8,
        Duration::milliseconds(2), 1, Duration::milliseconds(5)));
    // Emergency stop: at most one per second, 500 us hard deadline.
    src.classes.push_back(make_class(
        next_class++, "estop-" + std::to_string(s), s, 32 * 8,
        Duration::microseconds(500), 1, Duration::seconds(1)));
    // Supervisory telemetry: 2 KiB per 100 ms, loose.
    src.classes.push_back(make_class(
        next_class++, "telemetry-" + std::to_string(s), s, 2048 * 8,
        Duration::milliseconds(80), 1, Duration::milliseconds(100)));
    wl.sources.push_back(std::move(src));
  }
  return wl;
}

Workload avionics(int z) {
  HRTDM_EXPECT(z >= 1, "need at least one source");
  Workload wl;
  wl.name = "avionics";
  int next_class = 0;
  for (int s = 0; s < z; ++s) {
    SourceSpec src;
    src.id = s;
    src.name = "lru-" + std::to_string(s);
    // Flight-control frames: 128 bytes at a 10 ms minor cycle, 4 ms
    // deadline.
    src.classes.push_back(make_class(
        next_class++, "fcs-" + std::to_string(s), s, 128 * 8,
        Duration::milliseconds(4), 1, Duration::milliseconds(10)));
    // Navigation updates: 512 bytes at a 50 ms cycle.
    src.classes.push_back(make_class(
        next_class++, "nav-" + std::to_string(s), s, 512 * 8,
        Duration::milliseconds(25), 1, Duration::milliseconds(50)));
    // Maintenance records: 4 KiB per second, very loose.
    src.classes.push_back(make_class(
        next_class++, "maint-" + std::to_string(s), s, 4096 * 8,
        Duration::milliseconds(500), 1, Duration::seconds(1)));
    wl.sources.push_back(std::move(src));
  }
  return wl;
}

Workload workload_by_name(const std::string& name, int z) {
  if (name == "quickstart") {
    return quickstart(z);
  }
  if (name == "videoconference") {
    return videoconference(z);
  }
  if (name == "atc") {
    return air_traffic_control(z);
  }
  if (name == "stocks") {
    return stock_exchange(z);
  }
  if (name == "factory") {
    return factory_cell(z);
  }
  if (name == "avionics") {
    return avionics(z);
  }
  HRTDM_EXPECT(false, "unknown scenario: " + name);
  return {};
}

std::vector<std::string> scenario_names() {
  return {"quickstart", "videoconference", "atc",
          "stocks",     "factory",         "avionics"};
}

}  // namespace hrtdm::traffic
