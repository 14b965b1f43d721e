#include "check/shrinker.hpp"

#include <algorithm>
#include <fstream>
#include <optional>
#include <set>
#include <sstream>

#include "check/conformance.hpp"
#include "core/fabric.hpp"
#include "fault/fault_injector.hpp"
#include "util/check.hpp"

namespace hrtdm::check {
namespace {

using util::Duration;
using util::SimTime;

SimTime replay_cap(const ReplayCase& c) {
  // Generous but deterministic: the latest deadline plus four times the
  // total transmission work plus a fixed slot allowance. Shrunk cases are
  // tiny, so overshooting costs nothing. Hostile cases extend the
  // allowance past the last scripted directive (every observation is at
  // least one slot) so fault windows always run out before the cap.
  SimTime latest;
  Duration total_tx;
  for (const traffic::Message& msg : c.messages) {
    latest = std::max(latest, std::max(msg.arrival, msg.absolute_deadline));
    total_tx += std::max(c.phy.tx_time(msg.l_bits), c.phy.slot_x);
  }
  const std::int64_t scripted =
      std::max({std::int64_t{0}, c.fault_plan.last_fault_observation(),
                c.churn.last_observation()});
  return latest + total_tx * 4 + c.phy.slot_x * (4096 + scripted);
}

}  // namespace

void ReplayCase::validate() const {
  HRTDM_EXPECT(stations >= 1, "replay case needs at least one station");
  HRTDM_EXPECT(fabric_channels >= 0, "fabric_channels must be >= 0");
  HRTDM_EXPECT(fabric_shards >= 1, "fabric_shards must be >= 1");
  HRTDM_EXPECT(fabric_channels == 0 || !hostile(),
               "the fabric axis has no fault injector; drop the hostile "
               "plans or the fabric line");
  HRTDM_EXPECT(ddcr.static_indices.empty(),
               "replay cases use the automatic static-index allocation");
  HRTDM_EXPECT(phy.corruption_prob == 0.0,
               "replay cases must be noise-free to reproduce exactly");
  fault_plan.validate(stations);
  churn.validate(stations);
  drift.validate(stations);
  std::set<std::int64_t> uids;
  for (const traffic::Message& msg : messages) {
    HRTDM_EXPECT(msg.source >= 0 && msg.source < stations,
                 "replay message source out of range");
    HRTDM_EXPECT(uids.insert(msg.uid).second, "replay message uids collide");
    HRTDM_EXPECT(msg.absolute_deadline >= msg.arrival,
                 "replay message deadline precedes its arrival");
  }
}

core::ConformanceReport replay_case(const ReplayCase& c) {
  c.validate();
  core::DdcrRunOptions options;
  options.phy = c.phy;
  options.collision_mode = c.collision_mode;
  options.ddcr = c.ddcr;
  options.churn_events = static_cast<std::int64_t>(c.churn.events.size());
  // Every hostile axis can push a station through the quiet-period rejoin
  // path (crash recovery, churn re-entry, a drift quarantine), so the
  // configuration must be rejoin-capable up front.
  options.require_rejoinable = c.hostile();
  core::DdcrTestbed testbed(c.stations, options);
  ConformanceRecorder recorder;
  testbed.channel().add_observer(recorder);
  std::optional<fault::FaultInjector> injector;
  if (c.hostile()) {
    injector.emplace(c.fault_plan, c.churn, c.drift, c.fault_seed);
    injector->install(testbed);
  }
  for (const traffic::Message& msg : c.messages) {
    testbed.inject(msg.source, msg);
  }
  const SimTime cap = replay_cap(c);
  testbed.run_until_delivered(static_cast<std::int64_t>(c.messages.size()),
                              cap);
  if (injector) {
    // A hostile replay can still hold backlog or quarantined replicas when
    // the delivery count is reached (duplicates on the wire, offline
    // stations): settle until the network quiesces or the cap runs out,
    // then stop so the stations are materialized for the counter reads.
    testbed.run_while(64, cap, [&testbed] {
      return !testbed.drained() || !testbed.all_synced();
    });
    testbed.stop();
  }

  ConformanceInput input;
  input.messages = c.messages;
  input.phy = c.phy;
  input.collision_mode = c.collision_mode;
  input.ddcr = c.ddcr;
  input.protocol_is_ddcr = true;
  input.expect_timeliness = c.expect_timeliness;
  input.edf_tolerance = c.edf_tolerance;
  std::vector<core::DdcrStation::Counters> counters;
  std::int64_t dropped = 0;
  std::int64_t unclean = 0;
  for (int s = 0; s < testbed.station_count(); ++s) {
    counters.push_back(testbed.station(s).counters());
    dropped += counters.back().dropped_late;
    unclean += counters.back().desyncs_detected +
               counters.back().quarantines + counters.back().rejoins;
  }
  input.replicas_clean = unclean == 0;
  input.expect_drain = testbed.queued() == 0 && dropped == 0;
  input.stats = &testbed.channel().stats();
  input.per_station = &counters;
  if (injector) {
    // Everything before the first scripted directive (or the first
    // runtime drift mis-sample) is provably clean; the comparator clips
    // its whole-run checks to that prefix.
    input.clean_prefix_end = injector->clean_prefix_end();
  }
  core::ConformanceReport report =
      ConformanceComparator{}.check(input, recorder);
  if (report.ok && c.fabric_channels > 0) {
    // Fabric axis: the same messages across fabric_channels identical
    // channels must yield one digest chain regardless of the shard count
    // (and every copy of an identical channel must agree).
    core::FabricOptions fabric;
    fabric.run.phy = c.phy;
    fabric.run.collision_mode = c.collision_mode;
    fabric.run.ddcr = c.ddcr;
    // run_fabric_replay extends the horizon past the last arrival itself;
    // keep the per-channel drain bounded by the same replay cap.
    fabric.run.arrival_horizon = SimTime::from_ns(1);
    fabric.run.drain_cap = cap;
    fabric.channels = c.fabric_channels;
    fabric.shards = 1;
    const core::FabricResult serial =
        core::run_fabric_replay(c.messages, c.stations, fabric);
    fabric.shards = c.fabric_shards;
    const core::FabricResult sharded =
        core::run_fabric_replay(c.messages, c.stations, fabric);
    if (sharded.protocol_digest != serial.protocol_digest ||
        sharded.delivered != serial.delivered ||
        sharded.misses != serial.misses) {
      report.ok = false;
      report.violations.push_back(
          "fabric: shards=" + std::to_string(c.fabric_shards) +
          " changed the observable stream (digest " +
          std::to_string(serial.protocol_digest) + " -> " +
          std::to_string(sharded.protocol_digest) + ")");
    }
    for (const core::FabricChannelSummary& ch : serial.channels) {
      if (ch.protocol_digest != serial.channels[0].protocol_digest) {
        report.ok = false;
        report.violations.push_back(
            "fabric: identical replay channels diverged");
        break;
      }
    }
  }
  if (!report.ok) {
    // The offending run's black box: saved alongside the shrunk .repro by
    // save_case_file so the minimal case ships its causal history.
    report.flight_dump = testbed.flight_recorder().dump_text();
  }
  return report;
}

// --- serialisation ---------------------------------------------------------

namespace {

// The text format is integer-only (parse_kv uses stoll), so probabilities
// and ppm rates serialise in fixed-point: per-mille for probabilities,
// parts-per-billion for drift rates. Pinned hostile cases must use values
// representable at that granularity for serialize/parse to round-trip
// exactly.
std::int64_t to_pm(double prob) {
  return static_cast<std::int64_t>(prob * 1000.0 + 0.5);
}

}  // namespace

std::string serialize_case(const ReplayCase& c) {
  c.validate();
  std::ostringstream os;
  os << "repro " << c.name << "\n";
  os << "phy slot_ns=" << c.phy.slot_x.ns()
     << " psi_bps=" << static_cast<std::int64_t>(c.phy.psi_bps)
     << " overhead_bits=" << c.phy.overhead_bits
     << " burst_bits=" << c.phy.burst_budget_bits << "\n";
  os << "mode "
     << (c.collision_mode == net::CollisionMode::kDestructive ? "destructive"
                                                              : "arbitration")
     << "\n";
  os << "ddcr m_time=" << c.ddcr.m_time << " F=" << c.ddcr.F
     << " c_ns=" << c.ddcr.class_width_c.ns()
     << " alpha_ns=" << c.ddcr.alpha.ns() << " theta_pm="
     << static_cast<std::int64_t>(c.ddcr.theta_factor * 1000.0 + 0.5)
     << " m_static=" << c.ddcr.m_static << " q=" << c.ddcr.q << " epoch="
     << (c.ddcr.epoch_mode == core::EpochMode::kPerpetual ? "perpetual"
                                                          : "fallback")
     << " infer_last=" << (c.ddcr.infer_last_child ? 1 : 0)
     << " drop_late=" << (c.ddcr.drop_late_messages ? 1 : 0)
     << " max_empty_tts=" << c.ddcr.max_empty_tts << "\n";
  os << "stations " << c.stations << "\n";
  os << "expect timeliness=" << (c.expect_timeliness ? 1 : 0)
     << " tolerance_ns=" << c.edf_tolerance.ns() << "\n";
  if (c.fabric_channels > 0) {
    os << "fabric channels=" << c.fabric_channels
       << " shards=" << c.fabric_shards << "\n";
  }
  if (c.phy.ge_enabled) {
    os << "ge p_gb_pm=" << to_pm(c.phy.ge_p_good_bad)
       << " p_bg_pm=" << to_pm(c.phy.ge_p_bad_good)
       << " loss_g_pm=" << to_pm(c.phy.ge_loss_good)
       << " loss_b_pm=" << to_pm(c.phy.ge_loss_bad) << "\n";
  }
  if (c.hostile()) {
    os << "seed fault=" << static_cast<std::int64_t>(c.fault_seed) << "\n";
  }
  for (const fault::CrashFault& f : c.fault_plan.crashes) {
    os << "fault crash at=" << f.at_observation << " station=" << f.station
       << "\n";
  }
  for (const fault::SymmetricNoiseFault& f : c.fault_plan.symmetric) {
    os << "fault sym from=" << f.from_observation << " to=" << f.to_observation
       << " prob_pm=" << to_pm(f.prob) << "\n";
  }
  for (const fault::AsymmetricFault& f : c.fault_plan.asymmetric) {
    os << "fault asym from=" << f.from_observation
       << " to=" << f.to_observation << " station=" << f.station << " kind="
       << (f.kind == fault::AsymmetricKind::kCorruptReceive ? 0 : 1)
       << " prob_pm=" << to_pm(f.prob) << "\n";
  }
  for (const fault::ChurnEvent& e : c.churn.events) {
    os << "churn at=" << e.at_observation << " station=" << e.station
       << " kind=" << (e.kind == fault::ChurnKind::kLeave ? 0 : 1) << "\n";
  }
  for (const fault::DriftSpec& d : c.drift.specs) {
    os << "drift station=" << d.station << " phase_ns=" << d.initial_phase.ns()
       << " rate_ppb=" << static_cast<std::int64_t>(d.rate_ppm * 1000.0 +
                                                    (d.rate_ppm < 0 ? -0.5
                                                                    : 0.5))
       << " bound_ns=" << d.phase_bound.ns() << "\n";
  }
  for (const traffic::Message& msg : c.messages) {
    os << "msg uid=" << msg.uid << " source=" << msg.source
       << " class=" << msg.class_id << " l_bits=" << msg.l_bits
       << " arrival_ns=" << msg.arrival.ns()
       << " deadline_ns=" << msg.absolute_deadline.ns() << "\n";
  }
  return os.str();
}

namespace {

[[noreturn]] void fail(int line, const std::string& message) {
  HRTDM_EXPECT(false, "replay case line " + std::to_string(line) + ": " +
                          message);
  throw util::ContractViolation("unreachable");  // for the compiler
}

std::int64_t parse_kv(const std::string& token, const std::string& key,
                      int line) {
  const std::string prefix = key + "=";
  if (token.rfind(prefix, 0) != 0) {
    fail(line, "expected " + prefix + "<int>, got '" + token + "'");
  }
  try {
    return std::stoll(token.substr(prefix.size()));
  } catch (const std::exception&) {
    fail(line, "cannot parse integer in '" + token + "'");
  }
}

std::int64_t next_kv(std::istringstream& in, const std::string& key,
                     int line) {
  std::string token;
  if (!(in >> token)) {
    fail(line, "missing " + key + "=<int>");
  }
  return parse_kv(token, key, line);
}

}  // namespace

ReplayCase parse_case(const std::string& text) {
  ReplayCase c;
  c.name.clear();
  std::istringstream input(text);
  std::string raw;
  int line_no = 0;
  while (std::getline(input, raw)) {
    ++line_no;
    const std::size_t hash = raw.find('#');
    if (hash != std::string::npos) {
      raw = raw.substr(0, hash);
    }
    std::istringstream line(raw);
    std::string keyword;
    if (!(line >> keyword)) {
      continue;
    }
    if (keyword == "repro") {
      if (!(line >> c.name)) {
        fail(line_no, "repro line needs a name");
      }
    } else if (keyword == "phy") {
      c.phy.slot_x = Duration::nanoseconds(next_kv(line, "slot_ns", line_no));
      c.phy.psi_bps =
          static_cast<double>(next_kv(line, "psi_bps", line_no));
      c.phy.overhead_bits = next_kv(line, "overhead_bits", line_no);
      c.phy.burst_budget_bits = next_kv(line, "burst_bits", line_no);
    } else if (keyword == "mode") {
      std::string mode;
      if (!(line >> mode)) {
        fail(line_no, "mode line needs destructive|arbitration");
      }
      if (mode == "destructive") {
        c.collision_mode = net::CollisionMode::kDestructive;
      } else if (mode == "arbitration") {
        c.collision_mode = net::CollisionMode::kArbitration;
      } else {
        fail(line_no, "unknown collision mode '" + mode + "'");
      }
    } else if (keyword == "ddcr") {
      c.ddcr.m_time = static_cast<int>(next_kv(line, "m_time", line_no));
      c.ddcr.F = next_kv(line, "F", line_no);
      c.ddcr.class_width_c =
          Duration::nanoseconds(next_kv(line, "c_ns", line_no));
      c.ddcr.alpha = Duration::nanoseconds(next_kv(line, "alpha_ns", line_no));
      c.ddcr.theta_factor =
          static_cast<double>(next_kv(line, "theta_pm", line_no)) / 1000.0;
      c.ddcr.m_static = static_cast<int>(next_kv(line, "m_static", line_no));
      c.ddcr.q = next_kv(line, "q", line_no);
      std::string epoch_tok;
      if (!(line >> epoch_tok) || epoch_tok.rfind("epoch=", 0) != 0) {
        fail(line_no, "expected epoch=fallback|perpetual");
      }
      const std::string epoch = epoch_tok.substr(6);
      if (epoch == "fallback") {
        c.ddcr.epoch_mode = core::EpochMode::kCsmaCdFallback;
      } else if (epoch == "perpetual") {
        c.ddcr.epoch_mode = core::EpochMode::kPerpetual;
      } else {
        fail(line_no, "unknown epoch mode '" + epoch + "'");
      }
      c.ddcr.infer_last_child = next_kv(line, "infer_last", line_no) != 0;
      c.ddcr.drop_late_messages = next_kv(line, "drop_late", line_no) != 0;
      c.ddcr.max_empty_tts =
          static_cast<int>(next_kv(line, "max_empty_tts", line_no));
    } else if (keyword == "stations") {
      if (!(line >> c.stations)) {
        fail(line_no, "stations line needs a count");
      }
    } else if (keyword == "expect") {
      c.expect_timeliness = next_kv(line, "timeliness", line_no) != 0;
      c.edf_tolerance =
          Duration::nanoseconds(next_kv(line, "tolerance_ns", line_no));
    } else if (keyword == "fabric") {
      c.fabric_channels = static_cast<int>(next_kv(line, "channels", line_no));
      c.fabric_shards = static_cast<int>(next_kv(line, "shards", line_no));
    } else if (keyword == "ge") {
      const double p_gb =
          static_cast<double>(next_kv(line, "p_gb_pm", line_no)) / 1000.0;
      const double p_bg =
          static_cast<double>(next_kv(line, "p_bg_pm", line_no)) / 1000.0;
      const double loss_g =
          static_cast<double>(next_kv(line, "loss_g_pm", line_no)) / 1000.0;
      const double loss_b =
          static_cast<double>(next_kv(line, "loss_b_pm", line_no)) / 1000.0;
      c.phy.gilbert_elliott(p_gb, p_bg, loss_g, loss_b);
    } else if (keyword == "seed") {
      c.fault_seed =
          static_cast<std::uint64_t>(next_kv(line, "fault", line_no));
    } else if (keyword == "fault") {
      std::string sub;
      if (!(line >> sub)) {
        fail(line_no, "fault line needs crash|sym|asym");
      }
      if (sub == "crash") {
        fault::CrashFault f;
        f.at_observation = next_kv(line, "at", line_no);
        f.station = static_cast<int>(next_kv(line, "station", line_no));
        c.fault_plan.crashes.push_back(f);
      } else if (sub == "sym") {
        fault::SymmetricNoiseFault f;
        f.from_observation = next_kv(line, "from", line_no);
        f.to_observation = next_kv(line, "to", line_no);
        f.prob =
            static_cast<double>(next_kv(line, "prob_pm", line_no)) / 1000.0;
        c.fault_plan.symmetric.push_back(f);
      } else if (sub == "asym") {
        fault::AsymmetricFault f;
        f.from_observation = next_kv(line, "from", line_no);
        f.to_observation = next_kv(line, "to", line_no);
        f.station = static_cast<int>(next_kv(line, "station", line_no));
        f.kind = next_kv(line, "kind", line_no) == 0
                     ? fault::AsymmetricKind::kCorruptReceive
                     : fault::AsymmetricKind::kMissReceive;
        f.prob =
            static_cast<double>(next_kv(line, "prob_pm", line_no)) / 1000.0;
        c.fault_plan.asymmetric.push_back(f);
      } else {
        fail(line_no, "unknown fault class '" + sub + "'");
      }
    } else if (keyword == "churn") {
      fault::ChurnEvent e;
      e.at_observation = next_kv(line, "at", line_no);
      e.station = static_cast<int>(next_kv(line, "station", line_no));
      e.kind = next_kv(line, "kind", line_no) == 0 ? fault::ChurnKind::kLeave
                                                   : fault::ChurnKind::kJoin;
      c.churn.events.push_back(e);
    } else if (keyword == "drift") {
      fault::DriftSpec d;
      d.station = static_cast<int>(next_kv(line, "station", line_no));
      d.initial_phase =
          Duration::nanoseconds(next_kv(line, "phase_ns", line_no));
      d.rate_ppm =
          static_cast<double>(next_kv(line, "rate_ppb", line_no)) / 1000.0;
      d.phase_bound = Duration::nanoseconds(next_kv(line, "bound_ns", line_no));
      c.drift.specs.push_back(d);
    } else if (keyword == "msg") {
      traffic::Message msg;
      msg.uid = next_kv(line, "uid", line_no);
      msg.source = static_cast<int>(next_kv(line, "source", line_no));
      msg.class_id = static_cast<int>(next_kv(line, "class", line_no));
      msg.l_bits = next_kv(line, "l_bits", line_no);
      msg.arrival = SimTime::from_ns(next_kv(line, "arrival_ns", line_no));
      msg.absolute_deadline =
          SimTime::from_ns(next_kv(line, "deadline_ns", line_no));
      c.messages.push_back(msg);
    } else {
      fail(line_no, "unknown keyword '" + keyword + "'");
    }
  }
  if (c.name.empty()) {
    fail(line_no, "missing `repro <name>` line");
  }
  c.validate();
  return c;
}

ReplayCase load_case_file(const std::string& path) {
  std::ifstream in(path);
  HRTDM_EXPECT(in.good(), "cannot open replay case file: " + path);
  std::ostringstream text;
  text << in.rdbuf();
  return parse_case(text.str());
}

void save_case_file(const ReplayCase& c, const std::string& path) {
  std::ofstream out(path);
  HRTDM_EXPECT(out.good(), "cannot write replay case file: " + path);
  out << serialize_case(c);
  HRTDM_EXPECT(out.good(), "write failed for replay case file: " + path);
}

void save_case_file(const ReplayCase& c, const std::string& path,
                    const std::string& flight_dump) {
  save_case_file(c, path);
  if (flight_dump.empty()) {
    return;
  }
  const std::string companion = path + ".flightrec";
  std::ofstream out(companion);
  HRTDM_EXPECT(out.good(), "cannot write flight dump file: " + companion);
  out << flight_dump;
  HRTDM_EXPECT(out.good(), "write failed for flight dump file: " + companion);
}

// --- shrinking -------------------------------------------------------------

namespace {

/// Drops unused sources and renumbers the rest densely. Returns false when
/// nothing changed. Stations referenced by a hostile plan count as used —
/// a crash/churn/drift directive pins its victim even when that station
/// carries no traffic.
bool renumber_sources(ReplayCase& c) {
  std::set<int> used;
  for (const traffic::Message& msg : c.messages) {
    used.insert(msg.source);
  }
  for (const fault::CrashFault& f : c.fault_plan.crashes) {
    used.insert(f.station);
  }
  for (const fault::AsymmetricFault& f : c.fault_plan.asymmetric) {
    used.insert(f.station);
  }
  for (const fault::ChurnEvent& e : c.churn.events) {
    used.insert(e.station);
  }
  for (const fault::DriftSpec& d : c.drift.specs) {
    used.insert(d.station);
  }
  if (used.empty()) {
    return false;
  }
  std::vector<int> order(used.begin(), used.end());
  const int compact = static_cast<int>(order.size());
  bool identity = compact == c.stations;
  for (int i = 0; identity && i < compact; ++i) {
    identity = order[static_cast<std::size_t>(i)] == i;
  }
  if (identity) {
    return false;
  }
  const auto remap = [&order](int station) {
    const auto it = std::lower_bound(order.begin(), order.end(), station);
    return static_cast<int>(it - order.begin());
  };
  for (traffic::Message& msg : c.messages) {
    msg.source = remap(msg.source);
  }
  for (fault::CrashFault& f : c.fault_plan.crashes) {
    f.station = remap(f.station);
  }
  for (fault::AsymmetricFault& f : c.fault_plan.asymmetric) {
    f.station = remap(f.station);
  }
  for (fault::ChurnEvent& e : c.churn.events) {
    e.station = remap(e.station);
  }
  for (fault::DriftSpec& d : c.drift.specs) {
    d.station = remap(d.station);
  }
  c.stations = compact;
  return true;
}

/// Shifts every arrival and deadline so the earliest arrival is 0. Returns
/// false when nothing changed.
bool normalize_arrivals(ReplayCase& c) {
  if (c.messages.empty()) {
    return false;
  }
  SimTime earliest = SimTime::infinity();
  for (const traffic::Message& msg : c.messages) {
    earliest = std::min(earliest, msg.arrival);
  }
  if (earliest == SimTime::zero()) {
    return false;
  }
  const Duration shift = earliest - SimTime::zero();
  for (traffic::Message& msg : c.messages) {
    msg.arrival = msg.arrival - shift;
    msg.absolute_deadline = msg.absolute_deadline - shift;
  }
  return true;
}

}  // namespace

Shrinker::Shrinker(Property property) : property_(std::move(property)) {
  HRTDM_EXPECT(static_cast<bool>(property_), "Shrinker needs a property");
}

Shrinker::Property Shrinker::conformance_fails() {
  return [](const ReplayCase& c) { return !replay_case(c).ok; };
}

ShrinkResult Shrinker::shrink(ReplayCase start, int max_evals) const {
  ShrinkResult out;
  out.minimal = std::move(start);
  out.minimal.validate();
  const auto fails = [this, &out](const ReplayCase& candidate) {
    ++out.evals;
    return property_(candidate);
  };
  HRTDM_EXPECT(fails(out.minimal),
               "Shrinker: the starting case must exhibit the failure");

  // Phase 1 — ddmin over messages: try dropping chunks, refining the chunk
  // size on failure to reduce, down to single messages.
  std::size_t chunks = 2;
  while (out.minimal.messages.size() >= 2 && out.evals < max_evals) {
    const std::size_t n = out.minimal.messages.size();
    chunks = std::min(chunks, n);
    bool reduced = false;
    for (std::size_t i = 0; i < chunks && out.evals < max_evals; ++i) {
      const std::size_t lo = i * n / chunks;
      const std::size_t hi = (i + 1) * n / chunks;
      if (lo == hi) {
        continue;
      }
      ReplayCase candidate = out.minimal;
      candidate.messages.erase(
          candidate.messages.begin() + static_cast<std::ptrdiff_t>(lo),
          candidate.messages.begin() + static_cast<std::ptrdiff_t>(hi));
      if (fails(candidate)) {
        out.minimal = std::move(candidate);
        ++out.accepted;
        reduced = true;
        break;
      }
    }
    if (reduced) {
      chunks = std::max<std::size_t>(chunks - 1, 2);
      continue;
    }
    if (chunks >= n) {
      break;  // already at single-message granularity, nothing droppable
    }
    chunks = std::min(chunks * 2, n);
  }

  // Phase 2 — structural cleanups: renumber away unused sources, shift the
  // time origin. Each must preserve the failure to be kept.
  {
    ReplayCase candidate = out.minimal;
    if (renumber_sources(candidate) && out.evals < max_evals &&
        fails(candidate)) {
      out.minimal = std::move(candidate);
      ++out.accepted;
    }
  }
  {
    ReplayCase candidate = out.minimal;
    if (normalize_arrivals(candidate) && out.evals < max_evals &&
        fails(candidate)) {
      out.minimal = std::move(candidate);
      ++out.accepted;
    }
  }

  // Phase 3 — deadline-slack halving: tighten each message's window while
  // the failure persists (one greedy sweep, binary-search granularity).
  for (std::size_t i = 0;
       i < out.minimal.messages.size() && out.evals < max_evals; ++i) {
    for (int round = 0; round < 8 && out.evals < max_evals; ++round) {
      const traffic::Message& msg = out.minimal.messages[i];
      const Duration slack = msg.absolute_deadline - msg.arrival;
      const Duration min_slack =
          std::max(out.minimal.phy.tx_time(msg.l_bits),
                   out.minimal.phy.slot_x);
      if (slack <= min_slack) {
        break;
      }
      ReplayCase candidate = out.minimal;
      candidate.messages[i].absolute_deadline =
          msg.arrival + std::max(slack / 2, min_slack);
      if (fails(candidate)) {
        out.minimal = std::move(candidate);
        ++out.accepted;
      } else {
        break;
      }
    }
  }
  return out;
}

}  // namespace hrtdm::check
