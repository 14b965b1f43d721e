// Flight recorder: an always-on, fixed-capacity ring of compact causal
// records — the protocol's black box (docs/OBSERVABILITY.md).
//
// One recorder is owned per channel run and written only from that run's
// execution thread (the parallel engine gives every channel its own worker),
// so the hot path is a plain store into a power-of-two ring: no atomics, no
// locks, no allocation after construction — cheap enough to leave on in
// Release builds. The recorder is pure observability: nothing it holds ever
// feeds back into protocol state, so it is excluded from protocol_digest()
// by construction and digest pins are bit-identical with it on or off.
//
// Protocol-replicated events (epoch open/close, TTs/STs poll outcomes) are
// emitted identically by every synced station at the same slot boundary.
// record_replicated() dedups those in O(1) with a per-kind last-timestamp
// cache: the first emitter at a given instant wins, later identical emits
// are dropped. (A diverged station emitting a *different* event at the same
// instant is also dropped — acceptable for a debugging aid; divergence
// itself is recorded via the watchdog records.)
//
// Like the registry, this header is std-only so every layer can include it.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

namespace hrtdm::obs {

/// Record kinds. Append only — dump consumers match on the names from
/// fr_kind_name(), but the compact form stores this byte.
enum class FrKind : std::uint8_t {
  kSlotSilence = 0,   ///< a = duration ns
  kSlotSuccess,       ///< station = winner, a = duration ns, b = frame uid
  kSlotCollision,     ///< a = duration ns, b = corruption cause bits (FrCorrupt)
  kIdleGap,           ///< bulk fast-forwarded silence: a = duration ns, b = slots
  kEpochStart,        ///< a = reft ns, b = mode (0 TTs, 1 STs)
  kEpochEnd,          ///< a = reft ns of the closed epoch
  kTtsProbe,          ///< station = prober, a = class index, b = outcome (FrOutcome)
  kStsProbe,          ///< station = prober, a = leaf index, b = outcome
  kWatchdog,          ///< station tripped a divergence rule; a = rule id
  kQuarantine,        ///< station entered resync quarantine
  kRejoin,            ///< station rejoined after quiet period; a = quiet slots
  kChurnLeave,        ///< station went offline
  kChurnJoin,         ///< station came back online
  kGeFlip,            ///< Gilbert–Elliott state flip; a = 1 entering bad
  kDriftMissample,    ///< station's drifted clock garbled a success; a = phase ns
  kDriftResync,       ///< station's drift clock re-anchored
  kDropLate,          ///< station dropped already-late messages; a = count
  kSpanCommit,        ///< compiled span committed; a = slots, b = end ns
  kSpanBail,          ///< compiler declined mid-epoch; a = FrBail reason
  kBridgeHop,         ///< fabric bridge relay; a = relay time ns, b = frame uid
  kCount_             ///< sentinel, not a record kind
};

/// Corruption cause bits for kSlotCollision.b (0 = genuine contention).
enum FrCorrupt : std::int64_t {
  kCorruptNoise = 1,   ///< i.i.d. PHY noise
  kCorruptGe = 2,      ///< Gilbert–Elliott bad state
  kCorruptFault = 4,   ///< scripted symmetric fault window
};

/// Poll outcome for kTtsProbe / kStsProbe .b.
enum FrOutcome : std::int64_t {
  kOutcomeSilence = 0,
  kOutcomeSuccess = 1,
  kOutcomeCollision = 2,
};

/// Why the epoch compiler declined a mid-epoch compile attempt. The
/// taxonomy is exhaustive over compile() bail sites; test_epoch_compiler
/// asserts attempts == commits + sum of per-reason bailouts.
enum class FrBail : std::uint8_t {
  kHorizon = 0,  ///< span would not clear 2 slots before the next
                 ///< non-arrival event (or its epoch ended first)
  kFault,        ///< drop-late discipline active (fault-era semantics)
  kResync,       ///< some station quarantined / resyncing
  kNoise,        ///< replay hit an outcome the closed form cannot resolve
  kCap,          ///< hit the kMaxSlots safety cap mid-epoch
  kDesync,       ///< online stations' protocol digests disagree
  kCount_        ///< sentinel
};

const char* fr_kind_name(FrKind k);
const char* fr_bail_name(FrBail r);

/// One compact causal record: 32 bytes, POD.
struct FrRecord {
  std::int64_t t_ns = 0;      ///< simulated (compressed) time of the event
  std::int64_t a = 0;         ///< kind-specific (see FrKind comments)
  std::int64_t b = 0;
  std::int16_t station = -1;  ///< emitting station id; -1 = channel-level
  FrKind kind = FrKind::kSlotSilence;
};

class FlightRecorder {
 public:
  static constexpr std::size_t kDefaultCapacity = 4096;

  /// Capacity is rounded up to a power of two (>= 2).
  explicit FlightRecorder(std::size_t capacity = kDefaultCapacity);

  void record(FrKind kind, std::int64_t t_ns, int station = -1,
              std::int64_t a = 0, std::int64_t b = 0) {
    FrRecord& r = ring_[static_cast<std::size_t>(head_) & mask_];
    r.t_ns = t_ns;
    r.a = a;
    r.b = b;
    r.station = static_cast<std::int16_t>(station);
    r.kind = kind;
    ++head_;
  }

  /// record() with per-kind same-instant dedup for protocol-replicated
  /// events (see file comment). First emitter at t_ns wins.
  void record_replicated(FrKind kind, std::int64_t t_ns, int station = -1,
                         std::int64_t a = 0, std::int64_t b = 0) {
    std::int64_t& last = last_t_[static_cast<std::size_t>(kind)];
    if (last == t_ns) {
      return;
    }
    last = t_ns;
    record(kind, t_ns, station, a, b);
  }

  std::size_t capacity() const { return ring_.size(); }
  /// Records currently held (<= capacity()).
  std::size_t size() const {
    const std::uint64_t n = head_;
    return n < ring_.size() ? static_cast<std::size_t>(n) : ring_.size();
  }
  /// Total records ever written, including overwritten ones.
  std::int64_t total_recorded() const { return static_cast<std::int64_t>(head_); }
  /// True when old records have been overwritten (the window is truncated:
  /// forensics reports time before the oldest record as "unattributed").
  bool wrapped() const { return head_ > ring_.size(); }

  /// The retained window, oldest first. Timestamps are nondecreasing
  /// because the owning run is single-threaded.
  std::vector<FrRecord> window() const;

  void clear();

  /// Human-readable dump, one record per line — what CI uploads when a
  /// test fails and what the shrinker writes next to a .repro.
  std::string dump_text() const;
  /// The per-record body of dump_text() over an already-copied window, for
  /// consumers (src/check, DdcrRunResult) that hold a window but not the
  /// recorder itself.
  static std::string format_window(const std::vector<FrRecord>& window);
  /// Structured dump: {"capacity":..,"total":..,"wrapped":..,"records":[..]}.
  std::string dump_json() const;

 private:
  std::vector<FrRecord> ring_;
  std::size_t mask_ = 0;
  std::uint64_t head_ = 0;
  std::int64_t last_t_[static_cast<std::size_t>(FrKind::kCount_)];
};

}  // namespace hrtdm::obs

// Pointer-guarded hooks: one predicted branch when a recorder is attached,
// nothing at all under -DHRTDM_OBS_OFF (arguments are not evaluated, same
// contract as the registry macros).
#if !defined(HRTDM_OBS_OFF)

#define HRTDM_FR_RECORD(fr, ...)  \
  do {                            \
    if (fr) {                     \
      (fr)->record(__VA_ARGS__);  \
    }                             \
  } while (0)

#define HRTDM_FR_REPLICATED(fr, ...)        \
  do {                                      \
    if (fr) {                               \
      (fr)->record_replicated(__VA_ARGS__); \
    }                                       \
  } while (0)

#else  // HRTDM_OBS_OFF

#define HRTDM_FR_RECORD(fr, ...) ((void)0)
#define HRTDM_FR_REPLICATED(fr, ...) ((void)0)

#endif  // HRTDM_OBS_OFF
