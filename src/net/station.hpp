// The interface between the broadcast channel and the MAC protocols.
//
// The channel is slotted: at the start of each contention slot it polls
// every attached station for a transmit intent, resolves the outcome
// (silence / success / collision, possibly with wired-OR arbitration or a
// packet burst), and delivers the *same* observation to every station at the
// end of the slot. Protocol implementations (CSMA/DDCR, BEB, DCR, TDMA)
// live entirely behind this interface.
//
// The one sanctioned exception to "same observation everywhere" is the
// fault-injection hook (net::SlotInterceptor, driven by fault::FaultInjector):
// it can hand a chosen receiver a corrupted or missed observation to model
// receiver-local CRC errors and missed carrier sense — the asymmetric fault
// class the correctness proofs exclude and docs/FAULTS.md analyses.
#pragma once

#include <optional>

#include "net/frame.hpp"
#include "util/simtime.hpp"

namespace hrtdm::net {

using util::SimTime;

enum class SlotKind {
  kSilence,    ///< no station transmitted
  kSuccess,    ///< exactly one transmitter (or an arbitration winner)
  kCollision,  ///< >= 2 transmitters, destructive
};

/// What a station hears at the end of a slot. Everyone receives an
/// identical observation — the broadcast property the replicated protocol
/// state machines depend on.
struct SlotObservation {
  SlotKind kind = SlotKind::kSilence;
  SimTime slot_start;
  SimTime slot_end;
  /// The delivered frame on kSuccess.
  std::optional<Frame> frame;
  /// kSuccess follow-up within a packet burst: the channel was never
  /// relinquished, so protocol search state must not advance.
  bool in_burst = false;
  /// kSuccess produced by non-destructive wired-OR arbitration: there *was*
  /// contention, the lowest arb_key won, losers must retry.
  bool arbitration = false;
  /// True only on an observation BroadcastChannel hands, unchanged, to
  /// every attached station — the channel is the only code that sets it.
  /// Anything else (an interceptor's per-receiver copy, an observation a
  /// test or fault harness feeds one station directly) leaves it false and
  /// counts as a receiver-local event: the one way replicas can split.
  bool broadcast = false;
  /// The observation's position in the channel's delivery order (valid
  /// when `broadcast`): stations that share one protocol replica advance
  /// it once per index.
  std::int64_t index = -1;
};

class Station {
 public:
  virtual ~Station() = default;

  virtual int id() const = 0;

  /// Called at the start of each contention slot; return the frame to
  /// attempt transmitting, or nullopt to stay silent. The decision may use
  /// only local state plus past observations (carrier sense is implicit:
  /// poll happens only when the medium is free).
  virtual std::optional<Frame> poll_intent(SimTime now) = 0;

  /// Outcome of the slot, delivered simultaneously to every station at
  /// slot_end (after the transmission completes on kSuccess).
  virtual void observe(const SlotObservation& obs) = 0;

  /// Packet bursting (IEEE 802.3z): called only on the station that just
  /// transmitted successfully while burst budget remains; return the next
  /// EDF-ranked frame with l_bits <= budget_bits, or nullopt to release the
  /// channel.
  virtual std::optional<Frame> poll_burst(SimTime now,
                                          std::int64_t budget_bits) {
    (void)now;
    (void)budget_bits;
    return std::nullopt;
  }

  /// Idle fast-forward contract: return true iff, until this station is
  /// externally stimulated (a message handed to it), every poll_intent will
  /// return nullopt AND every observe() of a silence slot leaves all
  /// observable state (including the protocol digest) unchanged. When every
  /// attached station is quiescent the channel may skip simulating silence
  /// slots wholesale. The default is conservative: never skip.
  virtual bool quiescent() const { return false; }
};

}  // namespace hrtdm::net
