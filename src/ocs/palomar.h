// The Palomar OCS (§3.2): a non-blocking 136x136 optical crossbar with
// bijective any-to-any north->south connectivity. 128 duplex ports serve the
// fabric; 8 are spares for link testing and repairs. Reconfiguration is
// transactional: connections shared between the old and new configuration
// are left untouched ("undisturbed"), which is what lets the scheduler place
// new slices without interfering with running jobs (§4.2.4). The delta
// transactions (ConnectDelta / DisconnectDelta) take a flat span of
// (north, south) pairs and touch only the ports they name, so on the slice
// install/remove path every other circuit is undisturbed by construction
// and a transaction costs O(changed ports); Reconfigure takes a full
// std::map target for the control plane.
// A circuit's loss and alignment time depend only on its path (see
// ocs/optical_core.h), so the order in which circuits are established, and
// whether a transaction is a delta or a full target, never changes them.
// Counters and cumulative switch time count the transactions that ran: a
// caller that stages deltas and programs them later (tpu::Superpod) counts
// what it programmed.
#pragma once

#include <array>
#include <bitset>
#include <cstdint>
#include <map>
#include <optional>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "common/result.h"
#include "common/rng.h"
#include "common/units.h"
#include "ocs/chassis.h"
#include "ocs/optical_core.h"

namespace lightwave::telemetry {
class Counter;
class HistogramMetric;
class Hub;
}  // namespace lightwave::telemetry

namespace lightwave::ocs {

inline constexpr int kPalomarPortCount = 136;
inline constexpr int kPalomarUsablePorts = 128;
inline constexpr int kPalomarSparePorts = 8;

struct Connection {
  int north = -1;
  int south = -1;
  common::Decibel insertion_loss{0.0};
  common::Decibel return_loss{-46.0};
  auto operator<=>(const Connection&) const = default;
};

struct ReconfigureReport {
  std::vector<Connection> established;
  std::vector<Connection> removed;
  /// Connections carried over untouched; traffic on them never blips.
  std::vector<Connection> undisturbed;
  /// Wall-clock for the transaction. Mirrors actuate in parallel, so this is
  /// the max (not sum) of per-path alignment times plus command overhead.
  double duration_ms = 0.0;
};

/// Circuits as (north, south) port pairs, the unit of the delta
/// transactions.
using PortPairs = std::span<const std::pair<int, int>>;

/// Ports whose state a caller has staged but not yet programmed: a taken
/// port counts as connected and a freed one as free, whatever the port
/// tables say. CheckConnectDelta validates against the tables under it.
struct PortOverlay {
  std::bitset<kPalomarUsablePorts> north_taken;
  std::bitset<kPalomarUsablePorts> south_taken;
  std::bitset<kPalomarUsablePorts> north_freed;
  std::bitset<kPalomarUsablePorts> south_freed;
};

struct SwitchTelemetry {
  std::uint64_t connects = 0;
  std::uint64_t disconnects = 0;
  std::uint64_t reconfigurations = 0;
  std::uint64_t rejected_commands = 0;
  double cumulative_switch_ms = 0.0;
};

class PalomarSwitch {
 public:
  explicit PalomarSwitch(std::uint64_t seed, std::string name = "palomar");

  const std::string& name() const { return name_; }
  int port_count() const { return kPalomarPortCount; }

  /// Establishes north<->south. Fails when either side is already connected
  /// (the crossbar is bijective), out of range, or its mirror chain is dead.
  common::Result<Connection> Connect(int north, int south);

  /// Tears down the connection on `north`. Fails when none exists.
  common::Status Disconnect(int north);

  /// Atomically moves to `target` (a set of north->south pairs). Preserves
  /// intersecting connections undisturbed. Fails (with no state change) when
  /// the target is not bijective or references dead/out-of-range ports;
  /// once validated it always applies in full.
  common::Result<ReconfigureReport> Reconfigure(const std::map<int, int>& target);

  /// Adds the circuits in `delta` in one transaction that touches only
  /// those ports, establishing them in the span's order. In north order,
  /// state and telemetry are exactly those of Reconfigure(CurrentMapping()
  /// plus delta). Fails with no state change when a port is out of range,
  /// dead or already connected, or a north or a south repeats. Returns the
  /// transaction duration (command overhead + slowest alignment).
  common::Result<double> ConnectDelta(PortPairs delta);
  /// ConnectDelta's validation alone, against the port tables under
  /// `staged`: no state change, no rejection counted. A delta it passes with
  /// an empty overlay, ConnectDelta applies in full; with a caller's staged
  /// overlay, it applies once those staged deltas have been programmed.
  common::Status CheckConnectDelta(PortPairs delta, const PortOverlay& staged = {}) const;

  /// Tears down the circuits in `delta` in one transaction, exactly as
  /// Reconfigure(CurrentMapping() minus delta) would: a pair that is not a
  /// live circuit is left alone. Fails with no state change when a port is
  /// out of range. Returns the transaction duration.
  common::Result<double> DisconnectDelta(PortPairs delta);

  /// Current connection on a north port.
  std::optional<Connection> ConnectionOn(int north) const;
  /// Alignment time of the live circuit on `north` when it was established
  /// (0 when the port has none).
  double CircuitAlignmentMs(int north) const;
  std::vector<Connection> Connections() const;
  int ConnectionCount() const { return connection_count_; }
  /// The complete current cross-connect map (logical north -> south), built
  /// on demand; the ground truth the control plane's snapshot/rollback
  /// machinery is judged against in tests.
  std::map<int, int> CurrentMapping() const;

  /// Injects a mirror failure affecting the given port side. Returns true if
  /// the port survived (a spare mirror was mapped in). A destroyed port
  /// rejects future connections (until remapped to a spare port).
  bool InjectMirrorFailure(bool north_side, int port);

  bool PortUsable(bool north_side, int port) const;

  /// --- spare ports (§4.1.1: 128 usable + 8 spares "for link testing and
  /// repairs") -----------------------------------------------------------
  /// Logical fabric ports 0..127 map to physical collimator positions; the
  /// 8 spare positions form a repair pool. RemapToSpare re-patches a
  /// degraded or dead logical port onto the next spare position and
  /// re-establishes its connection through the new path. Fails when the
  /// pool is empty or the logical port is out of the usable range.
  common::Status RemapToSpare(bool north_side, int logical_port);
  int SparePortsRemaining(bool north_side) const;
  /// Physical collimator position currently backing a logical port.
  int PhysicalPort(bool north_side, int logical_port) const;

  /// Re-measures the optical path of every active connection (in-situ link
  /// monitoring).
  std::vector<Connection> SurveyConnections() const;

  /// Structural audit of the whole switch state: N->S and S->N maps are
  /// mutual inverses (bijectivity), the active-connection table agrees with
  /// them, no active connection rides a dead mirror chain, logical->physical
  /// patch maps are injective and disjoint from the spare pools. Runs
  /// automatically at every transaction boundary when validation mode is on
  /// (common::ValidationEnabled()); violations go through LW_CHECK_OK.
  common::Status ValidateInvariants() const;

  /// Test-only corruption hooks for the validator's negative tests: write
  /// inconsistent state directly, bypassing the transactional API.
  void TestOnlyCorruptMapping(int north, int south);
  void TestOnlyKillPortUnderConnection(bool north_side, int logical_port);

  const SwitchTelemetry& telemetry() const { return telemetry_; }
  Chassis& chassis() { return chassis_; }
  const Chassis& chassis() const { return chassis_; }

  /// Starts mirroring switch activity into `hub` (nullptr detaches): counts
  /// of reconfigurations / connects / rejected commands, the per-path
  /// insertion-loss histogram of every established connection (the Fig. 10
  /// distribution), and per-transaction switch durations. Series carry a
  /// `switch=<name>` label.
  void AttachTelemetry(telemetry::Hub* hub);

  /// Fixed command/settle overhead per reconfiguration transaction.
  static constexpr double kCommandOverheadMs = 2.0;

 private:
  /// Port-table entry of a port with no circuit.
  static constexpr int kNoPort = -1;

  /// Aligns and records the circuit north -> south. Both ports must be in
  /// range, usable and free (callers check first), so it cannot fail.
  Connection Establish(int north, int south);
  /// North end of the circuit through `port` on the given side, or kNoPort.
  int CircuitNorth(bool north_side, int port) const;
  /// Removes the live circuit on `north` from the port tables.
  void TearDown(int north);
  /// Validation shared by Reconfigure targets and ConnectDelta deltas (a
  /// std::map or a PortPairs span): every port in range and alive, no north
  /// or south used twice, and with `free_under` no port connected under
  /// that overlay. Reports the first failing pair; changes no state.
  template <typename Pairs>
  common::Status CheckPairs(const Pairs& pairs, const PortOverlay* free_under) const;
  /// Closes a successful transaction: one reconfiguration lasting the
  /// command overhead plus `max_alignment_ms`, its telemetry, and the
  /// boundary validation. Returns the duration.
  double FinishTransaction(double max_alignment_ms, const char* boundary);
  void NoteRejected();
  /// Runs ValidateInvariants through LW_CHECK_OK when validation mode is on.
  void MaybeValidate(const char* boundary) const;

  std::string name_;
  OpticalCore core_;
  Chassis chassis_;
  // Flat port tables over logical ports; kNoPort marks a free port, and a
  // free north's active_ slot is a default Connection (north == kNoPort).
  std::array<int, kPalomarUsablePorts> north_to_south_;
  std::array<int, kPalomarUsablePorts> south_to_north_;
  std::array<Connection, kPalomarUsablePorts> active_;  // indexed by north
  std::array<double, kPalomarUsablePorts> alignment_ms_{};  // indexed by north
  int connection_count_ = 0;
  std::vector<bool> north_usable_;      // indexed by physical port
  std::vector<bool> south_usable_;      // indexed by physical port
  std::vector<int> north_physical_;     // logical -> physical
  std::vector<int> south_physical_;
  std::vector<int> north_spares_;       // free physical spare positions
  std::vector<int> south_spares_;
  SwitchTelemetry telemetry_;
  telemetry::Counter* reconfig_counter_ = nullptr;
  telemetry::Counter* connect_counter_ = nullptr;
  telemetry::Counter* rejected_counter_ = nullptr;
  telemetry::HistogramMetric* insertion_loss_hist_ = nullptr;
  telemetry::HistogramMetric* switch_duration_hist_ = nullptr;
};

}  // namespace lightwave::ocs
