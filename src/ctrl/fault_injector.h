// Deterministic control-plane chaos (the paper's §3.3/§4.5 operational
// failure modes, which the availability story depends on absorbing):
//   - agent fail-stop/restart: the OCS agent process dies mid-conversation
//     and later restarts with its volatile state (idempotency cache) gone;
//   - bus brownout windows: the management network degrades in bursts, so
//     loss is correlated across consecutive frames instead of i.i.d.;
//   - mirror death mid-reconfigure: a MEMS mirror chain under a port of the
//     incoming target fails just as the switch is driven to it; when no
//     spare mirror survives, the port dies with its circuit and the switch
//     rejects the target (the rollback path's hard case).
// Every decision comes from counter-based common::Rng streams derived from
// one seed, so a chaos run replays bit-for-bit.
#pragma once

#include <array>
#include <atomic>
#include <cstdint>
#include <map>

#include "common/rng.h"

namespace lightwave::telemetry {
class Counter;
class Hub;
}  // namespace lightwave::telemetry

namespace lightwave::ocs {
class PalomarSwitch;
}  // namespace lightwave::ocs

namespace lightwave::ctrl {

class OcsAgent;

struct FaultProfile {
  /// Per-round-trip probability that an up agent fail-stops.
  double agent_fail_prob = 0.0;
  /// Per-round-trip probability that a down agent restarts (and serves the
  /// round trip that found it back up).
  double agent_restart_prob = 0.0;
  /// Whether a restart loses the agent's volatile idempotency cache (a real
  /// process restart does; the switch hardware keeps its configuration).
  bool restart_loses_state = true;

  /// Per-frame probability that a brownout window opens while the bus is
  /// clear.
  double brownout_start_prob = 0.0;
  /// Per-frame probability that an open window closes (geometric window
  /// length with mean 1/brownout_end_prob frames).
  double brownout_end_prob = 0.25;
  /// Drop probability for frames inside a window (correlated loss).
  double brownout_drop_prob = 0.9;

  /// Per-executed-reconfigure probability that a mirror chain under one of
  /// the target's ports dies just before the switch validates the target.
  double mirror_death_prob = 0.0;
};

/// Where in the journaled command path a simulated process crash lands.
/// The order encodes the durability contract: a crash before the append
/// loses the command but never an acknowledgement (the client resubmits);
/// a crash at or after the append loses only volatile state — recovery must
/// re-apply the journaled command exactly once.
enum class CrashPoint {
  kPreAppend,          // command accepted but not yet journaled
  kPostAppendPreApply, // journaled, nothing applied
  kMidApply,           // journaled, state mutation half done
};
const char* ToString(CrashPoint point);

class FaultInjector {
 public:
  FaultInjector(std::uint64_t seed, FaultProfile profile);

  /// Bus hook, called once per frame direction: advances the brownout
  /// window state machine and returns true when the frame is eaten.
  bool OnFrame();

  /// Bus hook, called once per round trip: walks the agent's
  /// fail-stop/restart chain and returns false while the agent is down.
  bool AgentUp(OcsAgent& agent);

  /// Agent hook, called before an executed reconfigure: maybe kills a
  /// mirror under one of the target's ports (spares absorb early deaths;
  /// an exhausted pool destroys the port).
  void BeforeReconfigure(ocs::PalomarSwitch& ocs, const std::map<int, int>& target);

  /// Arms a one-shot crash: the `visits`-th future visit to `point` (1 =
  /// the very next one) makes ShouldCrash return true, then disarms. Visits
  /// to other crash points are counted but do not consume the fuse, so a
  /// crash can be dropped on an exact command boundary of a long trace.
  /// Arm while no stage is visiting.
  void ArmCrash(CrashPoint point, std::uint64_t visits = 1);

  /// Service hook, called at every crash point on the command path. Counts
  /// the visit and returns true exactly when the armed fuse burns out — the
  /// caller then abandons its volatile state, simulating the process dying.
  /// Safe to call from a pipelined shard's journal and apply threads at
  /// once: the fuse burns out on exactly one visit.
  bool ShouldCrash(CrashPoint point);

  std::uint64_t crashes_fired() const { return crashes_fired_.load(); }
  std::uint64_t crash_point_visits(CrashPoint point) const;

  const FaultProfile& profile() const { return profile_; }
  std::uint64_t fail_stops() const { return fail_stops_; }
  std::uint64_t restarts() const { return restarts_; }
  std::uint64_t brownouts() const { return brownouts_; }
  std::uint64_t mirror_deaths() const { return mirror_deaths_; }
  std::uint64_t ports_destroyed() const { return ports_destroyed_; }

  /// Mirrors the injected-fault counts into `hub` (nullptr detaches), so a
  /// chaos run's telemetry shows cause (faults) next to effect (rollbacks).
  void AttachTelemetry(telemetry::Hub* hub);

 private:
  FaultProfile profile_;
  common::Rng agent_rng_;
  common::Rng bus_rng_;
  common::Rng mirror_rng_;
  bool brownout_ = false;
  std::map<const OcsAgent*, bool> down_;
  std::uint64_t fail_stops_ = 0;
  std::uint64_t restarts_ = 0;
  std::uint64_t brownouts_ = 0;
  std::uint64_t mirror_deaths_ = 0;
  std::uint64_t ports_destroyed_ = 0;
  /// The armed CrashPoint as an int, or kDisarmed.
  static constexpr int kDisarmed = -1;
  std::atomic<int> armed_crash_point_{kDisarmed};
  std::atomic<std::uint64_t> armed_crash_visits_{0};
  std::atomic<std::uint64_t> crashes_fired_{0};
  std::array<std::atomic<std::uint64_t>, 3> crash_point_visits_{};
  telemetry::Counter* fail_stop_counter_ = nullptr;
  telemetry::Counter* brownout_counter_ = nullptr;
  telemetry::Counter* mirror_death_counter_ = nullptr;
};

}  // namespace lightwave::ctrl
