// OCS device controller and fabric-wide transaction driver. The device agent
// terminates wire-format commands against a PalomarSwitch; the fabric
// controller fans a topology change out to many agents as a transaction:
// every touched switch is snapshotted first, retries back off exponentially
// with deterministic jitter, and any per-OCS rejection or retry exhaustion
// rolls the already-reconfigured switches back to their snapshots so the
// fabric is never silently left half-applied. Transport is an in-process
// message bus with injectable loss/corruption — plus an optional
// FaultInjector modelling correlated brownouts, agent fail-stop/restart,
// and mirror death mid-reconfigure — so the recovery path is testable.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "common/result.h"
#include "common/rng.h"
#include "ctrl/messages.h"
#include "ocs/palomar.h"

namespace lightwave::telemetry {
class Counter;
class Gauge;
class HistogramMetric;
class Hub;
}  // namespace lightwave::telemetry

namespace lightwave::ctrl {

class FaultInjector;

/// The device-side agent: decodes a framed command, executes it against the
/// switch, returns a framed reply.
class OcsAgent {
 public:
  explicit OcsAgent(ocs::PalomarSwitch& ocs) : ocs_(ocs) {}

  /// Returns a framed reply; malformed input yields an empty vector (a real
  /// agent would drop the frame, forcing a client timeout/retry).
  std::vector<std::uint8_t> Handle(const std::vector<std::uint8_t>& frame);

  const ocs::PalomarSwitch& device() const { return ocs_; }

  /// Frames this agent dropped as undecodable. Distinguishes protocol
  /// damage (corruption that survived transport) from transport loss, which
  /// the MessageBus counts separately.
  std::uint64_t malformed_frames() const { return malformed_frames_; }

  /// Starts mirroring the malformed-frame count into `hub` (nullptr
  /// detaches; the default no-op sink).
  void AttachTelemetry(telemetry::Hub* hub);

  /// Installs the chaos hook consulted before every executed reconfigure
  /// (nullptr detaches). See ctrl::FaultInjector.
  void SetFaultInjector(FaultInjector* injector) { fault_injector_ = injector; }

  /// Models an agent process restart: volatile state (the idempotency cache)
  /// is lost; the switch hardware keeps its configuration. Safe because
  /// re-executing a reconfigure against an already-matching switch leaves
  /// every connection undisturbed.
  void SimulateRestart();

 private:
  ocs::PalomarSwitch& ocs_;
  /// Idempotency cache key. nullopt until the first executed transaction:
  /// transaction id 0 is a valid first request (a zero-initialised sentinel
  /// here used to swallow it and answer with a stale default reply).
  std::optional<std::uint64_t> last_applied_txn_;
  std::uint64_t malformed_frames_ = 0;
  telemetry::Counter* malformed_counter_ = nullptr;
  FaultInjector* fault_injector_ = nullptr;
  ReconfigureReply last_reply_;
};

/// Lossy in-process transport between the controller and agents.
class MessageBus {
 public:
  explicit MessageBus(std::uint64_t seed) : rng_(seed) {}

  /// Per-direction drop probability (models i.i.d. management-network loss).
  void SetDropProbability(double p) { drop_probability_ = p; }
  /// Per-direction bit-corruption probability (CRC catches these).
  void SetCorruptProbability(double p) { corrupt_probability_ = p; }

  /// Installs the chaos hook consulted per frame (correlated brownout loss)
  /// and per round trip (agent fail-stop). nullptr detaches.
  void SetFaultInjector(FaultInjector* injector) { fault_injector_ = injector; }

  /// Test/chaos knob: after `frames` more deliveries, drop every subsequent
  /// frame (models the management network partitioning away mid-flight).
  void PartitionAfter(std::uint64_t frames) { partition_after_ = frames; }
  void HealPartition() { partition_after_.reset(); }

  /// Delivers `frame` to `agent` and returns the reply; empty when either
  /// direction dropped the message or the agent is failed-stop.
  std::vector<std::uint8_t> RoundTrip(OcsAgent& agent, std::vector<std::uint8_t> frame);

  std::uint64_t frames_dropped() const { return frames_dropped_; }

  /// Mirrors the frame counters into `hub` (nullptr detaches). Handles are
  /// resolved once here, so the per-frame cost is one pointer test.
  void AttachTelemetry(telemetry::Hub* hub);

 private:
  std::vector<std::uint8_t> MaybeMangle(std::vector<std::uint8_t> frame, bool* dropped);

  telemetry::Counter* sent_counter_ = nullptr;
  telemetry::Counter* dropped_counter_ = nullptr;
  telemetry::Counter* corrupted_counter_ = nullptr;
  common::Rng rng_;
  FaultInjector* fault_injector_ = nullptr;
  std::optional<std::uint64_t> partition_after_;
  double drop_probability_ = 0.0;
  double corrupt_probability_ = 0.0;
  std::uint64_t frames_dropped_ = 0;
};

/// How a fabric transaction left the switches it touched.
enum class FabricTxnOutcome {
  kApplied,     // every OCS holds the target
  kRolledBack,  // a failure occurred; every touched OCS was restored (an
                // empty `rolled_back` list means nothing had been touched)
  kTorn,        // rollback failed on >= 1 OCS; `torn` lists them
};
const char* ToString(FabricTxnOutcome outcome);

struct FabricTransactionResult {
  bool ok = false;
  FabricTxnOutcome outcome = FabricTxnOutcome::kRolledBack;
  /// Per-OCS replies (keyed by the caller's OCS id).
  std::map<int, ReconfigureReply> replies;
  /// Retries across every exchange of the transaction (snapshot surveys,
  /// applies, and rollbacks alike).
  int retries_used = 0;
  /// Simulated backoff delay accumulated across those retries (µs).
  /// Deterministic given the controller's backoff seed.
  double backoff_us = 0.0;
  /// OCS ids confirmed restored to their pre-transaction snapshots.
  std::vector<int> rolled_back;
  /// OCS ids whose state could not be confirmed restored (the rollback
  /// exhausted retries or was rejected). Their mapping may be the target,
  /// or the snapshot less any circuit a mirror death tore down; per-switch
  /// bijectivity still holds (the switch validates its own invariants at
  /// every transaction boundary).
  std::vector<int> torn;
  std::string error;
};

/// Per-agent circuit breaker state. Closed agents are driven normally; an
/// open breaker fails transactions touching the agent immediately (no retry
/// burn) for `breaker_cooldown` transactions, then lets one probe through
/// (half-open). A successful probe closes the breaker; a failed one re-opens
/// it.
enum class BreakerState { kClosed, kOpen, kHalfOpen };
const char* ToString(BreakerState state);

struct FabricControllerOptions {
  int max_retries = 5;
  /// Seed for the deterministic backoff jitter stream.
  std::uint64_t backoff_seed = 0xBACC0FFull;
  /// Consecutive transactions in which an agent exhausts its retries before
  /// the circuit breaker opens.
  int breaker_threshold = 3;
  /// Transactions failed fast while open before the half-open probe.
  int breaker_cooldown = 2;
};

/// What a fabric-wide telemetry sweep actually reached. Agents that
/// exhausted their retries land in `failed` with the reason instead of being
/// silently dropped from the reply map.
struct FabricTelemetrySweep {
  std::map<int, TelemetryReply> replies;
  std::map<int, std::string> failed;
};

/// Client-side controller: drives reconfiguration transactions across a set
/// of agents. Transactions are idempotent on the agent (keyed by transaction
/// id), so a lost reply is safe to retry; on failure the controller restores
/// every touched switch to its snapshot so callers never observe a
/// half-applied fabric without an explicit `torn` report.
class FabricController {
 public:
  explicit FabricController(MessageBus& bus, FabricControllerOptions options = {})
      : bus_(bus), options_(options), backoff_rng_(options.backoff_seed) {}
  /// Convenience constructor preserving the original (bus, max_retries)
  /// call sites.
  FabricController(MessageBus& bus, int max_retries)
      : FabricController(bus, [max_retries] {
          FabricControllerOptions options;
          options.max_retries = max_retries;
          return options;
        }()) {}

  void Register(int ocs_id, OcsAgent* agent);

  /// Applies `targets` (ocs id -> complete cross-connect map)
  /// transactionally: snapshot every touched OCS, apply in id order with
  /// backed-off retries, and on any rejection or retry exhaustion roll the
  /// already-reconfigured OCSes (plus the in-doubt one) back to their
  /// snapshots. The result reports applied / rolled-back / torn explicitly.
  FabricTransactionResult ApplyTopology(const std::map<int, std::map<int, int>>& targets);

  /// Collects telemetry from every registered agent; unreachable agents are
  /// reported in `failed` rather than silently omitted.
  FabricTelemetrySweep CollectTelemetry();

  /// Circuit-breaker state for one agent (kClosed when never registered or
  /// never tripped).
  BreakerState breaker_state(int ocs_id) const;

  const FabricControllerOptions& options() const { return options_; }

  /// Durability hooks (journal snapshots): serializes the controller's
  /// replayable state — transaction/nonce counters and per-agent breaker
  /// health — into `writer`. Options, the agent registry, and telemetry
  /// handles are reconstructed from code/config, not persisted.
  void ExportState(WireWriter& writer) const;

  /// Per-agent circuit-breaker health.
  struct AgentHealth {
    BreakerState state = BreakerState::kClosed;
    int consecutive_exhaustions = 0;
    int cooldown_remaining = 0;
  };
  /// ExportState's fields, decoded and checked but not yet applied.
  struct SavedState {
    std::uint64_t next_txn = 1;
    std::uint64_t next_nonce = 1;
    std::map<int, AgentHealth> health;
  };
  /// Reads one ExportState section. Changes nothing; fails cleanly on
  /// truncated or malformed bytes.
  static common::Result<SavedState> DecodeState(WireReader& reader);
  /// Takes a decoded state, against a fresh controller with the same agents
  /// registered.
  void RestoreState(SavedState state);
  /// DecodeState then RestoreState.
  common::Status ImportState(WireReader& reader);

  /// Starts recording transaction spans (one per ApplyTopology, one child
  /// per OCS fan-out, one per rollback) and latency/retry/rollback metrics
  /// into `hub`.
  void AttachTelemetry(telemetry::Hub* hub);

 private:
  struct Planned {
    int ocs_id = -1;
    OcsAgent* agent = nullptr;
    const std::map<int, int>* target = nullptr;
    std::map<int, int> snapshot;
  };

  /// Simulated backoff before retry `attempt` (>= 1):
  ///   min(kBackoffMaxUs, kBackoffBaseUs * kBackoffMultiplier^(attempt-1))
  /// scaled by a uniform draw in [1 - kBackoffJitter, 1 + kBackoffJitter]
  /// (constants in controller.cpp); records into the backoff histogram.
  /// Deterministic given the backoff seed and sequence.
  double NextBackoffUs(int attempt);
  /// One reconfigure exchange with retries + backoff. nullopt = exhausted.
  std::optional<ReconfigureReply> ExchangeReconfigure(OcsAgent& agent,
                                                      const ReconfigureRequest& request,
                                                      FabricTransactionResult* result,
                                                      int* attempts_used);
  /// Reads an OCS's current cross-connect map over the wire (port survey).
  std::optional<std::map<int, int>> SnapshotMapping(OcsAgent& agent,
                                                    FabricTransactionResult* result);
  /// Restores `touched` (in reverse apply order) to their snapshots,
  /// classifying each as rolled_back or torn and setting result->outcome.
  void Rollback(const std::vector<const Planned*>& touched,
                FabricTransactionResult* result);
  void NoteExhaustion(int ocs_id);
  void NoteContact(int ocs_id);
  void UpdateUnhealthyGauge();
  FabricTransactionResult& Fail(FabricTransactionResult& result, std::string error);

  MessageBus& bus_;
  FabricControllerOptions options_;
  common::Rng backoff_rng_;
  std::map<int, OcsAgent*> agents_;
  std::map<int, AgentHealth> health_;
  std::uint64_t next_txn_ = 1;
  std::uint64_t next_nonce_ = 1;
  telemetry::Hub* hub_ = nullptr;
  telemetry::Counter* txn_counter_ = nullptr;
  telemetry::Counter* txn_failure_counter_ = nullptr;
  telemetry::Counter* retry_counter_ = nullptr;
  telemetry::Counter* rollback_counter_ = nullptr;
  telemetry::Counter* torn_counter_ = nullptr;
  telemetry::Counter* breaker_trip_counter_ = nullptr;
  telemetry::Counter* telemetry_failure_counter_ = nullptr;
  telemetry::Gauge* unhealthy_gauge_ = nullptr;
  telemetry::HistogramMetric* txn_duration_hist_ = nullptr;
  telemetry::HistogramMetric* backoff_hist_ = nullptr;
};

}  // namespace lightwave::ctrl
