#include "ctrl/controller.h"

#include <algorithm>
#include <cassert>

#include "ctrl/fault_injector.h"
#include "telemetry/hub.h"

namespace lightwave::ctrl {

namespace {

/// Retry backoff schedule (see FabricController::NextBackoffUs).
constexpr double kBackoffBaseUs = 100.0;
constexpr double kBackoffMultiplier = 2.0;
constexpr double kBackoffMaxUs = 10000.0;
constexpr double kBackoffJitter = 0.5;

}  // namespace

const char* ToString(FabricTxnOutcome outcome) {
  switch (outcome) {
    case FabricTxnOutcome::kApplied: return "applied";
    case FabricTxnOutcome::kRolledBack: return "rolled_back";
    case FabricTxnOutcome::kTorn: return "torn";
  }
  return "?";
}

const char* ToString(BreakerState state) {
  switch (state) {
    case BreakerState::kClosed: return "closed";
    case BreakerState::kOpen: return "open";
    case BreakerState::kHalfOpen: return "half-open";
  }
  return "?";
}

void OcsAgent::AttachTelemetry(telemetry::Hub* hub) {
  malformed_counter_ =
      hub == nullptr
          ? nullptr
          : &hub->metrics().GetCounter("lightwave_ctrl_agent_malformed_frames_total");
}

void OcsAgent::SimulateRestart() {
  last_applied_txn_.reset();
  last_reply_ = ReconfigureReply{};
}

std::vector<std::uint8_t> OcsAgent::Handle(const std::vector<std::uint8_t>& frame) {
  // A real agent silently drops undecodable frames and lets the client time
  // out; counting them keeps protocol damage distinguishable from transport
  // loss in tests and in the exported metrics.
  auto drop_malformed = [this]() -> std::vector<std::uint8_t> {
    ++malformed_frames_;
    if (malformed_counter_ != nullptr) malformed_counter_->Inc();
    return {};
  };
  const auto type = PeekType(frame);
  if (!type) return drop_malformed();
  switch (*type) {
    case MessageType::kReconfigureRequest: {
      auto request = DecodeReconfigureRequest(frame);
      if (!request) return drop_malformed();
      // Idempotency: a retried transaction returns the recorded reply
      // instead of re-executing (re-execution would be harmless here but
      // would double-count telemetry).
      if (last_applied_txn_.has_value() &&
          *last_applied_txn_ == request->transaction_id) {
        return Encode(last_reply_);
      }
      if (fault_injector_ != nullptr) {
        fault_injector_->BeforeReconfigure(ocs_, request->target);
      }
      ReconfigureReply reply;
      reply.transaction_id = request->transaction_id;
      auto report = ocs_.Reconfigure(request->target);
      if (report.ok()) {
        reply.ok = true;
        reply.established = static_cast<std::uint32_t>(report.value().established.size());
        reply.removed = static_cast<std::uint32_t>(report.value().removed.size());
        reply.undisturbed = static_cast<std::uint32_t>(report.value().undisturbed.size());
        reply.duration_ms = report.value().duration_ms;
      } else {
        reply.ok = false;
        reply.error = report.error().message;
      }
      last_applied_txn_ = request->transaction_id;
      last_reply_ = reply;
      return Encode(reply);
    }
    case MessageType::kTelemetryRequest: {
      auto request = DecodeTelemetryRequest(frame);
      if (!request) return drop_malformed();
      const auto& t = ocs_.telemetry();
      return Encode(TelemetryReply{
          .nonce = request->nonce,
          .connects = t.connects,
          .disconnects = t.disconnects,
          .reconfigurations = t.reconfigurations,
          .rejected_commands = t.rejected_commands,
          .cumulative_switch_ms = t.cumulative_switch_ms,
          .power_draw_w = ocs_.chassis().PowerDrawWatts(),
          .chassis_operational = ocs_.chassis().Operational(),
      });
    }
    case MessageType::kPortSurveyRequest: {
      auto request = DecodePortSurveyRequest(frame);
      if (!request) return drop_malformed();
      PortSurveyReply reply;
      reply.nonce = request->nonce;
      for (const auto& conn : ocs_.SurveyConnections()) {
        reply.entries.push_back(PortSurveyEntry{
            .north = conn.north,
            .south = conn.south,
            .insertion_loss_db = conn.insertion_loss.value(),
            .return_loss_db = conn.return_loss.value(),
        });
      }
      return Encode(reply);
    }
    default:
      return drop_malformed();  // replies are not valid requests
  }
}

void MessageBus::AttachTelemetry(telemetry::Hub* hub) {
  if (hub == nullptr) {
    sent_counter_ = dropped_counter_ = corrupted_counter_ = nullptr;
    return;
  }
  auto& metrics = hub->metrics();
  sent_counter_ = &metrics.GetCounter("lightwave_ctrl_frames_sent_total");
  dropped_counter_ = &metrics.GetCounter("lightwave_ctrl_frames_dropped_total");
  corrupted_counter_ = &metrics.GetCounter("lightwave_ctrl_frames_corrupted_total");
}

std::vector<std::uint8_t> MessageBus::MaybeMangle(std::vector<std::uint8_t> frame,
                                                  bool* dropped) {
  *dropped = false;
  if (sent_counter_ != nullptr) sent_counter_->Inc();
  // Loss sources, most-correlated first: a hard partition, a brownout window
  // (the injector models bursts, not i.i.d. flips), then the classic
  // independent per-frame loss.
  bool eaten = false;
  if (partition_after_.has_value()) {
    if (*partition_after_ == 0) {
      eaten = true;
    } else {
      --*partition_after_;
    }
  }
  if (!eaten && fault_injector_ != nullptr && fault_injector_->OnFrame()) eaten = true;
  if (!eaten && rng_.Bernoulli(drop_probability_)) eaten = true;
  if (eaten) {
    ++frames_dropped_;
    if (dropped_counter_ != nullptr) dropped_counter_->Inc();
    *dropped = true;
    return {};
  }
  if (!frame.empty() && rng_.Bernoulli(corrupt_probability_)) {
    if (corrupted_counter_ != nullptr) corrupted_counter_->Inc();
    const std::size_t byte = static_cast<std::size_t>(rng_.UniformInt(frame.size()));
    frame[byte] ^= static_cast<std::uint8_t>(1u << rng_.UniformInt(8));
  }
  return frame;
}

std::vector<std::uint8_t> MessageBus::RoundTrip(OcsAgent& agent,
                                                std::vector<std::uint8_t> frame) {
  bool dropped = false;
  auto delivered = MaybeMangle(std::move(frame), &dropped);
  if (dropped) return {};
  if (fault_injector_ != nullptr && !fault_injector_->AgentUp(agent)) {
    // The frame reached a fail-stopped agent process: it vanishes exactly
    // like transport loss from the controller's point of view.
    ++frames_dropped_;
    if (dropped_counter_ != nullptr) dropped_counter_->Inc();
    return {};
  }
  auto reply = agent.Handle(delivered);
  if (reply.empty()) return {};  // agent dropped a mangled frame
  auto returned = MaybeMangle(std::move(reply), &dropped);
  if (dropped) return {};
  return returned;
}

void FabricController::Register(int ocs_id, OcsAgent* agent) {
  assert(agent != nullptr);
  agents_[ocs_id] = agent;
}

void FabricController::AttachTelemetry(telemetry::Hub* hub) {
  hub_ = hub;
  if (hub == nullptr) {
    txn_counter_ = txn_failure_counter_ = retry_counter_ = nullptr;
    rollback_counter_ = torn_counter_ = breaker_trip_counter_ = nullptr;
    telemetry_failure_counter_ = nullptr;
    unhealthy_gauge_ = nullptr;
    txn_duration_hist_ = backoff_hist_ = nullptr;
    return;
  }
  auto& metrics = hub->metrics();
  txn_counter_ = &metrics.GetCounter("lightwave_ctrl_transactions_total");
  txn_failure_counter_ = &metrics.GetCounter("lightwave_ctrl_transaction_failures_total");
  retry_counter_ = &metrics.GetCounter("lightwave_ctrl_retries_total");
  rollback_counter_ = &metrics.GetCounter("lightwave_ctrl_rollbacks_total");
  torn_counter_ = &metrics.GetCounter("lightwave_ctrl_torn_transactions_total");
  breaker_trip_counter_ = &metrics.GetCounter("lightwave_ctrl_breaker_trips_total");
  telemetry_failure_counter_ =
      &metrics.GetCounter("lightwave_ctrl_telemetry_failures_total");
  unhealthy_gauge_ = &metrics.GetGauge("lightwave_ctrl_agent_unhealthy");
  txn_duration_hist_ = &metrics.GetHistogram("lightwave_ctrl_transaction_duration_ms");
  backoff_hist_ = &metrics.GetHistogram("lightwave_ctrl_backoff_delay_us");
}

double FabricController::NextBackoffUs(int attempt) {
  double delay = kBackoffBaseUs;
  for (int i = 1; i < attempt && delay < kBackoffMaxUs; ++i) delay *= kBackoffMultiplier;
  delay = std::min(delay, kBackoffMaxUs);
  delay *= backoff_rng_.Uniform(1.0 - kBackoffJitter, 1.0 + kBackoffJitter);
  if (backoff_hist_ != nullptr) backoff_hist_->Observe(delay);
  return delay;
}

std::optional<ReconfigureReply> FabricController::ExchangeReconfigure(
    OcsAgent& agent, const ReconfigureRequest& request, FabricTransactionResult* result,
    int* attempts_used) {
  const auto frame = Encode(request);
  for (int attempt = 0; attempt <= options_.max_retries; ++attempt) {
    if (attempt > 0) {
      ++result->retries_used;
      if (retry_counter_ != nullptr) retry_counter_->Inc();
      result->backoff_us += NextBackoffUs(attempt);
    }
    auto reply_frame = bus_.RoundTrip(agent, frame);
    if (reply_frame.empty()) continue;  // lost either direction; retry
    auto reply = DecodeReconfigureReply(reply_frame);
    if (!reply || reply->transaction_id != request.transaction_id) continue;
    if (attempts_used != nullptr) *attempts_used = attempt + 1;
    return reply;
  }
  if (attempts_used != nullptr) *attempts_used = options_.max_retries + 1;
  return std::nullopt;
}

std::optional<std::map<int, int>> FabricController::SnapshotMapping(
    OcsAgent& agent, FabricTransactionResult* result) {
  const PortSurveyRequest request{.nonce = next_nonce_++};
  const auto frame = Encode(request);
  for (int attempt = 0; attempt <= options_.max_retries; ++attempt) {
    if (attempt > 0) {
      ++result->retries_used;
      if (retry_counter_ != nullptr) retry_counter_->Inc();
      result->backoff_us += NextBackoffUs(attempt);
    }
    auto reply_frame = bus_.RoundTrip(agent, frame);
    if (reply_frame.empty()) continue;
    auto reply = DecodePortSurveyReply(reply_frame);
    if (!reply || reply->nonce != request.nonce) continue;
    std::map<int, int> snapshot;
    for (const auto& entry : reply->entries) snapshot[entry.north] = entry.south;
    return snapshot;
  }
  return std::nullopt;
}

void FabricController::UpdateUnhealthyGauge() {
  if (unhealthy_gauge_ == nullptr) return;
  int open = 0;
  for (const auto& [id, health] : health_) {
    if (health.state != BreakerState::kClosed) ++open;
  }
  unhealthy_gauge_->Set(static_cast<double>(open));
}

void FabricController::NoteExhaustion(int ocs_id) {
  AgentHealth& health = health_[ocs_id];
  ++health.consecutive_exhaustions;
  if (health.state == BreakerState::kHalfOpen ||
      health.consecutive_exhaustions >= options_.breaker_threshold) {
    if (health.state != BreakerState::kOpen && breaker_trip_counter_ != nullptr) {
      breaker_trip_counter_->Inc();
    }
    health.state = BreakerState::kOpen;
    health.cooldown_remaining = options_.breaker_cooldown;
    UpdateUnhealthyGauge();
  }
}

void FabricController::NoteContact(int ocs_id) {
  AgentHealth& health = health_[ocs_id];
  health.consecutive_exhaustions = 0;
  if (health.state != BreakerState::kClosed) {
    health.state = BreakerState::kClosed;
    health.cooldown_remaining = 0;
    UpdateUnhealthyGauge();
  }
}

BreakerState FabricController::breaker_state(int ocs_id) const {
  auto it = health_.find(ocs_id);
  return it == health_.end() ? BreakerState::kClosed : it->second.state;
}

void FabricController::ExportState(WireWriter& writer) const {
  writer.PutU64(next_txn_);
  writer.PutU64(next_nonce_);
  writer.PutVarint(health_.size());
  for (const auto& [ocs_id, health] : health_) {
    writer.PutInt(ocs_id);
    writer.PutU8(static_cast<std::uint8_t>(health.state));
    writer.PutInt(health.consecutive_exhaustions);
    writer.PutInt(health.cooldown_remaining);
  }
}

common::Result<FabricController::SavedState> FabricController::DecodeState(WireReader& reader) {
  SavedState state{.next_txn = reader.GetU64(), .next_nonce = reader.GetU64(), .health = {}};
  for (std::uint64_t i = reader.GetVarint(); i > 0 && reader.ok(); --i) {
    const int ocs_id = reader.GetInt();
    state.health[ocs_id] = AgentHealth{.state = static_cast<BreakerState>(reader.GetU8()),
                                       .consecutive_exhaustions = reader.GetInt(),
                                       .cooldown_remaining = reader.GetInt()};
  }
  if (!reader.ok()) return common::Internal("controller state truncated or beyond the int range");
  for (const auto& [ocs_id, entry] : state.health) {
    if (entry.state > BreakerState::kHalfOpen) {
      return common::Internal("controller state carries unknown breaker state " +
                              std::to_string(static_cast<int>(entry.state)));
    }
  }
  return state;
}

void FabricController::RestoreState(SavedState state) {
  next_txn_ = state.next_txn;
  next_nonce_ = state.next_nonce;
  health_ = std::move(state.health);
  UpdateUnhealthyGauge();
}

common::Status FabricController::ImportState(WireReader& reader) {
  auto state = DecodeState(reader);
  if (!state.ok()) return state.error();
  RestoreState(std::move(state).value());
  return common::Status::Ok();
}

FabricTransactionResult& FabricController::Fail(FabricTransactionResult& result,
                                                std::string error) {
  result.ok = false;
  result.error = std::move(error);
  if (txn_failure_counter_ != nullptr) txn_failure_counter_->Inc();
  return result;
}

void FabricController::Rollback(const std::vector<const Planned*>& touched,
                                FabricTransactionResult* result) {
  if (touched.empty()) {
    result->outcome = FabricTxnOutcome::kRolledBack;
    return;
  }
  if (rollback_counter_ != nullptr) rollback_counter_->Inc();
  telemetry::TraceSpan span(hub_, "rollback_topology");
  if (hub_ != nullptr) span.Annotate("ocs_count", std::to_string(touched.size()));
  // Reverse apply order, so the fabric unwinds the way it wound up.
  for (auto it = touched.rbegin(); it != touched.rend(); ++it) {
    const Planned& p = **it;
    const ReconfigureRequest request{.transaction_id = next_txn_++, .target = p.snapshot};
    auto reply = ExchangeReconfigure(*p.agent, request, result, nullptr);
    if (reply.has_value() && reply->ok) {
      result->rolled_back.push_back(p.ocs_id);
    } else {
      if (!reply.has_value()) NoteExhaustion(p.ocs_id);
      result->torn.push_back(p.ocs_id);
    }
  }
  std::sort(result->rolled_back.begin(), result->rolled_back.end());
  std::sort(result->torn.begin(), result->torn.end());
  result->outcome =
      result->torn.empty() ? FabricTxnOutcome::kRolledBack : FabricTxnOutcome::kTorn;
  if (!result->torn.empty() && torn_counter_ != nullptr) torn_counter_->Inc();
}

FabricTransactionResult FabricController::ApplyTopology(
    const std::map<int, std::map<int, int>>& targets) {
  telemetry::TraceSpan txn_span(hub_, "apply_topology");
  if (hub_ != nullptr) txn_span.Annotate("ocs_count", std::to_string(targets.size()));
  if (txn_counter_ != nullptr) txn_counter_->Inc();
  FabricTransactionResult result;

  // --- plan: resolve agents, gate on circuit breakers, snapshot every
  // touched OCS before mutating anything -------------------------------------
  std::vector<Planned> plan;
  plan.reserve(targets.size());
  for (const auto& [ocs_id, target] : targets) {
    auto it = agents_.find(ocs_id);
    if (it == agents_.end()) {
      return Fail(result, "no agent registered for ocs " + std::to_string(ocs_id));
    }
    AgentHealth& health = health_[ocs_id];
    if (health.state == BreakerState::kOpen) {
      // Fail fast instead of burning the retry budget against a dead agent;
      // after the cooldown the next transaction probes it (half-open).
      if (--health.cooldown_remaining <= 0) health.state = BreakerState::kHalfOpen;
      return Fail(result, "ocs " + std::to_string(ocs_id) +
                              ": circuit breaker open; agent skipped");
    }
    auto snapshot = SnapshotMapping(*it->second, &result);
    if (!snapshot.has_value()) {
      NoteExhaustion(ocs_id);
      return Fail(result, "ocs " + std::to_string(ocs_id) +
                              ": snapshot survey exhausted retries");
    }
    plan.push_back(Planned{ocs_id, it->second, &target, *std::move(snapshot)});
  }

  // --- apply in id order; the first failure rolls back everything already
  // touched (including the in-doubt OCS itself) -------------------------------
  std::vector<const Planned*> touched;
  for (const Planned& p : plan) {
    telemetry::TraceSpan ocs_span(hub_, "reconfigure_ocs");
    if (hub_ != nullptr) ocs_span.Annotate("ocs", std::to_string(p.ocs_id));
    const ReconfigureRequest request{.transaction_id = next_txn_++, .target = *p.target};
    int attempts_used = 0;
    auto reply = ExchangeReconfigure(*p.agent, request, &result, &attempts_used);
    // Retries are the anomaly worth reading off a trace; the clean case
    // stays annotation-free to keep the instrumented path cheap.
    if (hub_ != nullptr && attempts_used > 1) {
      ocs_span.Annotate("attempts", std::to_string(attempts_used));
    }
    if (!reply.has_value()) {
      // Transport exhausted. The command may have landed with every reply
      // lost, so this OCS is in doubt: roll it back along with its
      // predecessors (restoring an untouched switch is a no-op reconfigure).
      NoteExhaustion(p.ocs_id);
      touched.push_back(&p);
      Rollback(touched, &result);
      return Fail(result, "ocs " + std::to_string(p.ocs_id) +
                              ": transport exhausted retries");
    }
    NoteContact(p.ocs_id);
    result.replies[p.ocs_id] = *reply;
    if (!reply->ok) {
      // The switch rejected the target and applied none of it. A mirror
      // death behind the rejection may still have torn down a circuit
      // through the dead port, so it is restored too.
      touched.push_back(&p);
      Rollback(touched, &result);
      return Fail(result, "ocs " + std::to_string(p.ocs_id) + ": " + reply->error);
    }
    // The duration lands in the latency histogram; annotating every span
    // with it too would double the hot-path tracer cost for no new data.
    if (txn_duration_hist_ != nullptr) txn_duration_hist_->Observe(reply->duration_ms);
    touched.push_back(&p);
  }
  result.ok = true;
  result.outcome = FabricTxnOutcome::kApplied;
  txn_span.Annotate("ok", "true");
  return result;
}

FabricTelemetrySweep FabricController::CollectTelemetry() {
  FabricTelemetrySweep sweep;
  for (auto& [ocs_id, agent] : agents_) {
    const TelemetryRequest request{.nonce = next_nonce_++};
    const auto frame = Encode(request);
    bool answered = false;
    for (int attempt = 0; attempt <= options_.max_retries; ++attempt) {
      if (attempt > 0) (void)NextBackoffUs(attempt);
      auto reply_frame = bus_.RoundTrip(*agent, frame);
      if (reply_frame.empty()) continue;
      auto reply = DecodeTelemetryReply(reply_frame);
      if (!reply || reply->nonce != request.nonce) continue;
      sweep.replies[ocs_id] = *reply;
      answered = true;
      break;
    }
    if (!answered) {
      sweep.failed[ocs_id] = "telemetry sweep exhausted " +
                             std::to_string(options_.max_retries + 1) + " attempts";
      if (telemetry_failure_counter_ != nullptr) telemetry_failure_counter_->Inc();
    }
  }
  return sweep;
}

}  // namespace lightwave::ctrl
