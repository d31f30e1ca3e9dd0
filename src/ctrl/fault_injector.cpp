#include "ctrl/fault_injector.h"

#include <iterator>

#include "ctrl/controller.h"
#include "ocs/palomar.h"
#include "telemetry/hub.h"

namespace lightwave::ctrl {

namespace {
// Counter-based stream ids: each fault class draws from its own generator so
// enabling one class never perturbs another's decision sequence.
constexpr std::uint64_t kAgentStream = 0;
constexpr std::uint64_t kBusStream = 1;
constexpr std::uint64_t kMirrorStream = 2;
}  // namespace

const char* ToString(CrashPoint point) {
  switch (point) {
    case CrashPoint::kPreAppend: return "pre-append";
    case CrashPoint::kPostAppendPreApply: return "post-append-pre-apply";
    case CrashPoint::kMidApply: return "mid-apply";
  }
  return "unknown";
}

FaultInjector::FaultInjector(std::uint64_t seed, FaultProfile profile)
    : profile_(profile),
      agent_rng_(common::Rng::Stream(seed, kAgentStream)),
      bus_rng_(common::Rng::Stream(seed, kBusStream)),
      mirror_rng_(common::Rng::Stream(seed, kMirrorStream)) {}

void FaultInjector::AttachTelemetry(telemetry::Hub* hub) {
  if (hub == nullptr) {
    fail_stop_counter_ = brownout_counter_ = mirror_death_counter_ = nullptr;
    return;
  }
  auto& metrics = hub->metrics();
  fail_stop_counter_ = &metrics.GetCounter("lightwave_fault_agent_failstops_total");
  brownout_counter_ = &metrics.GetCounter("lightwave_fault_brownouts_total");
  mirror_death_counter_ = &metrics.GetCounter("lightwave_fault_mirror_deaths_total");
}

void FaultInjector::ArmCrash(CrashPoint point, std::uint64_t visits) {
  armed_crash_visits_.store(visits == 0 ? 1 : visits);
  armed_crash_point_.store(static_cast<int>(point));
}

bool FaultInjector::ShouldCrash(CrashPoint point) {
  ++crash_point_visits_[static_cast<std::size_t>(point)];
  if (armed_crash_point_.load() != static_cast<int>(point)) return false;
  // Only the visit that takes the count from 1 to 0 fires; a racing visit
  // that decrements past it sees a stale count and does not.
  if (armed_crash_visits_.fetch_sub(1) != 1) return false;
  armed_crash_point_.store(kDisarmed);
  ++crashes_fired_;
  return true;
}

std::uint64_t FaultInjector::crash_point_visits(CrashPoint point) const {
  return crash_point_visits_[static_cast<std::size_t>(point)].load();
}

bool FaultInjector::OnFrame() {
  if (!brownout_) {
    if (bus_rng_.Bernoulli(profile_.brownout_start_prob)) {
      brownout_ = true;
      ++brownouts_;
      if (brownout_counter_ != nullptr) brownout_counter_->Inc();
    }
  } else if (bus_rng_.Bernoulli(profile_.brownout_end_prob)) {
    brownout_ = false;
  }
  return brownout_ && bus_rng_.Bernoulli(profile_.brownout_drop_prob);
}

bool FaultInjector::AgentUp(OcsAgent& agent) {
  bool& down = down_[&agent];
  if (down) {
    if (!agent_rng_.Bernoulli(profile_.agent_restart_prob)) return false;
    down = false;
    ++restarts_;
    if (profile_.restart_loses_state) agent.SimulateRestart();
    return true;  // restarted in time to serve this round trip
  }
  if (agent_rng_.Bernoulli(profile_.agent_fail_prob)) {
    down = true;
    ++fail_stops_;
    if (fail_stop_counter_ != nullptr) fail_stop_counter_->Inc();
    return false;
  }
  return true;
}

void FaultInjector::BeforeReconfigure(ocs::PalomarSwitch& ocs,
                                      const std::map<int, int>& target) {
  if (target.empty() || !mirror_rng_.Bernoulli(profile_.mirror_death_prob)) return;
  // The victim mirror sits under one of the ports the incoming target is
  // about to drive — the death lands mid-reconfigure from the control
  // plane's point of view.
  const auto index = mirror_rng_.UniformInt(target.size());
  const auto it = std::next(target.begin(), static_cast<std::ptrdiff_t>(index));
  const bool north_side = mirror_rng_.Bernoulli(0.5);
  const int port = north_side ? it->first : it->second;
  // A target from the wire can name any port; Reconfigure rejects one
  // outside the switch, and no mirror sits under it to kill.
  if (port < 0 || port >= ocs::kPalomarUsablePorts) return;
  ++mirror_deaths_;
  if (mirror_death_counter_ != nullptr) mirror_death_counter_->Inc();
  if (!ocs.InjectMirrorFailure(north_side, port)) ++ports_destroyed_;
}

}  // namespace lightwave::ctrl
