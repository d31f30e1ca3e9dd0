#include "ocs/palomar.h"

#include <algorithm>
#include <bitset>
#include <cassert>

#include "common/check.h"
#include "telemetry/hub.h"

namespace lightwave::ocs {

using common::Result;
using common::Status;

namespace {

bool InUsableRange(int port) { return port >= 0 && port < kPalomarUsablePorts; }

std::size_t Slot(int port) { return static_cast<std::size_t>(port); }

}  // namespace

PalomarSwitch::PalomarSwitch(std::uint64_t seed, std::string name)
    : name_(std::move(name)),
      core_(common::Rng(seed)),
      north_usable_(kPalomarPortCount, true),
      south_usable_(kPalomarPortCount, true) {
  north_to_south_.fill(kNoPort);
  south_to_north_.fill(kNoPort);
  north_physical_.resize(kPalomarUsablePorts);
  south_physical_.resize(kPalomarUsablePorts);
  for (int i = 0; i < kPalomarUsablePorts; ++i) {
    north_physical_[static_cast<std::size_t>(i)] = i;
    south_physical_[static_cast<std::size_t>(i)] = i;
  }
  for (int i = kPalomarUsablePorts; i < kPalomarPortCount; ++i) {
    north_spares_.push_back(i);
    south_spares_.push_back(i);
  }
}

void PalomarSwitch::AttachTelemetry(telemetry::Hub* hub) {
  if (hub == nullptr) {
    reconfig_counter_ = connect_counter_ = rejected_counter_ = nullptr;
    insertion_loss_hist_ = switch_duration_hist_ = nullptr;
    return;
  }
  auto& metrics = hub->metrics();
  const telemetry::LabelSet labels{{"switch", name_}};
  reconfig_counter_ = &metrics.GetCounter("lightwave_ocs_reconfigurations_total", labels);
  connect_counter_ = &metrics.GetCounter("lightwave_ocs_connects_total", labels);
  rejected_counter_ = &metrics.GetCounter("lightwave_ocs_rejected_commands_total", labels);
  insertion_loss_hist_ = &metrics.GetHistogram("lightwave_ocs_insertion_loss_db", labels);
  switch_duration_hist_ = &metrics.GetHistogram("lightwave_ocs_switch_duration_ms", labels);
}

void PalomarSwitch::NoteRejected() {
  ++telemetry_.rejected_commands;
  if (rejected_counter_ != nullptr) rejected_counter_->Inc();
}

int PalomarSwitch::PhysicalPort(bool north_side, int logical_port) const {
  assert(logical_port >= 0 && logical_port < kPalomarUsablePorts);
  return (north_side ? north_physical_ : south_physical_)[static_cast<std::size_t>(
      logical_port)];
}

int PalomarSwitch::SparePortsRemaining(bool north_side) const {
  return static_cast<int>((north_side ? north_spares_ : south_spares_).size());
}

common::Status PalomarSwitch::RemapToSpare(bool north_side, int logical_port) {
  if (logical_port < 0 || logical_port >= kPalomarUsablePorts) {
    return common::InvalidArgument("logical port out of usable range");
  }
  auto& spares = north_side ? north_spares_ : south_spares_;
  if (spares.empty()) {
    return common::ResourceExhausted("spare port pool exhausted");
  }
  auto& mapping = north_side ? north_physical_ : south_physical_;
  auto& usable = north_side ? north_usable_ : south_usable_;
  // Retire the old physical position (degraded splice / dead mirror chain)
  // and re-patch the logical port onto the spare.
  const int old_physical = mapping[static_cast<std::size_t>(logical_port)];
  usable[static_cast<std::size_t>(old_physical)] = false;
  mapping[static_cast<std::size_t>(logical_port)] = spares.back();
  spares.pop_back();

  // Re-establish any connection that was riding the old path.
  if (const int north = CircuitNorth(north_side, logical_port); north != kNoPort) Realign(north);
  MaybeValidate("RemapToSpare");
  return common::Status::Ok();
}

Connection PalomarSwitch::Establish(int north, int south) {
  auto metrics = core_.EstablishPath(PhysicalPort(true, north), PhysicalPort(false, south));
  // A usable port always has a live mirror chain: a mirror dies only through
  // InjectMirrorFailure, which marks its port unusable when no spare survives.
  LW_CHECK(metrics.has_value()) << "switch '" << name_ << "': dead mirror under usable ports "
                                << north << "->" << south;
  Connection conn{
      .north = north,
      .south = south,
      .insertion_loss = metrics->insertion_loss,
      .return_loss = metrics->return_loss,
  };
  north_to_south_[Slot(north)] = south;
  south_to_north_[Slot(south)] = north;
  active_[Slot(north)] = conn;
  alignment_ms_[Slot(north)] = metrics->alignment_time_ms;
  ++connection_count_;
  ++telemetry_.connects;
  if (connect_counter_ != nullptr) connect_counter_->Inc();
  if (insertion_loss_hist_ != nullptr) {
    insertion_loss_hist_->Observe(conn.insertion_loss.value());
  }
  return conn;
}

int PalomarSwitch::CircuitNorth(bool north_side, int port) const {
  if (!north_side) return south_to_north_[Slot(port)];
  return north_to_south_[Slot(port)] != kNoPort ? port : kNoPort;
}

void PalomarSwitch::TearDown(int north) {
  south_to_north_[Slot(north_to_south_[Slot(north)])] = kNoPort;
  north_to_south_[Slot(north)] = kNoPort;
  active_[Slot(north)] = Connection{};
  alignment_ms_[Slot(north)] = 0.0;
  --connection_count_;
  ++telemetry_.disconnects;
}

void PalomarSwitch::Realign(int north) {
  const int south = north_to_south_[Slot(north)];
  TearDown(north);
  Establish(north, south);
  telemetry_.cumulative_switch_ms += alignment_ms_[Slot(north)] + kCommandOverheadMs;
}

template <typename Pairs>
Status PalomarSwitch::CheckPairs(const Pairs& pairs, const PortOverlay* free_under) const {
  std::bitset<kPalomarUsablePorts> north_seen;
  std::bitset<kPalomarUsablePorts> south_seen;
  for (const auto& [north, south] : pairs) {
    if (!InUsableRange(north) || !InUsableRange(south)) {
      return common::InvalidArgument("target references out-of-range port");
    }
    if (north_seen.test(Slot(north))) {
      return common::InvalidArgument("target is not bijective (north reused)");
    }
    if (south_seen.test(Slot(south))) {
      return common::InvalidArgument("target is not bijective (south reused)");
    }
    north_seen.set(Slot(north));
    south_seen.set(Slot(south));
    if (!PortUsable(true, north) || !PortUsable(false, south)) {
      return common::Unavailable("target references dead port");
    }
    if (free_under == nullptr) continue;
    const bool north_busy = free_under->north_taken.test(Slot(north)) ||
                            (north_to_south_[Slot(north)] != kNoPort &&
                             !free_under->north_freed.test(Slot(north)));
    const bool south_busy = free_under->south_taken.test(Slot(south)) ||
                            (south_to_north_[Slot(south)] != kNoPort &&
                             !free_under->south_freed.test(Slot(south)));
    if (north_busy || south_busy) return common::AlreadyExists("target port already connected");
  }
  return Status::Ok();
}

double PalomarSwitch::FinishTransaction(double max_alignment_ms, const char* boundary) {
  const double duration_ms = kCommandOverheadMs + max_alignment_ms;
  telemetry_.cumulative_switch_ms += duration_ms;
  ++telemetry_.reconfigurations;
  if (reconfig_counter_ != nullptr) reconfig_counter_->Inc();
  if (switch_duration_hist_ != nullptr) switch_duration_hist_->Observe(duration_ms);
  MaybeValidate(boundary);
  return duration_ms;
}

Result<ReconfigureReport> PalomarSwitch::Reconfigure(const std::map<int, int>& target) {
  // Validate first: bijective, in-range, usable. No state change on failure.
  if (auto invalid = CheckPairs(target, /*free_under=*/nullptr); !invalid.ok()) {
    NoteRejected();
    return invalid.error();
  }

  ReconfigureReport report;
  double max_alignment_ms = 0.0;

  // Tear down connections that are absent or changed in the target.
  for (int north = 0; north < kPalomarUsablePorts; ++north) {
    const int south = north_to_south_[Slot(north)];
    if (south == kNoPort) continue;
    auto it = target.find(north);
    if (it != target.end() && it->second == south) {
      report.undisturbed.push_back(active_[Slot(north)]);
    } else {
      report.removed.push_back(active_[Slot(north)]);
      TearDown(north);
    }
  }

  // Establish the new connections. Validation found every port usable and
  // the teardown freed every port the target moves, so none can fail: the
  // transaction applies whole or (above) not at all.
  for (const auto& [north, south] : target) {
    if (north_to_south_[Slot(north)] != kNoPort) continue;  // undisturbed
    report.established.push_back(Establish(north, south));
    max_alignment_ms = std::max(max_alignment_ms, alignment_ms_[Slot(north)]);
  }

  report.duration_ms = FinishTransaction(max_alignment_ms, "Reconfigure");
  return report;
}

Status PalomarSwitch::CheckConnectDelta(PortPairs delta, const PortOverlay& staged) const {
  return CheckPairs(delta, &staged);
}

Result<double> PalomarSwitch::ConnectDelta(PortPairs delta) {
  if (auto invalid = CheckConnectDelta(delta); !invalid.ok()) {
    NoteRejected();
    return invalid.error();
  }
  double max_alignment_ms = 0.0;
  for (const auto& [north, south] : delta) {
    Establish(north, south);
    max_alignment_ms = std::max(max_alignment_ms, alignment_ms_[Slot(north)]);
  }
  return FinishTransaction(max_alignment_ms, "ConnectDelta");
}

Result<double> PalomarSwitch::DisconnectDelta(PortPairs delta) {
  for (const auto& [north, south] : delta) {
    if (!InUsableRange(north) || !InUsableRange(south)) {
      NoteRejected();
      return common::InvalidArgument("target references out-of-range port");
    }
  }
  for (const auto& [north, south] : delta) {
    if (north_to_south_[Slot(north)] == south) TearDown(north);
  }
  return FinishTransaction(0.0, "DisconnectDelta");
}

std::optional<Connection> PalomarSwitch::ConnectionOn(int north) const {
  if (!InUsableRange(north) || north_to_south_[Slot(north)] == kNoPort) return std::nullopt;
  return active_[Slot(north)];
}

double PalomarSwitch::CircuitAlignmentMs(int north) const {
  return InUsableRange(north) ? alignment_ms_[Slot(north)] : 0.0;
}

std::vector<Connection> PalomarSwitch::Connections() const {
  std::vector<Connection> all;
  all.reserve(static_cast<std::size_t>(connection_count_));
  for (const Connection& conn : active_) {
    if (conn.north != kNoPort) all.push_back(conn);
  }
  return all;
}

std::map<int, int> PalomarSwitch::CurrentMapping() const {
  std::map<int, int> mapping;
  for (int north = 0; north < kPalomarUsablePorts; ++north) {
    const int south = north_to_south_[Slot(north)];
    if (south != kNoPort) mapping.emplace_hint(mapping.end(), north, south);
  }
  return mapping;
}

bool PalomarSwitch::InjectMirrorFailure(bool north_side, int port) {
  LW_CHECK(port >= 0 && port < kPalomarUsablePorts)
      << "switch '" << name_ << "': mirror failure on port " << port;
  const int port_phys = PhysicalPort(north_side, port);
  const auto& array = north_side ? core_.array_a() : core_.array_b();
  const int physical = array.PhysicalMirror(port_phys);
  const bool survived = core_.FailMirror(north_side ? 0 : 1, physical);
  const int north_port = CircuitNorth(north_side, port);
  if (!survived) {
    (north_side ? north_usable_ : south_usable_)[static_cast<std::size_t>(port_phys)] =
        false;
    // Tear down any active connection through the dead port.
    if (north_port != kNoPort) TearDown(north_port);
    MaybeValidate("InjectMirrorFailure");
    return false;
  }
  // Spare mirror mapped in; the path must be re-aligned. Re-establish any
  // active connection through this port.
  if (north_port != kNoPort) Realign(north_port);
  MaybeValidate("InjectMirrorFailure");
  return true;
}

bool PalomarSwitch::PortUsable(bool north_side, int port) const {
  assert(port >= 0 && port < kPalomarUsablePorts);
  return (north_side ? north_usable_ : south_usable_)[static_cast<std::size_t>(
      PhysicalPort(north_side, port))];
}

common::Status PalomarSwitch::ValidateInvariants() const {
  // Bijectivity: the two direction tables must be exact mutual inverses,
  // and the active table and the count must hold one entry per circuit.
  int norths = 0, souths = 0, actives = 0;
  for (int port = 0; port < kPalomarUsablePorts; ++port) {
    norths += north_to_south_[Slot(port)] != kNoPort ? 1 : 0;
    souths += south_to_north_[Slot(port)] != kNoPort ? 1 : 0;
    actives += active_[Slot(port)].north != kNoPort ? 1 : 0;
  }
  if (norths != souths) return common::Internal("N->S and S->N maps differ in size");
  if (actives != norths || connection_count_ != norths) {
    return common::Internal("active-connection table out of sync with N->S map");
  }
  for (int north = 0; north < kPalomarUsablePorts; ++north) {
    const int south = north_to_south_[Slot(north)];
    if (south == kNoPort) continue;
    if (!InUsableRange(south)) {
      return common::Internal("connection references out-of-range port");
    }
    if (south_to_north_[Slot(south)] != north) {
      return common::Internal("S->N map is not the inverse of N->S at north " +
                              std::to_string(north));
    }
    const Connection& conn = active_[Slot(north)];
    if (conn.north != north || conn.south != south) {
      return common::Internal("active table disagrees with N->S map at north " +
                              std::to_string(north));
    }
    // Dead-mirror consistency: an active connection must never ride a port
    // whose mirror chain is marked dead.
    if (!north_usable_[static_cast<std::size_t>(PhysicalPort(true, north))] ||
        !south_usable_[static_cast<std::size_t>(PhysicalPort(false, south))]) {
      return common::Internal("active connection rides a dead mirror chain");
    }
  }
  // Patch maps: logical -> physical must be injective, in range, and
  // disjoint from the spare pools.
  for (bool north_side : {true, false}) {
    const auto& mapping = north_side ? north_physical_ : south_physical_;
    const auto& spares = north_side ? north_spares_ : south_spares_;
    std::bitset<kPalomarPortCount> seen;
    for (int physical : mapping) {
      if (physical < 0 || physical >= kPalomarPortCount) {
        return common::Internal("physical patch position out of range");
      }
      if (seen.test(Slot(physical))) {
        return common::Internal("two logical ports patched to one physical position");
      }
      seen.set(Slot(physical));
    }
    for (int spare : spares) {
      if (spare < 0 || spare >= kPalomarPortCount || seen.test(Slot(spare))) {
        return common::Internal("spare pool overlaps the active patch map");
      }
    }
  }
  return common::Status::Ok();
}

void PalomarSwitch::MaybeValidate(const char* boundary) const {
  if (!common::ValidationEnabled()) return;
  LW_CHECK_OK(ValidateInvariants()) << "switch '" << name_ << "' after " << boundary;
}

void PalomarSwitch::TestOnlyCorruptMapping(int north, int south) {
  north_to_south_[Slot(north)] = south;
}

void PalomarSwitch::TestOnlyKillPortUnderConnection(bool north_side, int logical_port) {
  auto& usable = north_side ? north_usable_ : south_usable_;
  usable[static_cast<std::size_t>(PhysicalPort(north_side, logical_port))] = false;
}

std::vector<Connection> PalomarSwitch::SurveyConnections() const {
  std::vector<Connection> surveyed;
  surveyed.reserve(static_cast<std::size_t>(connection_count_));
  for (const Connection& conn : active_) {
    if (conn.north == kNoPort) continue;
    const CorePathMetrics metrics = core_.MeasurePath(PhysicalPort(true, conn.north),
                                                      PhysicalPort(false, conn.south));
    surveyed.push_back(Connection{
        .north = conn.north,
        .south = conn.south,
        .insertion_loss = metrics.insertion_loss,
        .return_loss = metrics.return_loss,
    });
  }
  return surveyed;
}

}  // namespace lightwave::ocs
