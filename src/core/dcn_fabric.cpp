#include "core/dcn_fabric.h"

#include <cassert>
#include <set>

#include "common/check.h"

namespace lightwave::core {

using common::Result;
using common::Status;

DcnFabric::DcnFabric(std::uint64_t seed, int max_blocks, int ocs_count, double link_gbps,
                     double uniform_floor_fraction)
    : max_blocks_(max_blocks),
      link_gbps_(link_gbps),
      floor_fraction_(uniform_floor_fraction),
      blocks_(static_cast<std::size_t>(max_blocks)) {
  assert(max_blocks >= 2 && max_blocks <= ocs::kPalomarUsablePorts);
  assert(ocs_count >= 1 && link_gbps > 0.0);
  common::Rng rng(seed);
  bus_ = std::make_unique<ctrl::MessageBus>(rng.NextU64());
  controller_ = std::make_unique<ctrl::FabricController>(
      *bus_, ctrl::FabricControllerOptions{.max_retries = 10});
  for (int i = 0; i < ocs_count; ++i) {
    switches_.push_back(std::make_unique<ocs::PalomarSwitch>(
        rng.NextU64(), "dcn-ocs-" + std::to_string(i)));
    agents_.push_back(std::make_unique<ctrl::OcsAgent>(*switches_.back()));
    controller_->Register(i, agents_.back().get());
  }
}

std::vector<int> DcnFabric::ActiveBlocks() const {
  std::vector<int> active;
  for (int b = 0; b < max_blocks_; ++b) {
    if (blocks_[static_cast<std::size_t>(b)].active) active.push_back(b);
  }
  return active;
}

Result<int> DcnFabric::AddBlock(const optics::TransceiverSpec& transceiver) {
  // Rapid Technology Refresh (§2.1): interoperability between heterogeneous
  // blocks is ensured through transceiver compatibility across generations.
  for (const auto& block : blocks_) {
    if (!block.active) continue;
    if (!block.transceiver->InteroperatesWith(transceiver)) {
      return common::FailedPrecondition(
          transceiver.name + " does not inter-operate with active generation " +
          block.transceiver->name);
    }
  }
  for (int b = 0; b < max_blocks_; ++b) {
    auto& block = blocks_[static_cast<std::size_t>(b)];
    if (!block.active) {
      block.active = true;
      block.transceiver = transceiver;
      block.tenant = kSharedPool;
      return b;
    }
  }
  return common::ResourceExhausted("fabric is at its maximum block count");
}

Status DcnFabric::RemoveBlock(int block) {
  if (block < 0 || block >= max_blocks_ ||
      !blocks_[static_cast<std::size_t>(block)].active) {
    return common::NotFound("no such active block");
  }
  blocks_[static_cast<std::size_t>(block)] = Block{};
  return Status::Ok();
}

Result<TenantId> DcnFabric::CreateTenant(const std::vector<int>& members) {
  if (members.size() < 2) {
    return common::InvalidArgument("a tenant needs at least two blocks");
  }
  for (int b : members) {
    if (b < 0 || b >= max_blocks_ || !blocks_[static_cast<std::size_t>(b)].active) {
      return common::NotFound("block " + std::to_string(b) + " is not active");
    }
    if (blocks_[static_cast<std::size_t>(b)].tenant != kSharedPool) {
      return common::FailedPrecondition("block " + std::to_string(b) +
                                        " already belongs to a tenant");
    }
  }
  const TenantId id = next_tenant_++;
  for (int b : members) blocks_[static_cast<std::size_t>(b)].tenant = id;
  return id;
}

Status DcnFabric::DissolveTenant(TenantId tenant) {
  if (tenant == kSharedPool) return common::InvalidArgument("cannot dissolve the pool");
  bool found = false;
  for (auto& block : blocks_) {
    if (block.active && block.tenant == tenant) {
      block.tenant = kSharedPool;
      found = true;
    }
  }
  if (!found) return common::NotFound("no such tenant");
  return Status::Ok();
}

TenantId DcnFabric::TenantOf(int block) const {
  assert(block >= 0 && block < max_blocks_);
  return blocks_[static_cast<std::size_t>(block)].tenant;
}

Result<DcnReconfigStats> DcnFabric::ApplyTopology(const sim::TrafficMatrix& forecast) {
  assert(forecast.nodes() >= max_blocks_);
  // Group blocks: shared pool plus each tenant, engineered independently so
  // no trunk crosses a group boundary (Fabric Isolation).
  std::map<TenantId, std::vector<int>> groups;
  for (int b = 0; b < max_blocks_; ++b) {
    if (blocks_[static_cast<std::size_t>(b)].active) {
      groups[blocks_[static_cast<std::size_t>(b)].tenant].push_back(b);
    }
  }

  // Per-OCS merged matchings over global block ids.
  std::vector<OcsMatching> merged(static_cast<std::size_t>(ocs_count()));
  for (const auto& [tenant, members] : groups) {
    if (members.size() < 2) continue;
    // Project the forecast onto the group's local index space.
    sim::TrafficMatrix local(static_cast<int>(members.size()));
    for (std::size_t i = 0; i < members.size(); ++i) {
      for (std::size_t j = 0; j < members.size(); ++j) {
        if (i == j) continue;
        local.set(static_cast<int>(i), static_cast<int>(j),
                  forecast.at(members[i], members[j]));
      }
    }
    const auto allocation = AllocateTrunks(local, ocs_count(), floor_fraction_);
    // Seed the edge coloring with the group's currently-installed trunks so
    // unchanged ones stay on their OCS (and hence ride through the
    // reconfiguration undisturbed).
    std::vector<OcsMatching> prior(static_cast<std::size_t>(ocs_count()));
    std::map<int, int> global_to_local;
    for (std::size_t i = 0; i < members.size(); ++i) {
      global_to_local[members[i]] = static_cast<int>(i);
    }
    for (int c = 0; c < ocs_count(); ++c) {
      for (const auto& conn : switches_[static_cast<std::size_t>(c)]->Connections()) {
        if (conn.north >= conn.south) continue;  // each trunk once
        auto a = global_to_local.find(conn.north);
        auto b = global_to_local.find(conn.south);
        if (a == global_to_local.end() || b == global_to_local.end()) continue;
        prior[static_cast<std::size_t>(c)].emplace_back(a->second, b->second);
      }
    }
    const auto decomposition = DecomposeToMatchings(allocation, ocs_count(), &prior);
    for (int c = 0; c < ocs_count(); ++c) {
      for (const auto& [i, j] : decomposition.per_ocs[static_cast<std::size_t>(c)]) {
        merged[static_cast<std::size_t>(c)].emplace_back(
            members[static_cast<std::size_t>(i)], members[static_cast<std::size_t>(j)]);
      }
    }
  }

  // Lower matchings to cross-connect targets: a trunk (a, b) is the
  // bidirectional pair a->b and b->a on that OCS.
  std::map<int, std::map<int, int>> targets;
  for (int c = 0; c < ocs_count(); ++c) {
    auto& target = targets[c];
    for (const auto& [a, b] : merged[static_cast<std::size_t>(c)]) {
      target[a] = b;
      target[b] = a;
    }
  }

  DcnReconfigStats stats;
  // Count undisturbed trunks against the currently installed state before
  // applying (the controller's per-OCS replies also report it; aggregate
  // from them).
  const auto result = controller_->ApplyTopology(targets);
  if (!result.ok) return common::Unavailable(result.error);
  stats.control_retries = result.retries_used;
  for (const auto& [ocs_id, reply] : result.replies) {
    stats.links_established += static_cast<int>(reply.established);
    stats.links_removed += static_cast<int>(reply.removed);
    stats.links_undisturbed += static_cast<int>(reply.undisturbed);
  }
  if (common::ValidationEnabled()) {
    LW_CHECK_OK(ValidateInvariants()) << "after ApplyTopology";
  }
  return stats;
}

common::Status DcnFabric::ValidateInvariants() const {
  for (std::size_t c = 0; c < switches_.size(); ++c) {
    const auto& sw = *switches_[c];
    for (const auto& conn : sw.Connections()) {
      if (conn.north >= max_blocks_ || conn.south >= max_blocks_) {
        return common::Internal("OCS " + std::to_string(c) +
                                " cross-connect terminates outside the block range");
      }
      if (!blocks_[static_cast<std::size_t>(conn.north)].active ||
          !blocks_[static_cast<std::size_t>(conn.south)].active) {
        return common::Internal("OCS " + std::to_string(c) +
                                " cross-connect terminates on a retired block");
      }
      // Link-state symmetry: a trunk (a, b) occupies both a->b and b->a on
      // the same switch; a one-sided connect is a corrupted trunk.
      const auto reverse = sw.ConnectionOn(conn.south);
      if (!reverse.has_value() || reverse->south != conn.north) {
        return common::Internal("OCS " + std::to_string(c) + " trunk " +
                                std::to_string(conn.north) + "->" +
                                std::to_string(conn.south) + " has no reverse direction");
      }
      if (TenantOf(conn.north) != TenantOf(conn.south)) {
        return common::Internal("trunk crosses a tenant boundary on OCS " +
                                std::to_string(c));
      }
    }
  }
  return common::Status::Ok();
}

int DcnFabric::TrunksBetween(int a, int b) const {
  int count = 0;
  for (const auto& sw : switches_) {
    const auto conn = sw->ConnectionOn(a);
    if (conn.has_value() && conn->south == b) ++count;
  }
  return count;
}

sim::DcnTopology DcnFabric::CurrentTopology() const {
  sim::TrafficMatrix capacity(max_blocks_);
  for (int a = 0; a < max_blocks_; ++a) {
    for (int b = 0; b < max_blocks_; ++b) {
      if (a != b) capacity.set(a, b, TrunksBetween(a, b) * link_gbps_);
    }
  }
  return sim::DcnTopology::FromTrunkCapacities(max_blocks_, ocs_count() * link_gbps_,
                                               capacity);
}

bool DcnFabric::IsolationHolds() const {
  for (const auto& sw : switches_) {
    for (const auto& conn : sw->Connections()) {
      if (conn.north >= max_blocks_ || conn.south >= max_blocks_) return false;
      if (TenantOf(conn.north) != TenantOf(conn.south)) return false;
    }
  }
  return true;
}
}  // namespace lightwave::core
