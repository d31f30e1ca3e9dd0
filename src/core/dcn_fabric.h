// The spine-free datacenter fabric (§2.1, Fig. 1b): aggregation blocks
// directly connected through a bank of Palomar OCSes, each active block
// owning one duplex port on every OCS. Beyond topology engineering, this
// layer implements the paper's other three DCN benefits:
//   - Fabric Expansion ("pay as you grow"): blocks join and leave an
//     operating fabric; re-engineering preserves unaffected trunks
//     undisturbed.
//   - Fabric Isolation: tenant groups get dedicated trunks; no optical path
//     ever connects blocks of different groups.
//   - Rapid Technology Refresh: heterogeneous transceiver generations
//     coexist; a joining block is admitted only if its optics inter-operate
//     with every active generation (wavelength-grid overlap + a common line
//     rate, §3.3.1).
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "common/result.h"
#include "core/topology_engineer.h"
#include "ctrl/controller.h"
#include "ocs/palomar.h"
#include "optics/transceiver.h"
#include "sim/dcn_flow.h"
#include "sim/traffic.h"

namespace lightwave::core {

using TenantId = std::uint64_t;
/// The shared pool every block starts in.
inline constexpr TenantId kSharedPool = 0;

struct DcnReconfigStats {
  int links_established = 0;
  int links_removed = 0;
  int links_undisturbed = 0;
  int control_retries = 0;
};

class DcnFabric {
 public:
  DcnFabric(std::uint64_t seed, int max_blocks, int ocs_count, double link_gbps,
            double uniform_floor_fraction = 0.2);

  int ocs_count() const { return static_cast<int>(switches_.size()); }
  int max_blocks() const { return max_blocks_; }
  double link_gbps() const { return link_gbps_; }
  std::vector<int> ActiveBlocks() const;

  /// --- expansion -----------------------------------------------------------
  /// Admits a block; fails when the fabric is full or the block's optics do
  /// not inter-operate with every active generation.
  common::Result<int> AddBlock(const optics::TransceiverSpec& transceiver);
  /// Retires a block (its trunks disappear at the next ApplyTopology; its
  /// tenant membership is dropped).
  common::Status RemoveBlock(int block);

  /// --- isolation -----------------------------------------------------------
  /// Moves blocks from the shared pool into a dedicated tenant: their
  /// trunks are engineered only among themselves from now on.
  common::Result<TenantId> CreateTenant(const std::vector<int>& blocks);
  common::Status DissolveTenant(TenantId tenant);
  TenantId TenantOf(int block) const;

  /// --- topology ------------------------------------------------------------
  /// Engineers trunks per group (shared pool + each tenant) for the given
  /// pod-wide forecast, lowers them to per-OCS matchings, and pushes the
  /// merged cross-connects to every switch through the retrying control
  /// plane. Demand entries between different groups are ignored (isolation).
  common::Result<DcnReconfigStats> ApplyTopology(const sim::TrafficMatrix& forecast);

  /// The flow-level topology currently installed (trunk counts x link rate).
  sim::DcnTopology CurrentTopology() const;
  /// Installed trunk count between two blocks.
  int TrunksBetween(int a, int b) const;

  /// Audit: true when no installed trunk crosses a tenant boundary.
  bool IsolationHolds() const;

  /// Structural audit of the installed link state: every cross-connect
  /// terminates on active blocks, carries its reverse direction on the same
  /// OCS (link-state symmetry — a trunk is always the pair a->b and b->a),
  /// and never crosses a tenant boundary. Runs automatically after
  /// ApplyTopology when validation mode is on.
  common::Status ValidateInvariants() const;

  ocs::PalomarSwitch& ocs(int i) { return *switches_[static_cast<std::size_t>(i)]; }

 private:
  struct Block {
    bool active = false;
    std::optional<optics::TransceiverSpec> transceiver;
    TenantId tenant = kSharedPool;
  };

  int max_blocks_;
  double link_gbps_;
  double floor_fraction_;
  std::vector<Block> blocks_;
  std::vector<std::unique_ptr<ocs::PalomarSwitch>> switches_;
  std::vector<std::unique_ptr<ctrl::OcsAgent>> agents_;
  std::unique_ptr<ctrl::MessageBus> bus_;
  std::unique_ptr<ctrl::FabricController> controller_;
  TenantId next_tenant_ = 1;
};

}  // namespace lightwave::core
