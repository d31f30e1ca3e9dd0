// Seeded slice-request stream: the client side of the fleet service. Command
// i is a pure function of (seed, i) via counter-based RNG streams, so the
// stream needs no state, any suffix can be regenerated after a crash (the
// resubmission path), and the crash-matrix test can replay the exact same
// trace hundreds of times.
//
// Multi-tenant mode (tenant_count > 1) models the paper's shared-fleet
// workload: each command is assigned an owning tenant by a Zipf draw
// (zipf_skew = 0 is uniform; 1.0 is the classic heavy-head distribution
// where a few tenants dominate), command ids are dense per tenant, and
// release/resize commands only ever target jobs of their own tenant. The
// tenant assignment rides its own salted RNG stream, so a single-tenant
// stream (tenant_count = 1) generates byte-for-byte the same commands the
// pre-multi-tenant stream did.
#pragma once

#include <cstdint>
#include <vector>

#include "svc/command.h"

namespace lightwave::svc {

struct RequestStreamConfig {
  /// Slice sizes (in cubes) admits and resizes draw from, uniformly.
  std::vector<int> size_menu_cubes = {1, 1, 1, 2, 2, 4};
  /// Mix: P(admit) then P(release); the remainder resizes. Commands that
  /// target a job that never existed or was already released are valid
  /// stream entries — the service rejects them deterministically at apply.
  double admit_prob = 0.55;
  double release_prob = 0.30;
  /// Tenants sharing the stream; command i's owner is a Zipf draw over
  /// [0, tenant_count). 1 = the legacy single-tenant stream (tenant 0).
  std::uint32_t tenant_count = 1;
  /// Zipf exponent for the tenant draw: tenant t gets weight 1/(t+1)^skew.
  /// 0 = uniform load; ~1 = a heavily skewed fleet where tenant 0 issues
  /// the lion's share (the interesting case for fairness tests).
  double zipf_skew = 0.0;
};

class RequestStream {
 public:
  RequestStream(std::uint64_t seed, std::uint64_t count,
                RequestStreamConfig config = {});

  std::uint64_t count() const { return count_; }
  std::uint32_t tenant_count() const { return config_.tenant_count; }

  /// The i-th command (i in [0, count)) in global arrival order; its
  /// command_id is dense within its tenant. Pure in (seed, i) — calling it
  /// twice, or from two recovered processes, yields identical bytes.
  SliceCommand Command(std::uint64_t index) const;

  /// Owning tenant of the i-th command (same assignment Command(i) uses).
  std::uint32_t TenantOf(std::uint64_t index) const;

 private:
  std::uint64_t seed_;
  std::uint64_t count_;
  RequestStreamConfig config_;
  /// Zipf CDF over tenants (empty when tenant_count == 1).
  std::vector<double> tenant_cdf_;
  /// Precomputed in the ctor so lookups are O(1) and the per-command RNG
  /// stream carries no tenant-draw state: owner of each global index and its
  /// dense per-tenant id.
  std::vector<std::uint32_t> tenant_of_;
  std::vector<std::uint64_t> per_tenant_id_;
};

}  // namespace lightwave::svc
