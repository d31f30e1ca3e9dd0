#include "svc/request_stream.h"

#include <algorithm>
#include <cmath>

#include "common/check.h"
#include "common/rng.h"
#include "tpu/slice.h"

namespace lightwave::svc {

namespace {

/// Salt separating the tenant-assignment RNG stream from the per-command
/// draw stream, so adding tenants never perturbs the command mix.
constexpr std::uint64_t kTenantStreamSalt = 0x7e6a'1d9b'44c3'0f25ull;

/// Most-compact shape for n cubes (same figure of merit the scheduler's
/// workload generator uses: minimize max/min dimension).
tpu::SliceShape CompactShape(int n) {
  tpu::SliceShape best{1, 1, n};
  double best_score = 1e18;
  for (const auto& s : tpu::EnumerateCanonicalShapes(n)) {
    const double score = static_cast<double>(std::max({s.a, s.b, s.c})) /
                         std::min({s.a, s.b, s.c});
    if (score < best_score) {
      best_score = score;
      best = s;
    }
  }
  return best;
}

}  // namespace

RequestStream::RequestStream(std::uint64_t seed, std::uint64_t count,
                             RequestStreamConfig config)
    : seed_(seed), count_(count), config_(std::move(config)) {
  LW_CHECK(!config_.size_menu_cubes.empty()) << "empty size menu";
  LW_CHECK(config_.tenant_count >= 1) << "need at least one tenant";
  LW_CHECK(config_.zipf_skew >= 0.0) << "negative zipf skew";
  if (config_.tenant_count > 1) {
    tenant_cdf_.reserve(config_.tenant_count);
    double mass = 0.0;
    for (std::uint32_t t = 0; t < config_.tenant_count; ++t) {
      mass += 1.0 / std::pow(static_cast<double>(t + 1), config_.zipf_skew);
      tenant_cdf_.push_back(mass);
    }
    for (double& c : tenant_cdf_) c /= mass;
    tenant_cdf_.back() = 1.0;  // guard against rounding at the tail
  }
  tenant_of_.reserve(count_);
  per_tenant_id_.reserve(count_);
  std::vector<std::uint64_t> issued(config_.tenant_count, 0);
  for (std::uint64_t i = 0; i < count_; ++i) {
    std::uint32_t tenant = 0;
    if (config_.tenant_count > 1) {
      common::Rng rng = common::Rng::Stream(seed_ ^ kTenantStreamSalt, i);
      const double u = rng.NextDouble();
      tenant = static_cast<std::uint32_t>(
          std::lower_bound(tenant_cdf_.begin(), tenant_cdf_.end(), u) -
          tenant_cdf_.begin());
    }
    tenant_of_.push_back(tenant);
    per_tenant_id_.push_back(++issued[tenant]);
  }
}

std::uint32_t RequestStream::TenantOf(std::uint64_t index) const {
  LW_CHECK(index < count_) << "stream index " << index << " out of range";
  return tenant_of_[index];
}

SliceCommand RequestStream::Command(std::uint64_t index) const {
  LW_CHECK(index < count_) << "stream index " << index << " out of range";
  common::Rng rng = common::Rng::Stream(seed_, index);
  SliceCommand cmd;
  const std::uint32_t tenant = tenant_of_[index];
  const std::uint64_t tenant_pos = per_tenant_id_[index];  // dense from 1
  cmd.tenant_id = tenant;
  cmd.command_id = tenant_pos;

  const double kind_draw = rng.NextDouble();
  // A tenant's first command has no job of its own to release or resize.
  if (tenant_pos == 1 || kind_draw < config_.admit_prob) {
    cmd.kind = CommandKind::kAdmit;
    // Admits mint job ids from their own per-tenant command id, so ids are
    // unique within the (tenant, job) key space without the stream tracking
    // state.
    cmd.job_id = cmd.command_id;
  } else {
    cmd.kind = kind_draw < config_.admit_prob + config_.release_prob
                   ? CommandKind::kRelease
                   : CommandKind::kResize;
    // Target an earlier command of the SAME tenant — tenants never touch
    // each other's jobs. The target may never have been admitted, or be
    // long released; the service rejects that deterministically.
    cmd.job_id = rng.UniformInt(tenant_pos - 1) + 1;
  }
  if (cmd.kind != CommandKind::kRelease) {
    const auto& menu = config_.size_menu_cubes;
    cmd.shape = CompactShape(menu[static_cast<std::size_t>(rng.UniformInt(menu.size()))]);
  }
  return cmd;
}

}  // namespace lightwave::svc
