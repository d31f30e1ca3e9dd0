// The elemental compute building block (Appendix A): a 4x4x4 = 64-chip TPU
// v4 cube, statically wired with electrical ICI inside one rack. 16 CPU
// hosts carry 4 TPUs each. The six faces expose 4x4 = 16 optical links each;
// opposing faces of a dimension land on the same OCS so a ring can wrap.
#pragma once

#include <array>
#include <cstdint>
#include <string>
#include <vector>

namespace lightwave::tpu {

inline constexpr int kCubeEdge = 4;                          // chips per edge
inline constexpr int kChipsPerCube = kCubeEdge * kCubeEdge * kCubeEdge;  // 64
inline constexpr int kChipsPerHost = 4;
inline constexpr int kHostsPerCube = kChipsPerCube / kChipsPerHost;      // 16
inline constexpr int kFaceLinks = kCubeEdge * kCubeEdge;                 // 16
inline constexpr int kCubeFaces = 6;
inline constexpr int kOpticalLinksPerCube = kCubeFaces * kFaceLinks;     // 96

/// Torus dimensions.
enum class Dim : int { kX = 0, kY = 1, kZ = 2 };

inline constexpr std::array<Dim, 3> kAllDims = {Dim::kX, Dim::kY, Dim::kZ};

const char* ToString(Dim dim);

/// Chip coordinate within a cube, each component in [0, 4).
struct ChipCoord {
  int x = 0;
  int y = 0;
  int z = 0;
  auto operator<=>(const ChipCoord&) const = default;
};

struct TpuChip {
  int index = 0;  // within cube, row-major (x fastest)
  ChipCoord coord;
  bool healthy = true;
};

struct CpuHost {
  int index = 0;
  bool healthy = true;
};

/// Hardware state of one rack-sized cube.
class Cube {
 public:
  explicit Cube(int id);

  int id() const { return id_; }

  const TpuChip& chip(int index) const { return chips_[static_cast<std::size_t>(index)]; }
  const CpuHost& host(int index) const { return hosts_[static_cast<std::size_t>(index)]; }
  int chip_count() const { return kChipsPerCube; }
  int host_count() const { return kHostsPerCube; }

  /// A cube participates in slices only when every host (and hence every
  /// chip) is healthy — the scheduling granularity is the whole cube.
  bool Healthy() const { return unhealthy_ == 0; }

  void SetHostHealth(int host, bool healthy);
  void SetChipHealth(int chip, bool healthy);
  /// Repairs everything (post-maintenance).
  void Restore();

  static ChipCoord CoordOf(int chip_index);
  static int IndexOf(ChipCoord coord);
  /// The host that owns a chip (4 chips per host, consecutive indices).
  static int HostOf(int chip_index);

 private:
  /// Sets one host or chip flag and keeps `unhealthy_` in step with it.
  void SetFlag(bool& flag, bool healthy);

  int id_;
  std::vector<TpuChip> chips_;
  std::vector<CpuHost> hosts_;
  /// Unhealthy hosts plus unhealthy chips, so Healthy() is one compare on
  /// the scheduler's cube pick.
  int unhealthy_ = 0;
};

}  // namespace lightwave::tpu
