#include "tpu/cube.h"

#include <cassert>

namespace lightwave::tpu {

const char* ToString(Dim dim) {
  switch (dim) {
    case Dim::kX: return "x";
    case Dim::kY: return "y";
    case Dim::kZ: return "z";
  }
  return "?";
}

Cube::Cube(int id) : id_(id) {
  chips_.reserve(kChipsPerCube);
  for (int i = 0; i < kChipsPerCube; ++i) {
    chips_.push_back(TpuChip{.index = i, .coord = CoordOf(i), .healthy = true});
  }
  hosts_.reserve(kHostsPerCube);
  for (int i = 0; i < kHostsPerCube; ++i) {
    hosts_.push_back(CpuHost{.index = i, .healthy = true});
  }
}

void Cube::SetFlag(bool& flag, bool healthy) {
  if (flag != healthy) unhealthy_ += healthy ? -1 : 1;
  flag = healthy;
}

void Cube::SetHostHealth(int host, bool healthy) {
  assert(host >= 0 && host < kHostsPerCube);
  SetFlag(hosts_[static_cast<std::size_t>(host)].healthy, healthy);
  // A host failure takes down its 4 TPUs.
  if (!healthy) {
    for (int c = host * kChipsPerHost; c < (host + 1) * kChipsPerHost; ++c) {
      SetFlag(chips_[static_cast<std::size_t>(c)].healthy, false);
    }
  }
}

void Cube::SetChipHealth(int chip, bool healthy) {
  assert(chip >= 0 && chip < kChipsPerCube);
  SetFlag(chips_[static_cast<std::size_t>(chip)].healthy, healthy);
}

void Cube::Restore() {
  for (auto& h : hosts_) h.healthy = true;
  for (auto& c : chips_) c.healthy = true;
  unhealthy_ = 0;
}

ChipCoord Cube::CoordOf(int chip_index) {
  assert(chip_index >= 0 && chip_index < kChipsPerCube);
  return ChipCoord{
      .x = chip_index % kCubeEdge,
      .y = (chip_index / kCubeEdge) % kCubeEdge,
      .z = chip_index / (kCubeEdge * kCubeEdge),
  };
}

int Cube::IndexOf(ChipCoord coord) {
  assert(coord.x >= 0 && coord.x < kCubeEdge && coord.y >= 0 && coord.y < kCubeEdge &&
         coord.z >= 0 && coord.z < kCubeEdge);
  return coord.x + kCubeEdge * (coord.y + kCubeEdge * coord.z);
}

int Cube::HostOf(int chip_index) {
  assert(chip_index >= 0 && chip_index < kChipsPerCube);
  return chip_index / kChipsPerHost;
}

}  // namespace lightwave::tpu
