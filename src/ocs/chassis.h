// Palomar chassis model (Fig. 7): front half carries fiber management and
// the optical core; the back chassis carries the CPU, FPGA, high-voltage
// driver boards, and redundant, hot-swappable power supplies and fan
// modules. The HV drivers were the largest reliability challenge — they are
// field replaceable, but swapping one drops the mirror state it drives.
#pragma once

#include <string>
#include <vector>

#include "common/rng.h"

namespace lightwave::ocs {

enum class FruKind {
  kCpu,
  kFpga,
  kHvDriverBoard,
  kPowerSupply,
  kFanModule,
  kOpticalCore,
};

const char* ToString(FruKind kind);

struct FruSpec {
  FruKind kind;
  int count = 1;          // installed units
  int required = 1;       // minimum functional units for chassis operation
  double mtbf_hours = 0;  // per-unit
  double mttr_hours = 0;  // field replacement time
  bool hot_swappable = false;
  /// Swapping drops volatile mirror state driven by this unit.
  bool swap_disturbs_mirrors = false;
};

/// The production FRU complement.
std::vector<FruSpec> PalomarFruComplement();

struct FruInstance {
  FruSpec spec;
  std::vector<bool> unit_up;  // per installed unit

  int UpCount() const;
  bool Operational() const { return UpCount() >= spec.required; }
};

/// Tracks chassis hardware state and answers availability queries.
class Chassis {
 public:
  explicit Chassis(std::vector<FruSpec> complement = PalomarFruComplement());

  /// Steady-state availability from per-FRU MTBF/MTTR with k-of-n sparing:
  /// the product over FRUs of P[at least `required` of `count` up].
  double SteadyStateAvailability() const;

  /// Degrades one unit; returns true when the chassis remains operational.
  bool FailUnit(FruKind kind, int unit);
  /// Repairs (or hot-swaps) a unit. Returns true when the swap disturbed
  /// mirror state (caller must re-establish the affected connections).
  bool RepairUnit(FruKind kind, int unit);

  bool Operational() const;

  /// Total electrical power draw; the paper's headline figure is 108 W for
  /// the whole system.
  double PowerDrawWatts() const;

 private:
  FruInstance* Find(FruKind kind);
  const FruInstance* Find(FruKind kind) const;

  std::vector<FruInstance> frus_;
};

}  // namespace lightwave::ocs
