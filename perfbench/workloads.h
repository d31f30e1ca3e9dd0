// The four fleet-benchmark workloads and the pieces their traced runs share.
#pragma once

#include <cstdint>
#include <map>
#include <string>

#include "harness.h"

namespace perfbench {

struct RunOptions {
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  /// Directory for the journal media (created and removed by the run).
  std::string scratch;
};

/// Per-layer metric values by name.
using Layers = std::map<std::string, double>;

/// Untraced runs add every end-to-end metric to `result`; traced runs fill
/// `layers` for the layers on the workload's own path.
void RunChurn(const RunOptions& options, SpanLog* spans, Layers& layers, Result& result);
void RunFlood(const RunOptions& options, SpanLog* spans, Layers& layers, Result& result);
void RunRecover(const RunOptions& options, SpanLog* spans, Layers& layers, Result& result);
void RunFigures(const RunOptions& options, SpanLog* spans, Layers& layers, Result& result);

/// Traced runs only: a workload whose path skips the serve/journal/fabric
/// layers (figures) or the figure-computation layers (the others) measures
/// them on a small fixed control input, so every layer metric is a real
/// measurement on every workload. A control value should stay flat when
/// the workload's own code changes.
void ServeControlLayers(const RunOptions& options, SpanLog& spans, Layers& layers,
                        Result& result);
void FigureControlLayers(SpanLog& spans, Layers& layers, Result& result);

/// Prints the figure outputs of every input variant as the pinned table
/// (figures_pinned.inc).
void PrintFigurePins();

/// Adds every per-layer metric, in a fixed order, to `result`.
void EmitLayers(const Layers& layers, Result& result);

}  // namespace perfbench
