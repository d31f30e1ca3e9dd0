// The figures workload: the three paper-figure computations the simulator's
// solvers and kernels serve, on pinned inputs.
//   sched  one reconfigurable core::SimulateWorkload on Superpod(99) at the
//          moderate §4.2.4 configuration (sched_efficiency's first point);
//   dcn    sim::SimulateFlows on the engineered 16-block mesh under
//          dcn_spinefree's hotspot demand;
//   fec    ConcatenatedFec::MeasureFrameErrorRate across the KP4 knee, with
//          and without the inner code.
// The run seed picks the first of kVariants input variants (the
// simulations' own seeds) and the passes walk them in turn; every output is
// checked against the value pinned for its variant, so a speed-up that
// changes any figure fails the run.
#include <cstdio>
#include <memory>
#include <vector>

#include "common/rng.h"
#include "core/scheduler.h"
#include "fec/concatenated.h"
#include "sim/dcn_flow.h"
#include "sim/traffic.h"
#include "tpu/superpod.h"
#include "workloads.h"

namespace perfbench {

namespace {

constexpr int kVariants = 8;
constexpr double kFecBers[] = {1.5e-3, 2.5e-3, 4e-3, 6e-3};
constexpr int kFecPoints = static_cast<int>(std::size(kFecBers));

struct Pinned {
  std::uint64_t submitted;
  std::uint64_t accepted;
  double acceptance;
  double utilization;
  std::uint64_t completed;
  double fct_p50_ms;
  double fct_p99_ms;
  double fer[2 * kFecPoints];  // per point: without, with the inner code
};

// Regenerate with `fleet_bench --pin` when a figure is meant to change.
constexpr Pinned kPinned[kVariants] = {
#include "figures_pinned.inc"
};

struct FigureSizes {
  double sched_hours;
  double dcn_seconds;
  int fec_frames;
  int fec_points;
};

/// One timed pass: the paper benches' configurations (sched_efficiency's
/// 3000 simulated hours, dcn_spinefree's 1 s, 4096 frames per FEC point)
/// cut to a fifth or less, so a run holds two or more rounds of all the
/// variants and its medians ride out a slow stretch of host time that a
/// handful of 7 s passes cannot.
constexpr FigureSizes kPass{600.0, 0.25, 1024, kFecPoints};
/// Tiny inputs: the set-up warm-up, and the figure layers' control
/// measurement on the other workloads.
constexpr FigureSizes kTiny{100.0, 0.02, 256, 1};

/// Inputs built in set-up; the pod is consumed by one sched sweep.
struct FigureInputs {
  tpu::Superpod pod{99};
  sim::TrafficMatrix demand;
  sim::DcnTopology engineered;
  fec::ConcatenatedFec fec;

  FigureInputs()
      : demand(Demand()), engineered(sim::DcnTopology::EngineeredMesh(16, 1000.0, demand)) {}

  static sim::TrafficMatrix Demand() {
    common::Rng rng(2023);
    return sim::DisjointHotspotTraffic(16, 16 * 400.0, 6, 0.5, rng);
  }
};

struct FigureOutputs {
  core::WorkloadResult sched;
  sim::FlowSimResult dcn;
  std::vector<double> fer;
  std::uint64_t frames = 0;
  double sched_s = 0.0;
  double dcn_s = 0.0;
  double fec_s = 0.0;
};

/// With a `probe`, each computation's time is scaled to its reference speed.
FigureOutputs RunPass(FigureInputs& inputs, const FigureSizes& sizes, int variant,
                      SpanLog* spans, SpeedProbe* probe) {
  FigureOutputs out;
  const auto scale = [probe] {
    if (probe == nullptr) return 1.0;
    probe->Probe();
    return probe->Scale();
  };
  core::WorkloadConfig moderate;
  moderate.sim_hours = sizes.sched_hours;
  moderate.arrival_rate_per_hour = 1.4;
  moderate.mean_duration_hours = 8.0;
  moderate.seed = 7 + static_cast<std::uint64_t>(variant);
  double factor = scale();
  auto start = Clock::now();
  {
    ScopedSpan span(spans, "figures.sched", static_cast<std::uint64_t>(variant));
    out.sched =
        core::SimulateWorkload(inputs.pod, core::AllocationPolicy::kReconfigurable, moderate);
  }
  out.sched_s = Seconds(start, Clock::now()) * factor;

  sim::FlowSimConfig flows;
  flows.sim_seconds = sizes.dcn_seconds;
  flows.load = 0.55;
  flows.seed = 42 + static_cast<std::uint64_t>(variant);
  factor = scale();
  start = Clock::now();
  {
    ScopedSpan span(spans, "figures.dcn", static_cast<std::uint64_t>(variant));
    out.dcn = sim::SimulateFlows(inputs.engineered, inputs.demand, flows);
  }
  out.dcn_s = Seconds(start, Clock::now()) * factor;

  factor = scale();
  start = Clock::now();
  {
    ScopedSpan span(spans, "figures.fec", static_cast<std::uint64_t>(variant));
    for (int p = 0; p < sizes.fec_points; ++p) {
      common::Rng rng(2023 + static_cast<std::uint64_t>(variant));
      for (const bool inner : {false, true}) {
        out.fer.push_back(
            inputs.fec.MeasureFrameErrorRate(kFecBers[p], inner, sizes.fec_frames, rng));
        out.frames += static_cast<std::uint64_t>(sizes.fec_frames);
      }
    }
  }
  out.fec_s = Seconds(start, Clock::now()) * factor;
  return out;
}

/// Every figure value a pass produced, against its variant's pin.
void CheckPinned(const FigureOutputs& out, int variant, Result& result) {
  const Pinned& pin = kPinned[variant];
  const std::string tag = " (variant " + std::to_string(variant) + ")";
  result.Attempt(7 + out.fer.size());
  result.Check(out.sched.submitted == pin.submitted, "sched submitted" + tag);
  result.Check(out.sched.accepted == pin.accepted, "sched accepted" + tag);
  result.Check(out.sched.acceptance_rate == pin.acceptance, "sched acceptance" + tag);
  result.Check(out.sched.utilization == pin.utilization, "sched utilization" + tag);
  result.Check(out.dcn.completed == pin.completed, "dcn completed flows" + tag);
  result.Check(out.dcn.p50_fct_ms == pin.fct_p50_ms, "dcn FCT p50" + tag);
  result.Check(out.dcn.p99_fct_ms == pin.fct_p99_ms, "dcn FCT p99" + tag);
  for (std::size_t i = 0; i < out.fer.size(); ++i) {
    result.Check(out.fer[i] == pin.fer[i], "FER point " + std::to_string(i) + tag);
  }
}

double Ratio(double num, double den) { return den == 0.0 ? 0.0 : num / den; }

void FigureLayers(const FigureOutputs& out, Layers& layers) {
  const double flow_events = 2.0 * static_cast<double>(out.dcn.completed);
  layers["core.us_per_sim_job"] = Ratio(out.sched_s * 1e6, out.sched.submitted);
  layers["sim.flow_events"] = flow_events;
  layers["sim.us_per_flow_event"] = Ratio(out.dcn_s * 1e6, flow_events);
  layers["fec.frames"] = static_cast<double>(out.frames);
  layers["fec.us_per_frame"] = Ratio(out.fec_s * 1e6, out.frames);
}

}  // namespace

void RunFigures(const RunOptions& options, SpanLog* spans, Layers& layers, Result& result) {
  const int first_variant = static_cast<int>(options.seed % kVariants);
  if (spans != nullptr) {
    const int variant = first_variant;
    // One untraced and one traced pass of the same inputs; the difference
    // is the tracing overhead.
    FigureInputs untraced_inputs;
    const FigureOutputs untraced = RunPass(untraced_inputs, kPass, variant, nullptr, nullptr);
    FigureInputs inputs;
    const FigureOutputs traced = RunPass(inputs, kPass, variant, spans, nullptr);
    CheckPinned(untraced, variant, result);
    CheckPinned(traced, variant, result);
    FigureLayers(traced, layers);
    ServeControlLayers(options, *spans, layers, result);
    const double untraced_s = untraced.sched_s + untraced.dcn_s + untraced.fec_s;
    const double traced_s = traced.sched_s + traced.dcn_s + traced.fec_s;
    layers["trace.overhead_pct"] = (Ratio(traced_s, untraced_s) - 1.0) * 100.0;
    return;
  }

  Samples setup_s;
  Samples pass_ms;
  Samples sched_s;
  Samples dcn_s;
  Samples fec_s;
  Samples items_per_s;
  Samples allocs_per_s;
  // Set-up builds the pinned inputs and warms every solver and kernel up on
  // tiny ones; each pass consumes its own inputs (the sched sweep fills the
  // pod), so setup_s is the median over the passes' set-ups.
  SpeedProbe probe;
  auto set_up = [&] {
    probe.Probe();
    const auto setup_start = Clock::now();
    {
      FigureInputs warm_up;
      RunPass(warm_up, kTiny, first_variant, nullptr, nullptr);
    }
    auto inputs = std::make_unique<FigureInputs>();
    setup_s.Add(Seconds(setup_start, Clock::now()) * probe.SetupScale());
    return inputs;
  };
  const auto run_start = Clock::now();
  // Passes walk the variants from the seed's in whole rounds of all
  // kVariants, so every run's medians are over the same mix of input sizes
  // (a variant's job and flow counts differ by up to 15%). Rounds run for
  // --seconds of wall time; only the reported times are scaled.
  for (int pass = 0; pass % kVariants != 0 || Seconds(run_start, Clock::now()) < options.seconds;
       ++pass) {
    const int variant = (first_variant + pass) % kVariants;
    const std::unique_ptr<FigureInputs> inputs = set_up();
    const FigureOutputs out = RunPass(*inputs, kPass, variant, nullptr, &probe);
    CheckPinned(out, variant, result);
    const double total = out.sched_s + out.dcn_s + out.fec_s;
    pass_ms.Add(total * 1e3);
    sched_s.Add(out.sched_s);
    dcn_s.Add(out.dcn_s);
    fec_s.Add(out.fec_s);
    items_per_s.Add(static_cast<double>(out.sched.submitted + out.dcn.completed + out.frames) /
                    total);
    allocs_per_s.Add(static_cast<double>(out.sched.accepted) / out.sched_s);
  }
  std::printf("figures: variants from %d, %zu passes\n", first_variant, pass_ms.count());
  std::printf("  sched_sweep_s %.4f s | dcn_sweep_s %.4f s | fec_sweep_s %.4f s\n",
              sched_s.Median(), dcn_s.Median(), fec_s.Median());
  probe.Print();
  result.Metric("setup_s", setup_s.Median(), "s");
  result.Metric("peak_rss_mb", PeakRssMb(), "MB");
  result.Metric("ops_per_s", items_per_s.Median(), "1/s");
  result.Metric("allocs_per_s", allocs_per_s.Median(), "1/s");
  result.Metric("p50_ms", pass_ms.Percentile(50.0), "ms");
}

void FigureControlLayers(SpanLog& spans, Layers& layers, Result& result) {
  FigureInputs inputs;
  const FigureOutputs out = RunPass(inputs, kTiny, 0, &spans, nullptr);
  result.Attempt(3);
  result.Check(out.sched.submitted > 0 && out.dcn.completed > 0 && out.frames > 0,
               "figure control pass produced no work");
  FigureLayers(out, layers);
}

void PrintFigurePins() {
  for (int variant = 0; variant < kVariants; ++variant) {
    FigureInputs inputs;
    const FigureOutputs out = RunPass(inputs, kPass, variant, nullptr, nullptr);
    std::printf("    {%llu, %llu, %.17g, %.17g, %llu, %.17g, %.17g, {",
                static_cast<unsigned long long>(out.sched.submitted),
                static_cast<unsigned long long>(out.sched.accepted), out.sched.acceptance_rate,
                out.sched.utilization, static_cast<unsigned long long>(out.dcn.completed),
                out.dcn.p50_fct_ms, out.dcn.p99_fct_ms);
    for (std::size_t i = 0; i < out.fer.size(); ++i) {
      std::printf("%s%.17g", i == 0 ? "" : ", ", out.fer[i]);
    }
    std::printf("}},\n");
    std::fflush(stdout);
  }
}

}  // namespace perfbench
