// Tests for the pluggable collective-backend subsystem (CTest label
// `collective`): per-backend analytic-vs-event-driven cross-validation,
// byte-identity of the ring backend with the legacy closed-form path
// (pinned against pre-backend values), in-network slot-exhaustion and
// loss-penalty behavior, RankShapes determinism across backends, telemetry
// exporter visibility, and the contract negative tests.
#include <gtest/gtest.h>

#include <cmath>
#include <string>
#include <vector>

#include "common/check.h"
#include "sim/collective_backend.h"
#include "sim/event.h"
#include "sim/llm_model.h"
#include "sim/multipod.h"
#include "telemetry/export.h"
#include "telemetry/hub.h"
#include "tpu/slice.h"

namespace lightwave::sim {
namespace {

using common::CheckFailure;
using common::CheckKind;
using common::ScopedCheckHandler;

const CollectiveLinkProfile kLink{400.0, 1.0};

std::vector<const CollectiveBackend*> AllBackends() {
  static const RingBackend* const ring = new RingBackend;
  static const TreeBackend* const tree = new TreeBackend;
  static const InNetworkBackend* const inn = new InNetworkBackend;
  return {ring, tree, inn};
}

// --- analytic vs event-driven ----------------------------------------------------

TEST(CollectiveBackend, AnalyticMatchesEventSimulationPerBackend) {
  for (const auto* backend : AllBackends()) {
    for (const int n : {2, 5, 8, 17, 64, 256}) {
      for (const double bytes : {4096.0, 64e6}) {
        EventQueue queue;
        const double analytic = backend->AllReduceCost(n, bytes, kLink).time_us;
        const double simulated = backend->SimulateAllReduce(queue, n, bytes, kLink);
        EXPECT_NEAR(simulated, analytic, analytic * 1e-9)
            << backend->name() << " n=" << n << " bytes=" << bytes;
      }
    }
  }
}

TEST(CollectiveBackend, SimulationStartsAtQueueNow) {
  // The validator reports time relative to entry, even on a queue whose
  // clock has already advanced.
  TreeBackend tree;
  EventQueue queue;
  queue.At(25.0, [] {});
  queue.Run();
  ASSERT_DOUBLE_EQ(queue.now(), 25.0);
  const double cost = tree.AllReduceCost(8, 1e6, kLink).time_us;
  EXPECT_NEAR(tree.SimulateAllReduce(queue, 8, 1e6, kLink), cost, cost * 1e-9);
}

TEST(CollectiveBackend, InNetworkSimMatchesClosedFormInBothRegimes) {
  // Slot-bound (tiny pool, long round trip) and link-bound (deep pool)
  // exercise the two branches of the closed form against the genuine
  // sliding-window event simulation.
  for (const int slots : {1, 2, 7, 128, 4096}) {
    for (const double hop : {0.3, 20.0}) {
      InNetworkConfig config;
      config.pool_slots = slots;
      InNetworkBackend backend(config);
      const CollectiveLinkProfile link{400.0, hop};
      EventQueue queue;
      const double analytic = backend.AllReduceCost(16, 3e6, link).time_us;
      const double simulated = backend.SimulateAllReduce(queue, 16, 3e6, link);
      EXPECT_NEAR(simulated, analytic, analytic * 1e-9)
          << "slots=" << slots << " hop=" << hop;
    }
  }
}

// --- cost-model structure --------------------------------------------------------

TEST(CollectiveBackend, SingleMemberAndZeroBytesAreFree) {
  for (const auto* backend : AllBackends()) {
    EXPECT_DOUBLE_EQ(backend->AllReduceCost(1, 1e9, kLink).time_us, 0.0)
        << backend->name();
    EventQueue queue;
    EXPECT_DOUBLE_EQ(backend->SimulateAllReduce(queue, 1, 1e9, kLink), 0.0)
        << backend->name();
  }
  // Zero bytes: latency-only for ring/tree, free for in-network (no
  // packets to aggregate).
  EXPECT_DOUBLE_EQ(RingBackend{}.AllReduceCost(8, 0.0, kLink).bandwidth_term_us, 0.0);
  EXPECT_DOUBLE_EQ(TreeBackend{}.AllReduceCost(8, 0.0, kLink).bandwidth_term_us, 0.0);
  EXPECT_GT(TreeBackend{}.AllReduceCost(8, 0.0, kLink).latency_term_us, 0.0);
  EXPECT_DOUBLE_EQ(InNetworkBackend{}.AllReduceCost(8, 0.0, kLink).time_us, 0.0);
}

TEST(CollectiveBackend, TreeLatencyLogarithmicRingLatencyLinear) {
  RingBackend ring;
  TreeBackend tree;
  const auto ring_cost = ring.AllReduceCost(256, 1e6, kLink);
  const auto tree_cost = tree.AllReduceCost(256, 1e6, kLink);
  EXPECT_DOUBLE_EQ(ring_cost.latency_term_us, 2.0 * 255 * kLink.hop_latency_us);
  EXPECT_DOUBLE_EQ(tree_cost.latency_term_us, 2.0 * 8 * kLink.hop_latency_us);
  // Tree pays ~2x the ring's bandwidth term for that latency win.
  EXPECT_NEAR(tree_cost.bandwidth_term_us / ring_cost.bandwidth_term_us,
              2.0 * 2.0 * 256 / (2.0 * 255), 1e-9);
}

TEST(CollectiveBackend, InNetworkTimeIndependentOfWorkerCount) {
  InNetworkBackend backend;
  const double t4 = backend.AllReduceCost(4, 64e6, kLink).time_us;
  for (const int n : {2, 16, 400, 4096}) {
    EXPECT_DOUBLE_EQ(backend.AllReduceCost(n, 64e6, kLink).time_us, t4) << n;
  }
  // ...while the ring scales with member count.
  RingBackend ring;
  EXPECT_GT(ring.AllReduceCost(4096, 64e6, kLink).time_us,
            ring.AllReduceCost(4, 64e6, kLink).time_us);
}

TEST(CollectiveBackend, InNetworkSlotExhaustionGatesPipelineDepth) {
  // Fewer pool slots can only slow the pipeline; once the pool covers the
  // bandwidth-delay product, adding slots changes nothing.
  double previous = 0.0;
  std::vector<double> times;
  for (const int slots : {1, 2, 8, 32, 4096}) {
    InNetworkConfig config;
    config.pool_slots = slots;
    times.push_back(InNetworkBackend(config).AllReduceCost(8, 64e6, kLink).time_us);
    if (previous > 0.0) {
      EXPECT_LE(times.back(), previous) << "slots=" << slots;
    }
    previous = times.back();
  }
  // Strictly faster while slot-bound; a starved pool is order-of-magnitude slow.
  EXPECT_GT(times.front(), 10.0 * times.back());
  // Deep-pool time is the line-rate bound: serialization plus one round trip.
  InNetworkConfig config;
  config.pool_slots = 1 << 20;
  InNetworkBackend deep(config);
  const auto cost = deep.AllReduceCost(8, 64e6, kLink);
  const double packets = std::ceil(64e6 / config.slot_bytes);
  EXPECT_DOUBLE_EQ(cost.bandwidth_term_us,
                   packets * (config.slot_bytes / 1e9) / (kLink.link_gbps / 8.0 / 1e6));
  EXPECT_DOUBLE_EQ(cost.latency_term_us,
                   2.0 * kLink.hop_latency_us + config.switch_latency_us);
}

TEST(CollectiveBackend, InNetworkLossPenaltyMonotone) {
  double previous = -1.0;
  for (const double p : {0.0, 1e-4, 1e-3, 1e-2, 0.1, 0.5}) {
    InNetworkConfig config;
    config.drop_probability = p;
    const double t = InNetworkBackend(config).AllReduceCost(8, 64e6, kLink).time_us;
    EXPECT_GT(t, previous) << "p=" << p;
    previous = t;
  }
  // The retransmission factor is the SwitchML expected-tries model: a slot
  // round trip survives both directions with probability (1-p)^2.
  InNetworkConfig lossy;
  lossy.drop_probability = 0.1;
  const double clean = InNetworkBackend{}.AllReduceCost(8, 64e6, kLink).bandwidth_term_us;
  EXPECT_NEAR(InNetworkBackend(lossy).AllReduceCost(8, 64e6, kLink).bandwidth_term_us,
              clean / (0.9 * 0.9), clean * 1e-9);
}

// --- ring-backend byte-identity with the legacy path -----------------------------

TEST(CollectiveBackend, RingBackendMatchesLegacyClosedFormExactly) {
  RingBackend ring;
  for (const int n : {1, 2, 8, 33, 256}) {
    for (const double bytes : {0.0, 4096.0, 1e9}) {
      const auto legacy = RingAllReduce(bytes, n, kLink.link_gbps, kLink.hop_latency_us);
      const auto cost = ring.AllReduceCost(n, bytes, kLink);
      EXPECT_DOUBLE_EQ(cost.time_us, legacy.time_us);
      EXPECT_DOUBLE_EQ(cost.bandwidth_term_us, legacy.bandwidth_term_us);
      EXPECT_DOUBLE_EQ(cost.latency_term_us, legacy.latency_term_us);
    }
  }
}

TEST(CollectiveBackend, InjectedRingBackendByteIdenticalToDefaultModel) {
  const LlmPerfModel implicit_model;  // null backend -> default ring
  LlmCalibration cal;
  cal.collective_backend = MakeCollectiveBackend(CollectiveBackendKind::kRing);
  const LlmPerfModel explicit_model(cal);
  for (const auto& spec : {Llm0(), Llm1(), Llm2()}) {
    const auto a = implicit_model.RankShapes(spec, 64);
    const auto b = explicit_model.RankShapes(spec, 64);
    ASSERT_EQ(a.size(), b.size());
    for (std::size_t i = 0; i < a.size(); ++i) {
      EXPECT_EQ(a[i].shape, b[i].shape) << spec.name << " rank " << i;
      EXPECT_DOUBLE_EQ(a[i].breakdown.total_us, b[i].breakdown.total_us);
      EXPECT_DOUBLE_EQ(a[i].breakdown.mp_comm_us, b[i].breakdown.mp_comm_us);
      EXPECT_DOUBLE_EQ(a[i].breakdown.dp_comm_exposed_us,
                       b[i].breakdown.dp_comm_exposed_us);
    }
  }
}

TEST(CollectiveBackend, DefaultModelPinnedToPreBackendValues) {
  // Exact doubles captured from the model BEFORE the backend subsystem
  // existed: the default (ring) path must stay byte-identical.
  const LlmPerfModel model;
  EXPECT_DOUBLE_EQ(model.StepTime(Llm0(), tpu::SliceShape{2, 4, 8}).total_us,
                   997466.03755080141);
  EXPECT_DOUBLE_EQ(model.StepTime(Llm0(), tpu::SliceShape{4, 4, 4}).total_us,
                   1665238.5419536615);
  EXPECT_DOUBLE_EQ(model.StepTime(Llm1(), tpu::SliceShape{1, 1, 64}).total_us,
                   3464298.6281535099);
  EXPECT_DOUBLE_EQ(model.StepTime(Llm1(), tpu::SliceShape{4, 4, 4}).total_us,
                   12043809.883364245);
  EXPECT_DOUBLE_EQ(model.StepTime(Llm1(), tpu::SliceShape{2, 2, 16}).total_us,
                   6477974.3378473511);
  EXPECT_DOUBLE_EQ(model.StepTime(Llm2(), tpu::SliceShape{4, 4, 4}).total_us,
                   2352709.8422987117);
  EXPECT_DOUBLE_EQ(model.StepTime(Llm2(), tpu::SliceShape{1, 1, 64}).total_us,
                   5686266.1974482322);
  EXPECT_DOUBLE_EQ(model.StepTime(Llm0(), tpu::SliceShape{2, 4, 8}).mp_comm_us,
                   215502.40118716491);
  EXPECT_EQ(model.RankShapes(Llm0(), 64).front().shape.ToString(), "8x16x32");
  EXPECT_EQ(model.RankShapes(Llm1(), 64)[1].shape.ToString(), "4x8x128");
}

TEST(CollectiveBackend, MultipodPinnedToPreBackendValues) {
  const MultipodTrainer trainer;
  MultipodConfig config;
  config.pods = 4;
  const auto step = trainer.StepTime(Llm1(), config);
  EXPECT_EQ(step.pod_shape.ToString(), "4x4x256");
  EXPECT_DOUBLE_EQ(step.total_us, 972948.59558284667);
  EXPECT_DOUBLE_EQ(step.dcn_allreduce_us, 33112.5);
  EXPECT_DOUBLE_EQ(step.dcn_exposed_us, 0.0);
  config.pods = 8;
  EXPECT_DOUBLE_EQ(trainer.StepTime(Llm1(), config).total_us, 516057.2310150562);
  config.pods = 8;
  config.dcn_backend = MakeCollectiveBackend(CollectiveBackendKind::kRing);
  EXPECT_DOUBLE_EQ(trainer.StepTime(Llm1(), config).total_us, 516057.2310150562);
}

// --- RankShapes determinism across backends --------------------------------------

TEST(CollectiveBackend, RankShapesDeterministicPerBackend) {
  for (const auto kind : {CollectiveBackendKind::kRing, CollectiveBackendKind::kTree,
                          CollectiveBackendKind::kInNetwork}) {
    LlmCalibration cal;
    cal.collective_backend = MakeCollectiveBackend(kind);
    const LlmPerfModel model(cal);
    const auto first = model.RankShapes(Llm1(), 64);
    const auto second = model.RankShapes(Llm1(), 64);
    ASSERT_EQ(first.size(), tpu::EnumerateShapes(64).size()) << ToString(kind);
    for (std::size_t i = 0; i < first.size(); ++i) {
      EXPECT_EQ(first[i].shape, second[i].shape) << ToString(kind) << " rank " << i;
      EXPECT_DOUBLE_EQ(first[i].breakdown.total_us, second[i].breakdown.total_us);
    }
  }
}

TEST(CollectiveBackend, BackendsChangeCommCostButKeepThroughputPositive) {
  for (const auto& spec : {Llm0(), Llm1(), Llm2()}) {
    for (const auto kind : {CollectiveBackendKind::kTree,
                            CollectiveBackendKind::kInNetwork}) {
      LlmCalibration cal;
      cal.collective_backend = MakeCollectiveBackend(kind);
      const auto best = LlmPerfModel(cal).RankShapes(spec, 64).front();
      EXPECT_GT(best.breakdown.total_us, 0.0);
      EXPECT_GT(best.breakdown.throughput_seq_per_s, 0.0);
    }
  }
}

// --- telemetry -------------------------------------------------------------------

TEST(CollectiveBackend, TelemetryVisibleThroughExporters) {
  telemetry::Hub hub;
  auto backend = std::make_shared<TreeBackend>();
  backend->AttachTelemetry(&hub);
  LlmCalibration cal;
  cal.collective_backend = backend;
  const LlmPerfModel model(cal);
  model.StepTime(Llm1(), tpu::SliceShape{2, 2, 16});

  const auto& calls = hub.metrics().GetCounter("lightwave_sim_collectives_total",
                                               {{"backend", "tree"}});
  EXPECT_GE(calls.value(), 2u);  // the MP and DP all-reduces at least
  const auto& hist =
      hub.metrics().GetHistogram("lightwave_sim_collective_us", {{"backend", "tree"}});
  EXPECT_EQ(hist.count(), calls.value());
  EXPECT_GT(hist.Percentile(50.0), 0.0);

  const std::string prom = telemetry::ToPrometheus(hub.metrics());
  EXPECT_NE(prom.find("lightwave_sim_collectives_total{backend=\"tree\"}"),
            std::string::npos);
  EXPECT_NE(prom.find("lightwave_sim_collective_us"), std::string::npos);
  const std::string json = telemetry::ToJson(hub.metrics());
  EXPECT_NE(json.find("lightwave_sim_collective_us"), std::string::npos);

  // Detaching stops recording without disturbing the exported series.
  const auto recorded = calls.value();
  backend->AttachTelemetry(nullptr);
  backend->AllReduceCost(8, 1e6, kLink);
  EXPECT_EQ(calls.value(), recorded);
}

TEST(CollectiveBackend, PerBackendSeriesAreDistinct) {
  telemetry::Hub hub;
  RingBackend ring;
  InNetworkBackend inn;
  ring.AttachTelemetry(&hub);
  inn.AttachTelemetry(&hub);
  ring.AllReduceCost(8, 1e6, kLink);
  ring.AllReduceCost(8, 1e6, kLink);
  inn.AllReduceCost(8, 1e6, kLink);
  EXPECT_EQ(hub.metrics()
                .GetCounter("lightwave_sim_collectives_total", {{"backend", "ring"}})
                .value(),
            2u);
  EXPECT_EQ(hub.metrics()
                .GetCounter("lightwave_sim_collectives_total", {{"backend", "innetwork"}})
                .value(),
            1u);
}

// --- contracts -------------------------------------------------------------------

class RecordingHandler {
 public:
  RecordingHandler()
      : scoped_([this](const CheckFailure& failure) { failures_.push_back(failure); }) {}

  std::size_t CountOf(CheckKind kind) const {
    std::size_t n = 0;
    for (const auto& f : failures_) {
      if (f.kind == kind) ++n;
    }
    return n;
  }

 private:
  std::vector<CheckFailure> failures_;
  ScopedCheckHandler scoped_;
};

TEST(CollectiveBackendContracts, RejectsNonPositiveMembership) {
  for (const auto* backend : AllBackends()) {
    RecordingHandler handler;
    backend->AllReduceCost(0, 1e6, kLink);
    EXPECT_GE(handler.CountOf(CheckKind::kCheck), 1u) << backend->name();
  }
}

TEST(CollectiveBackendContracts, RejectsNonPositiveLinkRate) {
  for (const auto* backend : AllBackends()) {
    RecordingHandler handler;
    backend->AllReduceCost(8, 1e6, CollectiveLinkProfile{-400.0, 1.0});
    EXPECT_GE(handler.CountOf(CheckKind::kCheck), 1u) << backend->name();
  }
}

TEST(CollectiveBackendContracts, InNetworkConfigValidated) {
  {
    RecordingHandler handler;
    InNetworkConfig config;
    config.pool_slots = 0;
    InNetworkBackend backend(config);
    EXPECT_EQ(handler.CountOf(CheckKind::kCheck), 1u);
  }
  {
    RecordingHandler handler;
    InNetworkConfig config;
    config.drop_probability = 1.0;  // certain loss never converges
    InNetworkBackend backend(config);
    EXPECT_EQ(handler.CountOf(CheckKind::kCheck), 1u);
  }
  {
    RecordingHandler handler;
    InNetworkConfig config;
    config.slot_bytes = 0.0;
    InNetworkBackend backend(config);
    EXPECT_EQ(handler.CountOf(CheckKind::kCheck), 1u);
  }
}

}  // namespace
}  // namespace lightwave::sim
