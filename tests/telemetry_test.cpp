// Unit tests for the telemetry subsystem: counter/gauge/histogram
// semantics, labeled series identity, ring-buffered sim-clock time series,
// nested trace-span parentage, exporter formats, the malformed-frame vs
// transport-loss distinction, and byte-exact deterministic export of a
// fixed-seed reconfiguration + training scenario.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "core/fabric_manager.h"
#include "ctrl/controller.h"
#include "sim/event.h"
#include "sim/training_run.h"
#include "telemetry/export.h"
#include "telemetry/hub.h"
#include "telemetry/metrics.h"
#include "telemetry/trace.h"

namespace lightwave::telemetry {
namespace {

// --- metric primitives -----------------------------------------------------------

TEST(Metrics, CounterAccumulates) {
  MetricsRegistry registry;
  Counter& c = registry.GetCounter("requests_total");
  EXPECT_EQ(c.value(), 0u);
  c.Inc();
  c.Inc(4);
  EXPECT_EQ(c.value(), 5u);
  // Same name resolves to the same series.
  EXPECT_EQ(&registry.GetCounter("requests_total"), &c);
}

TEST(Metrics, GaugeSetAndAdd) {
  MetricsRegistry registry;
  Gauge& g = registry.GetGauge("busy_cubes");
  g.Set(12.0);
  EXPECT_DOUBLE_EQ(g.value(), 12.0);
  g.Add(-2.0);
  EXPECT_DOUBLE_EQ(g.value(), 10.0);
}

TEST(Metrics, HistogramPercentilesAndSum) {
  MetricsRegistry registry;
  HistogramMetric& h = registry.GetHistogram("loss_db");
  for (int i = 1; i <= 100; ++i) h.Observe(i);
  EXPECT_EQ(h.count(), 100u);
  EXPECT_DOUBLE_EQ(h.sum(), 5050.0);
  EXPECT_DOUBLE_EQ(h.Percentile(50.0), 50.0);
  EXPECT_DOUBLE_EQ(h.Percentile(99.0), 99.0);
  EXPECT_DOUBLE_EQ(h.Percentile(0.0), 1.0);
  EXPECT_DOUBLE_EQ(h.Percentile(100.0), 100.0);
}

TEST(Metrics, EmptyHistogramIsSafe) {
  MetricsRegistry registry;
  HistogramMetric& h = registry.GetHistogram("never_observed");
  EXPECT_EQ(h.count(), 0u);
  EXPECT_DOUBLE_EQ(h.Percentile(50.0), 0.0);
  // The exporters must survive querying it too.
  EXPECT_NE(ToPrometheus(registry).find("never_observed_count 0"), std::string::npos);
}

TEST(Metrics, LabeledSeriesAreDistinctAndOrderInsensitive) {
  MetricsRegistry registry;
  Counter& ab = registry.GetCounter("x_total", {{"a", "1"}, {"b", "2"}});
  Counter& ba = registry.GetCounter("x_total", {{"b", "2"}, {"a", "1"}});
  Counter& other = registry.GetCounter("x_total", {{"a", "1"}, {"b", "3"}});
  Counter& bare = registry.GetCounter("x_total");
  EXPECT_EQ(&ab, &ba);  // labels normalize to sorted order
  EXPECT_NE(&ab, &other);
  EXPECT_NE(&ab, &bare);
  ab.Inc();
  EXPECT_EQ(ba.value(), 1u);
  EXPECT_EQ(other.value(), 0u);
}

TEST(Metrics, TimeSeriesRingEvictsOldest) {
  MetricsRegistry registry;
  TimeSeries& series = registry.GetTimeSeries("goodput", {}, /*capacity=*/4);
  for (int i = 0; i < 6; ++i) series.Record(i, 10.0 * i);
  EXPECT_EQ(series.recorded(), 6u);
  const auto samples = series.Samples();
  ASSERT_EQ(samples.size(), 4u);
  EXPECT_DOUBLE_EQ(samples.front().t, 2.0);  // 0 and 1 evicted
  EXPECT_DOUBLE_EQ(samples.back().t, 5.0);
  EXPECT_DOUBLE_EQ(samples.back().value, 50.0);
}

TEST(Metrics, TimeSeriesUsesSimClockTimestamps) {
  Hub hub;
  sim::EventQueue queue;
  hub.SetClock([&queue] { return queue.now(); });
  TimeSeries& series = hub.metrics().GetTimeSeries("events");
  queue.At(1.5, [&] { series.Record(hub.Now(), 1.0); });
  queue.At(4.0, [&] { series.Record(hub.Now(), 2.0); });
  queue.Run();
  const auto samples = series.Samples();
  ASSERT_EQ(samples.size(), 2u);
  EXPECT_DOUBLE_EQ(samples[0].t, 1.5);
  EXPECT_DOUBLE_EQ(samples[1].t, 4.0);
}

// --- spans -----------------------------------------------------------------------

TEST(Trace, NestedSpansRecordParentage) {
  Hub hub;
  {
    TraceSpan root(&hub, "apply_topology");
    {
      TraceSpan child_a(&hub, "reconfigure_ocs");
      child_a.Annotate("ocs", "0");
    }
    {
      TraceSpan child_b(&hub, "reconfigure_ocs");
      TraceSpan grandchild(&hub, "mems_settle");
      (void)grandchild;
    }
  }
  const auto spans = hub.tracer().spans();
  ASSERT_EQ(spans.size(), 4u);
  EXPECT_EQ(spans[0].name, "apply_topology");
  EXPECT_EQ(spans[0].parent_id, 0u);
  EXPECT_EQ(spans[1].parent_id, spans[0].id);
  EXPECT_EQ(spans[2].parent_id, spans[0].id);
  EXPECT_EQ(spans[3].parent_id, spans[2].id);  // grandchild under child_b
  ASSERT_EQ(spans[1].attributes.size(), 1u);
  EXPECT_EQ(spans[1].attributes[0].first, "ocs");
  EXPECT_EQ(hub.tracer().open_count(), 0u);
}

TEST(Trace, ExplicitTimesAndOutOfOrderEnd) {
  Tracer tracer;
  const auto a = tracer.Begin("a", 1.0);
  const auto b = tracer.Begin("b", 2.0);
  tracer.End(a, 5.0);  // parent ends before child: tolerated
  tracer.End(b, 3.0);
  const auto spans = tracer.spans();
  ASSERT_EQ(spans.size(), 2u);
  EXPECT_DOUBLE_EQ(spans[0].start, 1.0);
  EXPECT_DOUBLE_EQ(spans[0].end, 5.0);
  EXPECT_FALSE(spans[0].open);
  EXPECT_EQ(spans[1].parent_id, spans[0].id);
  EXPECT_EQ(tracer.open_count(), 0u);
}

TEST(Trace, NullHubSpanIsNoOp) {
  TraceSpan span(nullptr, "nothing");
  span.Annotate("k", "v");  // must not crash
  EXPECT_EQ(span.id(), 0u);
}

// --- exporters -------------------------------------------------------------------

TEST(Export, PrometheusFormat) {
  MetricsRegistry registry;
  registry.GetCounter("lw_frames_total", {{"bus", "mgmt"}}).Inc(7);
  registry.GetGauge("lw_busy").Set(2.5);
  registry.GetHistogram("lw_latency_ms").Observe(4.0);
  const std::string text = ToPrometheus(registry);
  EXPECT_NE(text.find("# TYPE lw_frames_total counter\n"), std::string::npos);
  EXPECT_NE(text.find("lw_frames_total{bus=\"mgmt\"} 7\n"), std::string::npos);
  EXPECT_NE(text.find("# TYPE lw_busy gauge\n"), std::string::npos);
  EXPECT_NE(text.find("lw_busy 2.5\n"), std::string::npos);
  EXPECT_NE(text.find("# TYPE lw_latency_ms summary\n"), std::string::npos);
  EXPECT_NE(text.find("lw_latency_ms{quantile=\"0.5\"} 4\n"), std::string::npos);
  EXPECT_NE(text.find("lw_latency_ms_count 1\n"), std::string::npos);
}

TEST(Export, JsonContainsAllSections) {
  Hub hub;
  hub.metrics().GetCounter("c").Inc();
  hub.metrics().GetTimeSeries("ts").Record(1.0, 2.0);
  {
    TraceSpan span(&hub, "root");
    (void)span;
  }
  const std::string json = ToJson(hub);
  EXPECT_EQ(json.front(), '{');
  EXPECT_EQ(json.back(), '}');
  for (const char* section :
       {"\"counters\":", "\"gauges\":", "\"histograms\":", "\"timeseries\":", "\"spans\":"}) {
    EXPECT_NE(json.find(section), std::string::npos) << section;
  }
  EXPECT_NE(json.find("\"samples\":[[1,2]]"), std::string::npos);
  EXPECT_NE(json.find("\"name\":\"root\""), std::string::npos);
}

// --- control-plane integration ---------------------------------------------------

TEST(CtrlIntegration, MalformedFramesDistinguishableFromTransportLoss) {
  ocs::PalomarSwitch sw(99);
  ctrl::OcsAgent agent(sw);
  Hub hub;
  agent.AttachTelemetry(&hub);

  // Garbage frame: the agent drops it as malformed.
  EXPECT_TRUE(agent.Handle({0xde, 0xad, 0xbe, 0xef}).empty());
  EXPECT_EQ(agent.malformed_frames(), 1u);

  // Pure transport loss: the agent never sees the frame, so the malformed
  // count must not move while the bus drop counter does.
  ctrl::MessageBus bus(7);
  bus.AttachTelemetry(&hub);
  bus.SetDropProbability(1.0);
  EXPECT_TRUE(bus.RoundTrip(agent, {0x01, 0x02}).empty());
  EXPECT_EQ(agent.malformed_frames(), 1u);
  EXPECT_EQ(bus.frames_dropped(), 1u);

  EXPECT_EQ(
      hub.metrics().GetCounter("lightwave_ctrl_agent_malformed_frames_total").value(), 1u);
  EXPECT_EQ(hub.metrics().GetCounter("lightwave_ctrl_frames_dropped_total").value(), 1u);
}

TEST(CtrlIntegration, TransactionSpansAndRetryMetrics) {
  ocs::PalomarSwitch sw(3);
  ctrl::OcsAgent agent(sw);
  ctrl::MessageBus bus(11);
  bus.SetDropProbability(0.4);  // force some retries, deterministically seeded
  ctrl::FabricController controller(bus, ctrl::FabricControllerOptions{.max_retries = 20});
  controller.Register(0, &agent);

  Hub hub;
  bus.AttachTelemetry(&hub);
  controller.AttachTelemetry(&hub);
  agent.AttachTelemetry(&hub);

  auto result = controller.ApplyTopology({{0, {{0, 1}, {2, 3}}}});
  ASSERT_TRUE(result.ok) << result.error;

  const auto spans = hub.tracer().spans();
  ASSERT_GE(spans.size(), 2u);
  EXPECT_EQ(spans[0].name, "apply_topology");
  EXPECT_EQ(spans[1].name, "reconfigure_ocs");
  EXPECT_EQ(spans[1].parent_id, spans[0].id);
  auto& metrics = hub.metrics();
  EXPECT_EQ(metrics.GetCounter("lightwave_ctrl_transactions_total").value(), 1u);
  EXPECT_EQ(metrics.GetCounter("lightwave_ctrl_retries_total").value(),
            static_cast<std::uint64_t>(result.retries_used));
  EXPECT_EQ(metrics.GetHistogram("lightwave_ctrl_transaction_duration_ms").count(), 1u);
  EXPECT_GT(metrics.GetCounter("lightwave_ctrl_frames_sent_total").value(), 0u);
}

// --- determinism -----------------------------------------------------------------

// One fixed-seed "day in the life" scenario: slice churn, a cube failure
// repair, a control-plane reconfig under loss, a link-quality survey, and a
// short training-run simulation, all recording into the hub.
void RunScenario(Hub& hub) {
  core::FabricManagerConfig config;
  config.seed = 42;
  config.control_drop_probability = 0.02;
  core::FabricManager fabric(config);
  fabric.AttachTelemetry(&hub);

  auto slice = fabric.CreateSlice(tpu::SliceShape{2, 2, 2});
  ASSERT_TRUE(slice.ok());
  auto second = fabric.CreateSlice(tpu::SliceShape{1, 2, 2});
  ASSERT_TRUE(second.ok());
  ASSERT_TRUE(fabric.DestroySlice(second.value()).ok());
  auto repaired = fabric.HandleCubeFailure(0);
  ASSERT_TRUE(repaired.ok());
  (void)fabric.SurveyLinkQuality(optics::Cwdm4Bidi());
  (void)fabric.CollectTelemetry();  // wire-protocol traffic over the lossy bus

  sim::TrainingRunConfig run;
  run.shape = tpu::SliceShape{2, 2, 2};
  run.pod_cubes = 16;
  run.cube_mtbf_hours = 300.0;
  run.run_hours = 24.0 * 10.0;
  run.seed = 7;
  run.hub = &hub;
  (void)sim::SimulateTrainingRun(run);
}

TEST(Determinism, FixedSeedRunExportsByteExact) {
  Hub first;
  RunScenario(first);
  Hub second;
  RunScenario(second);

  const std::string prom_a = ToPrometheus(first.metrics());
  const std::string prom_b = ToPrometheus(second.metrics());
  EXPECT_FALSE(prom_a.empty());
  EXPECT_EQ(prom_a, prom_b);

  const std::string json_a = ToJson(first);
  const std::string json_b = ToJson(second);
  EXPECT_EQ(json_a, json_b);

  // The scenario exercised every instrumented layer.
  for (const char* needle :
       {"lightwave_ctrl_frames_sent_total", "lightwave_ocs_reconfigurations_total",
        "lightwave_core_slice_requests_total", "lightwave_fabric_link_margin_db",
        "lightwave_training_goodput"}) {
    EXPECT_NE(prom_a.find(needle), std::string::npos) << needle;
  }
  EXPECT_NE(json_a.find("\"spans\":[{"), std::string::npos);
  EXPECT_GT(first.metrics().GetCounter("lightwave_ctrl_frames_sent_total").value(), 0u);
}

}  // namespace
}  // namespace lightwave::telemetry
