#include "telemetry/export.h"

#include <cmath>
#include <cstdio>
#include <sstream>

namespace lightwave::telemetry {

std::string FormatNumber(double v) {
  if (std::isnan(v)) return "NaN";
  if (std::isinf(v)) return v > 0.0 ? "+Inf" : "-Inf";
  char buf[64];
  if (v == std::floor(v) && std::abs(v) < 1e15) {
    std::snprintf(buf, sizeof(buf), "%.0f", v);
  } else {
    std::snprintf(buf, sizeof(buf), "%.9g", v);
  }
  return buf;
}

namespace {

std::string Escape(const std::string& s) {
  std::string out;
  out.reserve(s.size());
  for (char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      default: out += c;
    }
  }
  return out;
}

/// `{k1="v1",k2="v2"}`, or "" with no labels. `extra` is prepended (used for
/// the summary quantile label).
std::string PromLabels(const LabelSet& labels, const std::string& extra = {}) {
  if (labels.empty() && extra.empty()) return {};
  std::string out = "{";
  bool first = true;
  if (!extra.empty()) {
    out += extra;
    first = false;
  }
  for (const auto& [k, v] : labels) {
    if (!first) out += ",";
    first = false;
    out += k + "=\"" + Escape(v) + "\"";
  }
  out += "}";
  return out;
}

void PromType(std::ostringstream& out, std::string* last_typed, const std::string& name,
              const char* type) {
  // One TYPE line per metric family, even when it has many label sets.
  if (*last_typed == name) return;
  out << "# TYPE " << name << " " << type << "\n";
  *last_typed = name;
}

std::string JsonLabels(const LabelSet& labels) {
  std::string out = "{";
  bool first = true;
  for (const auto& [k, v] : labels) {
    if (!first) out += ",";
    first = false;
    // Appended, not concatenated: GCC 12 at -O2 misreads `"\"" +
    // std::string&&` as an overlapping memcpy (-Wrestrict).
    out.append("\"").append(Escape(k)).append("\":\"").append(Escape(v)).append("\"");
  }
  out += "}";
  return out;
}

}  // namespace

std::string ToPrometheus(const MetricsRegistry& registry) {
  std::ostringstream out;
  std::string last_typed;
  for (const auto& [key, counter] : registry.Counters()) {
    PromType(out, &last_typed, key.name, "counter");
    out << key.name << PromLabels(key.labels) << " " << counter->value() << "\n";
  }
  for (const auto& [key, gauge] : registry.Gauges()) {
    PromType(out, &last_typed, key.name, "gauge");
    out << key.name << PromLabels(key.labels) << " " << FormatNumber(gauge->value())
        << "\n";
  }
  for (const auto& [key, hist] : registry.Histograms()) {
    PromType(out, &last_typed, key.name, "summary");
    struct Quantile {
      const char* label;
      double percentile;
    };
    for (const Quantile& q :
         {Quantile{"0.5", 50.0}, Quantile{"0.9", 90.0}, Quantile{"0.99", 99.0}}) {
      out << key.name
          << PromLabels(key.labels, std::string("quantile=\"") + q.label + "\"") << " "
          << FormatNumber(hist->Percentile(q.percentile)) << "\n";
    }
    out << key.name << "_sum" << PromLabels(key.labels) << " "
        << FormatNumber(hist->sum()) << "\n";
    out << key.name << "_count" << PromLabels(key.labels) << " " << hist->count() << "\n";
  }
  for (const auto& [key, series] : registry.TimeSeriesAll()) {
    const auto samples = series->Samples();
    PromType(out, &last_typed, key.name, "gauge");
    out << key.name << PromLabels(key.labels) << " "
        << (samples.empty() ? "0" : FormatNumber(samples.back().value)) << "\n";
  }
  return out.str();
}

std::string ToJson(const MetricsRegistry& registry, const Tracer* tracer) {
  std::ostringstream out;
  out << "{\"counters\":[";
  bool first = true;
  for (const auto& [key, counter] : registry.Counters()) {
    if (!first) out << ",";
    first = false;
    out << "{\"name\":\"" << Escape(key.name) << "\",\"labels\":" << JsonLabels(key.labels)
        << ",\"value\":" << counter->value() << "}";
  }
  out << "],\"gauges\":[";
  first = true;
  for (const auto& [key, gauge] : registry.Gauges()) {
    if (!first) out << ",";
    first = false;
    out << "{\"name\":\"" << Escape(key.name) << "\",\"labels\":" << JsonLabels(key.labels)
        << ",\"value\":" << FormatNumber(gauge->value()) << "}";
  }
  out << "],\"histograms\":[";
  first = true;
  for (const auto& [key, hist] : registry.Histograms()) {
    if (!first) out << ",";
    first = false;
    out << "{\"name\":\"" << Escape(key.name) << "\",\"labels\":" << JsonLabels(key.labels)
        << ",\"count\":" << hist->count() << ",\"sum\":" << FormatNumber(hist->sum())
        << ",\"p50\":" << FormatNumber(hist->Percentile(50.0))
        << ",\"p90\":" << FormatNumber(hist->Percentile(90.0))
        << ",\"p99\":" << FormatNumber(hist->Percentile(99.0)) << "}";
  }
  out << "],\"timeseries\":[";
  first = true;
  for (const auto& [key, series] : registry.TimeSeriesAll()) {
    if (!first) out << ",";
    first = false;
    out << "{\"name\":\"" << Escape(key.name) << "\",\"labels\":" << JsonLabels(key.labels)
        << ",\"recorded\":" << series->recorded() << ",\"samples\":[";
    bool first_sample = true;
    for (const auto& sample : series->Samples()) {
      if (!first_sample) out << ",";
      first_sample = false;
      out << "[" << FormatNumber(sample.t) << "," << FormatNumber(sample.value) << "]";
    }
    out << "]}";
  }
  out << "]";
  if (tracer != nullptr) {
    out << ",\"spans\":[";
    first = true;
    for (const auto& span : tracer->spans()) {
      if (!first) out << ",";
      first = false;
      out << "{\"id\":" << span.id << ",\"parent\":" << span.parent_id << ",\"name\":\""
          << Escape(span.name) << "\",\"start\":" << FormatNumber(span.start)
          << ",\"end\":" << FormatNumber(span.end) << ",\"attributes\":{";
      bool first_attr = true;
      for (const auto& [k, v] : span.attributes) {
        if (!first_attr) out << ",";
        first_attr = false;
        out << "\"" << Escape(k) << "\":\"" << Escape(v) << "\"";
      }
      out << "}}";
    }
    out << "]";
  }
  out << "}";
  return out.str();
}

}  // namespace lightwave::telemetry
