#include "obs/metrics.hpp"

#include <cassert>
#include <cinttypes>
#include <cstdarg>
#include <cstdio>

namespace planck::obs {
namespace {

// Deterministic double formatting for the export JSON: fixed six
// fractional digits, never locale- or exponent-dependent.
void append_double(std::string& out, double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.6f", v);
  out += buf;
}

void append_u64(std::string& out, std::uint64_t v) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%" PRIu64, v);
  out += buf;
}

// Metric names are code-supplied identifiers; escape the few characters
// that would break the JSON string so a stray name cannot corrupt output.
void append_escaped(std::string& out, const std::string& s) {
  for (char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    out += c;
  }
}

}  // namespace

MetricRegistry::Entry& MetricRegistry::entry(std::string_view component,
                                             std::string_view name) {
  std::string key;
  key.reserve(component.size() + 1 + name.size());
  key.append(component);
  key += '/';
  key.append(name);
  Entry& e = metrics_[key];
  if (e.component.empty() && e.name.empty()) {
    e.component.assign(component);
    e.name.assign(name);
  }
  return e;
}

Counter& MetricRegistry::counter(std::string_view component,
                                 std::string_view name) {
  Entry& e = entry(component, name);
  assert(!e.gauge && !e.histogram && "metric re-registered as another kind");
  if (!e.counter) e.counter = std::make_unique<Counter>();
  return *e.counter;
}

Gauge& MetricRegistry::gauge(std::string_view component,
                             std::string_view name) {
  Entry& e = entry(component, name);
  assert(!e.counter && !e.histogram && "metric re-registered as another kind");
  if (!e.gauge) e.gauge = std::make_unique<Gauge>();
  return *e.gauge;
}

Gauge& MetricRegistry::gauge(std::string_view component, std::string_view name,
                             std::function<double()> source) {
  Gauge& g = gauge(component, name);
  g.set_source(std::move(source));
  return g;
}

Histogram& MetricRegistry::histogram(std::string_view component,
                                     std::string_view name, double lo,
                                     double hi, std::size_t buckets) {
  Entry& e = entry(component, name);
  assert(!e.counter && !e.gauge && "metric re-registered as another kind");
  if (!e.histogram) e.histogram = std::make_unique<Histogram>(lo, hi, buckets);
  return *e.histogram;
}

void MetricRegistry::visit(
    const std::function<void(const std::string&, const std::string&,
                             const Counter*, const Gauge*, const Histogram*)>&
        fn) const {
  for (const auto& [key, e] : metrics_) {
    (void)key;
    fn(e.component, e.name, e.counter.get(), e.gauge.get(),
       e.histogram.get());
  }
}

std::string MetricRegistry::to_json() const {
  std::string out = "{\"schema\":\"planck-metrics-v1\",\"metrics\":[";
  bool first = true;
  for (const auto& [key, e] : metrics_) {
    (void)key;
    if (!first) out += ',';
    first = false;
    out += "{\"component\":\"";
    append_escaped(out, e.component);
    out += "\",\"name\":\"";
    append_escaped(out, e.name);
    out += "\",\"kind\":\"";
    if (e.counter) {
      out += "counter\",\"value\":";
      append_u64(out, e.counter->value());
    } else if (e.gauge) {
      out += "gauge\",\"value\":";
      append_double(out, e.gauge->value());
    } else if (e.histogram) {
      out += "histogram\",\"count\":";
      append_u64(out, e.histogram->count());
      out += ",\"underflow\":";
      append_u64(out, e.histogram->underflow());
      out += ",\"overflow\":";
      append_u64(out, e.histogram->overflow());
      out += ",\"p50\":";
      append_double(out, e.histogram->quantile(0.50));
      out += ",\"p90\":";
      append_double(out, e.histogram->quantile(0.90));
      out += ",\"p99\":";
      append_double(out, e.histogram->quantile(0.99));
    } else {
      out += "gauge\",\"value\":0.000000";
    }
    out += '}';
  }
  out += "]}\n";
  return out;
}

bool MetricRegistry::write_json(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  const std::string doc = to_json();
  const std::size_t written = std::fwrite(doc.data(), 1, doc.size(), f);
  const bool ok = written == doc.size() && std::fclose(f) == 0;
  if (written != doc.size()) std::fclose(f);
  return ok;
}

}  // namespace planck::obs
