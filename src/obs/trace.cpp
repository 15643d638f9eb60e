#include "obs/trace.hpp"

#include <algorithm>
#include <cstdarg>
#include <cstdio>

namespace planck::obs {
namespace {

// Chrome trace "ts" is microseconds; sim::Time is nanoseconds. Print as
// fixed-point us with three fractional digits so no precision is lost and
// the text is deterministic.
void append_ts(std::string& out, sim::Time t) {
  const long long ns = static_cast<long long>(t);
  char buf[48];
  std::snprintf(buf, sizeof(buf), "%lld.%03lld", ns / 1000, ns % 1000);
  out += buf;
}

void append_escaped(std::string& out, std::string_view s) {
  for (char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    out += c;
  }
}

}  // namespace

std::string argf(const char* fmt, ...) {
  char buf[256];
  va_list ap;
  va_start(ap, fmt);
  const int n = std::vsnprintf(buf, sizeof(buf), fmt, ap);
  va_end(ap);
  if (n < 0) return std::string();
  return std::string(
      buf, std::min(sizeof(buf) - 1, static_cast<std::size_t>(n)));
}

std::size_t Tracer::tid_for(std::string_view component) {
  for (std::size_t i = 0; i < components_.size(); ++i) {
    if (components_[i] == component) return i;
  }
  components_.emplace_back(component);
  return components_.size() - 1;
}

void Tracer::instant(sim::Time t, std::string_view component,
                     std::string_view name, std::string args) {
  sim::MutexLock lock(mu_);
  events_.push_back(Event{'I', t, sim::Duration{0}, tid_for(component),
                          std::string(name), std::move(args)});
}

void Tracer::counter(sim::Time t, std::string_view component,
                     std::string_view name, double value) {
  sim::MutexLock lock(mu_);
  events_.push_back(Event{'C', t, sim::Duration{0}, tid_for(component),
                          std::string(name),
                          argf("\"value\":%.6f", value)});
}

void Tracer::complete(sim::Time t, sim::Duration dur,
                      std::string_view component, std::string_view name,
                      std::string args) {
  sim::MutexLock lock(mu_);
  events_.push_back(Event{'X', t, dur, tid_for(component), std::string(name),
                          std::move(args)});
}

void Tracer::clear() {
  sim::MutexLock lock(mu_);
  events_.clear();
  components_.clear();
}

std::string Tracer::to_json() const {
  sim::MutexLock lock(mu_);
  std::string out = "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n";
  bool first = true;
  // One metadata record per component names its trace "thread".
  for (std::size_t tid = 0; tid < components_.size(); ++tid) {
    if (!first) out += ",\n";
    first = false;
    out += "{\"ph\":\"M\",\"pid\":0,\"tid\":";
    out += std::to_string(tid);
    out += ",\"name\":\"thread_name\",\"args\":{\"name\":\"";
    append_escaped(out, components_[tid]);
    out += "\"}}";
  }
  for (const Event& e : events_) {
    if (!first) out += ",\n";
    first = false;
    out += "{\"ph\":\"";
    out += e.ph;
    out += "\",\"pid\":0,\"tid\":";
    out += std::to_string(e.tid);
    out += ",\"ts\":";
    append_ts(out, e.ts);
    if (e.ph == 'X') {
      out += ",\"dur\":";
      append_ts(out, sim::Time{static_cast<std::int64_t>(e.dur)});
    }
    if (e.ph == 'I') out += ",\"s\":\"t\"";
    out += ",\"name\":\"";
    append_escaped(out, e.name);
    out += '"';
    if (!e.args.empty()) {
      out += ",\"args\":{";
      out += e.args;
      out += '}';
    }
    out += '}';
  }
  out += "\n]}\n";
  return out;
}

bool Tracer::write_json(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  const std::string doc = to_json();
  const std::size_t written = std::fwrite(doc.data(), 1, doc.size(), f);
  const bool ok = written == doc.size() && std::fclose(f) == 0;
  if (written != doc.size()) std::fclose(f);
  return ok;
}

}  // namespace planck::obs
