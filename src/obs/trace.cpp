#include "obs/trace.hpp"

#include <algorithm>
#include <cstdarg>
#include <cstdio>

#include "sim/contract.hpp"

namespace planck::obs {
namespace {

constexpr std::size_t kNoTid = ~std::size_t{0};

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

void Tracer::add_shard(int partition) {
  const auto needed = static_cast<std::size_t>(partition) + 1;
  if (shards_.size() < needed) shards_.resize(needed);
}

void Tracer::emit(int partition, char ph, sim::Time t,
                  std::string_view component, std::string_view name,
                  std::string args) {
  PLANCK_CONTRACT(partition >= 0 &&
                      static_cast<std::size_t>(partition) < shards_.size(),
                  "a trace event goes to a shard added at setup");
  Shard& shard = shards_[static_cast<std::size_t>(partition)];
  std::size_t c = 0;
  while (c < shard.components.size() && shard.components[c] != component) ++c;
  if (c == shard.components.size()) shard.components.emplace_back(component);
  shard.events.push_back(Event{ph, t, c, std::string(name), std::move(args)});
}

void Tracer::instant(int partition, sim::Time t, std::string_view component,
                     std::string_view name, std::string args) {
  emit(partition, 'I', t, component, name, std::move(args));
}

void Tracer::counter(int partition, sim::Time t, std::string_view component,
                     std::string_view name, double value) {
  emit(partition, 'C', t, component, name, argf("\"value\":%.6f", value));
}

std::size_t Tracer::size() const {
  std::size_t n = 0;
  for (const Shard& shard : shards_) n += shard.events.size();
  return n;
}

std::string Tracer::to_json() const {
  // A k-way merge of the shards on (ts, partition id): each shard is in
  // its partition's execution order, whose clock never runs backwards, so
  // the merge is the (ts, partition id, emission order) sort.
  std::vector<std::size_t> next(shards_.size(), 0);
  // A component name is one tid across shards (links of every partition
  // share "link"), assigned on first use in merged order. tids[s][c]
  // caches the tid of shard s's component c.
  std::vector<std::vector<std::size_t>> tids(shards_.size());
  for (std::size_t s = 0; s < shards_.size(); ++s) {
    tids[s].assign(shards_[s].components.size(), kNoTid);
  }
  std::vector<std::string_view> components_by_tid;
  std::string events;
  const auto head_ts = [&](std::size_t s) {
    return shards_[s].events[next[s]].ts;
  };
  for (;;) {
    // Strict '<': at equal times the lowest partition id goes first.
    std::size_t best = shards_.size();
    for (std::size_t s = 0; s < shards_.size(); ++s) {
      if (next[s] == shards_[s].events.size()) continue;
      if (best == shards_.size() || head_ts(s) < head_ts(best)) best = s;
    }
    if (best == shards_.size()) break;
    const Shard& shard = shards_[best];
    const Event& e = shard.events[next[best]++];
    std::size_t& tid = tids[best][e.component];
    if (tid == kNoTid) {
      const std::string& component = shard.components[e.component];
      tid = 0;
      while (tid < components_by_tid.size() &&
             components_by_tid[tid] != component) {
        ++tid;
      }
      if (tid == components_by_tid.size()) {
        components_by_tid.push_back(component);
      }
    }
    if (!events.empty()) events += ",\n";
    events += "{\"ph\":\"";
    events += e.ph;
    events += "\",\"pid\":0,\"tid\":";
    events += std::to_string(tid);
    events += ",\"ts\":";
    append_ts(events, e.ts);
    if (e.ph == 'I') events += ",\"s\":\"t\"";
    events += ",\"name\":\"";
    append_escaped(events, e.name);
    events += '"';
    if (!e.args.empty()) {
      events += ",\"args\":{";
      events += e.args;
      events += '}';
    }
    events += '}';
  }

  std::string out = "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n";
  // One metadata record per component names its trace "thread".
  for (std::size_t tid = 0; tid < components_by_tid.size(); ++tid) {
    if (tid > 0) out += ",\n";
    out += "{\"ph\":\"M\",\"pid\":0,\"tid\":";
    out += std::to_string(tid);
    out += ",\"name\":\"thread_name\",\"args\":{\"name\":\"";
    append_escaped(out, components_by_tid[tid]);
    out += "\"}}";
  }
  if (!events.empty()) {
    out += ",\n";
    out += events;
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
