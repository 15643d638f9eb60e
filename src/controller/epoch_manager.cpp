#include "controller/epoch_manager.hpp"

#include <algorithm>

#include "obs/obs.hpp"

namespace planck::controller {

EpochManager::FlowRecord* EpochManager::find(const net::FlowKey& key) {
  const auto it = flows_.find(key);
  return it == flows_.end() ? nullptr : &it->second;
}

const EpochManager::FlowRecord* EpochManager::find(
    const net::FlowKey& key) const {
  const auto it = flows_.find(key);
  return it == flows_.end() ? nullptr : &it->second;
}

std::uint64_t EpochManager::open(const net::FlowKey& key, int tree,
                                 int fallback_tree) {
  auto [it, inserted] = flows_.try_emplace(key);
  FlowRecord& rec = it->second;
  if (inserted) rec.committed_tree = fallback_tree;
  const std::uint64_t epoch = next_epoch_++;
  rec.newest = epoch;
  rec.in_flight.push_back(Pending{epoch, tree});
  ++opened_;
  PLANCK_TRACE_ARGS(sim_, "controller.epochs", "open",
                    obs::argf("\"epoch\":%llu,\"tree\":%d",
                              static_cast<unsigned long long>(epoch), tree));
  return epoch;
}

bool EpochManager::begin_apply(const net::FlowKey& key, std::uint64_t epoch) {
  const FlowRecord* rec = find(key);
  if (rec != nullptr && epoch == rec->newest) return true;
  ++stale_applies_;
  return false;
}

bool EpochManager::commit(const net::FlowKey& key, std::uint64_t epoch) {
  FlowRecord* rec = find(key);
  if (rec == nullptr) return false;
  int tree = rec->committed_tree;
  const auto it = std::find_if(
      rec->in_flight.begin(), rec->in_flight.end(),
      [epoch](const Pending& p) { return p.epoch == epoch; });
  if (it != rec->in_flight.end()) {
    tree = it->tree;
    rec->in_flight.erase(it);
  }
  if (epoch > rec->committed) {
    rec->committed = epoch;
    rec->committed_tree = tree;
  }
  ++committed_;
  const bool newest = epoch == rec->newest;
  if (!newest) ++stale_commits_;
  PLANCK_TRACE_ARGS(
      sim_, "controller.epochs", newest ? "commit" : "stale_commit",
      obs::argf("\"epoch\":%llu", static_cast<unsigned long long>(epoch)));
  return newest;
}

std::optional<int> EpochManager::rollback(const net::FlowKey& key,
                                          std::uint64_t epoch) {
  FlowRecord* rec = find(key);
  if (rec == nullptr) return std::nullopt;
  const auto it = std::find_if(
      rec->in_flight.begin(), rec->in_flight.end(),
      [epoch](const Pending& p) { return p.epoch == epoch; });
  if (it != rec->in_flight.end()) rec->in_flight.erase(it);
  if (epoch != rec->newest) return std::nullopt;

  // The failed program was the flow's newest: the optimistic assignment
  // points at a tree the data plane never got. Regress to the best
  // surviving program — a still-in-flight newer-than-committed attempt,
  // else the last-good.
  const Pending* best = nullptr;
  for (const Pending& p : rec->in_flight) {
    if (best == nullptr || p.epoch > best->epoch) best = &p;
  }
  ++fallbacks_;
  if (best != nullptr && best->epoch > rec->committed) {
    rec->newest = best->epoch;
    PLANCK_TRACE_ARGS(
        sim_, "controller.epochs", "fallback_in_flight",
        obs::argf("\"failed\":%llu,\"to\":%llu",
                  static_cast<unsigned long long>(epoch),
                  static_cast<unsigned long long>(best->epoch)));
    return best->tree;
  }
  rec->newest = rec->committed;
  PLANCK_TRACE_ARGS(
      sim_, "controller.epochs", "fallback_last_good",
      obs::argf("\"failed\":%llu,\"to\":%llu,\"tree\":%d",
                static_cast<unsigned long long>(epoch),
                static_cast<unsigned long long>(rec->committed),
                rec->committed_tree));
  return rec->committed_tree;
}

int EpochManager::FlowRecord::tree() const {
  for (const Pending& p : in_flight) {
    if (p.epoch == newest) return p.tree;
  }
  return committed_tree;
}

int EpochManager::tree_of(const net::FlowKey& key) const {
  const FlowRecord* rec = find(key);
  return rec == nullptr ? 0 : rec->tree();
}

std::map<net::FlowKey, int> EpochManager::trees() const {
  std::map<net::FlowKey, int> out;
  for (const auto& [key, rec] : flows_) {
    out.emplace_hint(out.end(), key, rec.tree());
  }
  return out;
}

bool EpochManager::in_flight(const net::FlowKey& key) const {
  const FlowRecord* rec = find(key);
  return rec != nullptr && !rec->in_flight.empty();
}

std::uint64_t EpochManager::newest_epoch(const net::FlowKey& key) const {
  const FlowRecord* rec = find(key);
  return rec == nullptr ? 0 : rec->newest;
}

}  // namespace planck::controller
