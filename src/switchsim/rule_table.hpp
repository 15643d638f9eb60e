#pragma once

#include <cstdint>
#include <optional>
#include <unordered_map>

#include "net/addresses.hpp"
#include "net/packet.hpp"
#include "sim/contract.hpp"
#include "sim/units.hpp"

namespace planck::switchsim {

/// Forwarding actions attached to a rule.
struct RuleActions {
  /// Output port. For flow (reroute) rules this may be unset, in which case
  /// the switch re-resolves the output from the (possibly rewritten)
  /// destination MAC — the OpenFlow set-field + goto-table idiom the paper
  /// relies on at ingress switches.
  std::optional<int> out_port;
  /// Rewrite the destination MAC (shadow-MAC reroute at ingress, restore to
  /// base MAC at the egress switch, §6.2).
  std::optional<net::MacAddress> set_dst_mac;
};

/// Byte/packet counters, pollable by measurement baselines (§2.3: the
/// "flow counters" that Hedera/DevoFlow-style systems read).
struct RuleCounters {
  sim::Packets packets{0};
  sim::Bytes bytes{0};
};

/// The switch's match-action state: an exact-match L2 table (destination
/// MAC, the PAST routing state) plus a higher-priority exact-match flow
/// table (5-tuple, the OpenFlow reroute rules). Real switches use TCAMs;
/// exact-match hash tables give identical semantics for this workload.
///
/// The tables are double-banked (DESIGN.md §10): the data plane always
/// reads the *active* bank, while a controller-versioned route program for
/// epoch E is assembled in the *staging* bank (a copy of the active one).
/// commit_staged(E) flips the banks atomically, so a partially-installed
/// program is never served — the paper's rule-by-rule TCAM updates are the
/// transient-loop hazard this removes.
///
/// The direct mutators (set_mac_rule, set_flow_rule, ...) write the active
/// bank in place. They model out-of-band configuration (testbed setup,
/// unit tests); the controller's runtime updates go through staging.
class RuleTable {
 public:
  struct MacEntry {
    RuleActions actions;
    RuleCounters counters;
  };
  struct FlowEntry {
    RuleActions actions;
    RuleCounters counters;
  };

  /// Installs/overwrites the L2 entry for `dst`.
  void set_mac_rule(net::MacAddress dst, RuleActions actions) {
    active().mac_table[dst].actions = actions;
  }
  bool erase_mac_rule(net::MacAddress dst) {
    return active().mac_table.erase(dst) > 0;
  }

  /// Installs/overwrites the flow entry for `key` (higher priority than
  /// any MAC entry).
  void set_flow_rule(const net::FlowKey& key, RuleActions actions) {
    active().flow_table[key].actions = actions;
  }
  bool erase_flow_rule(const net::FlowKey& key) {
    return active().flow_table.erase(key) > 0;
  }
  /// Drops every 5-tuple reroute rule (controller soft state lost in a
  /// switch crash; the MAC program is config restored from flash).
  void clear_flow_rules() { active().flow_table.clear(); }

  MacEntry* find_mac(net::MacAddress dst) {
    auto& table = active().mac_table;
    const auto it = table.find(dst);
    return it == table.end() ? nullptr : &it->second;
  }
  FlowEntry* find_flow(const net::FlowKey& key) {
    auto& table = active().flow_table;
    const auto it = table.find(key);
    return it == table.end() ? nullptr : &it->second;
  }
  const MacEntry* find_mac(net::MacAddress dst) const {
    const auto& table = active().mac_table;
    const auto it = table.find(dst);
    return it == table.end() ? nullptr : &it->second;
  }
  const FlowEntry* find_flow(const net::FlowKey& key) const {
    const auto& table = active().flow_table;
    const auto it = table.find(key);
    return it == table.end() ? nullptr : &it->second;
  }

  std::size_t mac_rule_count() const { return active().mac_table.size(); }
  std::size_t flow_rule_count() const { return active().flow_table.size(); }

  const std::unordered_map<net::FlowKey, FlowEntry, net::FlowKeyHash>&
  flow_table() const {
    return active().flow_table;
  }
  const std::unordered_map<net::MacAddress, MacEntry>& mac_table() const {
    return active().mac_table;
  }

  // --- epoch'd route programs (DESIGN.md §10) ----------------------------
  /// Opens the staging bank for `epoch`'s route program, seeding it with a
  /// copy of the active bank. Returns false when the program is stale:
  /// `epoch` is not newer than the committed epoch, or a newer epoch is
  /// already being staged (newest wins — the loser's commit then fails and
  /// its controller falls back to last-good). Re-staging the epoch already
  /// open is an idempotent no-op (at-least-once RPC delivery).
  bool begin_staging(std::uint64_t epoch) {
    if (epoch <= committed_epoch_) return false;
    if (staging_) {
      if (staged_epoch_ == epoch) return true;  // duplicate delivery
      if (staged_epoch_ > epoch) return false;  // a newer program is staged
    }
    banks_[1 - active_] = banks_[active_];
    staging_ = true;
    staged_epoch_ = epoch;
    return true;
  }

  /// Mutators for the program being staged. Callers must hold an open
  /// staging for `epoch` (checked; stale writes are dropped).
  bool stage_flow_rule(std::uint64_t epoch, const net::FlowKey& key,
                       RuleActions actions) {
    if (!staging_ || staged_epoch_ != epoch) return false;
    staged().flow_table[key].actions = actions;
    return true;
  }
  bool stage_flow_erase(std::uint64_t epoch, const net::FlowKey& key) {
    if (!staging_ || staged_epoch_ != epoch) return false;
    staged().flow_table.erase(key);
    return true;
  }

  /// Atomically flips the staged program live. Returns false (no flip)
  /// unless `epoch` is exactly the staged program; a duplicate commit of
  /// the already-committed epoch reports success idempotently.
  bool commit_staged(std::uint64_t epoch) {
    if (committed_epoch_ == epoch) return true;  // duplicate delivery
    if (!staging_ || staged_epoch_ != epoch) return false;
    PLANCK_CONTRACT(epoch > committed_epoch_,
                    "per-switch epoch monotonicity: a committed route "
                    "program's epoch must exceed its predecessor's");
    active_ = 1 - active_;
    committed_epoch_ = epoch;
    staging_ = false;
    staged_epoch_ = 0;
    return true;
  }

  /// Unconditionally discards whatever is staged (switch crash: staging
  /// lives in DRAM, only committed banks survive like flash config).
  void discard_staging() {
    staging_ = false;
    staged_epoch_ = 0;
  }

  bool staging() const { return staging_; }
  std::uint64_t staged_epoch() const { return staging_ ? staged_epoch_ : 0; }
  std::uint64_t committed_epoch() const { return committed_epoch_; }

 private:
  // Single-writer by design: rule churn comes only from the owning
  // switch's control-plane callbacks on its partition.
  struct Bank {
    std::unordered_map<net::MacAddress, MacEntry> mac_table;
    std::unordered_map<net::FlowKey, FlowEntry, net::FlowKeyHash> flow_table;
  };

  Bank& active() { return banks_[active_]; }
  const Bank& active() const { return banks_[active_]; }
  Bank& staged() { return banks_[1 - active_]; }

  Bank banks_[2];
  int active_ = 0;
  bool staging_ = false;
  std::uint64_t staged_epoch_ = 0;
  std::uint64_t committed_epoch_ = 0;
};

}  // namespace planck::switchsim
