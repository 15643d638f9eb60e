#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <optional>
#include <utility>
#include <vector>

#include "net/addresses.hpp"
#include "net/packet.hpp"
#include "sim/contract.hpp"

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

/// The L2 rule for a destination MAC at one switch, or nothing (a miss).
/// Shaped like net::PortOracle: the switch may call it from its own
/// partition, so it may only read immutable state.
using MacOracle =
    std::function<std::optional<RuleActions>(net::MacAddress dst)>;

/// The switch's match-action state: an L2 table (destination MAC, the PAST
/// routing state) plus a higher-priority exact-match flow table (5-tuple,
/// the OpenFlow reroute rules). Real switches use TCAMs; exact-match
/// lookups give identical semantics for this workload.
///
/// The L2 program is a pure function of (switch, destination, tree), so
/// the table asks a MacOracle (the routing closed form) for any MAC
/// without an explicit entry. Explicit entries override it: set_mac_rule
/// installs one, erase_mac_rule leaves an empty one that hides the
/// oracle's rule. Unit tests and perfbench's forwarding kernel use them.
///
/// A controller-versioned route program for epoch E (DESIGN.md §10) is
/// held as an ordered list of flow-rule edits, none of which the data
/// plane sees. commit_staged(E) applies the whole list in one call, so no
/// event — and therefore no packet — runs between two of its edits: a
/// partially-installed program is never served. The paper's rule-by-rule
/// TCAM updates are the transient-loop hazard this removes.
///
/// The direct mutators (set_mac_rule, set_flow_rule, ...) write the live
/// tables in place. They model out-of-band configuration (testbed setup,
/// unit tests); the MAC program sits outside every route program, like
/// flash config, so a direct MAC write made while a program is staged
/// survives its commit. The controller's runtime updates go through
/// staging.
class RuleTable {
 public:
  /// Answers every MAC without an explicit entry (unset: misses).
  void set_mac_oracle(MacOracle oracle) { mac_oracle_ = std::move(oracle); }

  /// Installs/overwrites the L2 entry for `dst`, overriding the oracle.
  void set_mac_rule(net::MacAddress dst, RuleActions actions) {
    mac_table_[dst] = actions;
  }
  /// Removes the L2 rule for `dst`, the oracle's included: false when
  /// there was none.
  bool erase_mac_rule(net::MacAddress dst) {
    if (!find_mac(dst)) return false;
    mac_table_[dst] = std::nullopt;
    return true;
  }

  /// Installs/overwrites the flow entry for `key` (higher priority than
  /// any MAC entry).
  void set_flow_rule(const net::FlowKey& key, RuleActions actions) {
    flow_table_[key] = actions;
  }
  /// Drops every 5-tuple reroute rule (controller soft state lost in a
  /// switch crash; the MAC program is config restored from flash).
  void clear_flow_rules() { flow_table_.clear(); }

  std::optional<RuleActions> find_mac(net::MacAddress dst) const {
    if (!mac_table_.empty()) {
      const auto it = mac_table_.find(dst);
      if (it != mac_table_.end()) return it->second;
    }
    if (mac_oracle_) return mac_oracle_(dst);
    return std::nullopt;
  }
  const RuleActions* find_flow(const net::FlowKey& key) const {
    const auto it = flow_table_.find(key);
    return it == flow_table_.end() ? nullptr : &it->second;
  }

  std::size_t flow_rule_count() const { return flow_table_.size(); }

  // --- epoch'd route programs (DESIGN.md §10) ----------------------------
  /// Opens an empty edit list for `epoch`'s route program. Returns false
  /// when the program is stale: `epoch` is not newer than the committed
  /// epoch, or a newer epoch is already being staged (newest wins — the
  /// loser's commit then fails and its controller falls back to
  /// last-good). Re-staging the epoch already open is an idempotent no-op
  /// (at-least-once RPC delivery).
  bool begin_staging(std::uint64_t epoch) {
    if (epoch <= committed_epoch_) return false;
    if (staged_epoch_ == epoch) return true;  // duplicate delivery
    if (staged_epoch_ > epoch) return false;  // a newer program is staged
    edits_.clear();
    staged_epoch_ = epoch;
    return true;
  }

  /// Appends a flow-rule edit (`actions` empty: erase) to the program
  /// being staged. Callers must hold an open staging for `epoch`
  /// (checked; stale writes are dropped).
  bool stage_flow_rule(std::uint64_t epoch, const net::FlowKey& key,
                       std::optional<RuleActions> actions) {
    if (!staging() || staged_epoch_ != epoch) return false;
    edits_.push_back(FlowEdit{key, actions});
    return true;
  }

  /// Applies the staged edits in order, all in this one call. Returns
  /// false unless `epoch` is exactly the staged program; a duplicate
  /// commit of the already-committed epoch reports success idempotently.
  bool commit_staged(std::uint64_t epoch) {
    if (committed_epoch_ == epoch) return true;  // duplicate delivery
    if (!staging() || staged_epoch_ != epoch) return false;
    PLANCK_CONTRACT(epoch > committed_epoch_,
                    "per-switch epoch monotonicity: a committed route "
                    "program's epoch must exceed its predecessor's");
    for (const FlowEdit& edit : edits_) {
      if (edit.actions) {
        flow_table_[edit.key] = *edit.actions;
      } else {
        flow_table_.erase(edit.key);
      }
    }
    committed_epoch_ = epoch;
    discard_staging();
    return true;
  }

  /// Unconditionally discards whatever is staged (switch crash: staging
  /// lives in DRAM, only committed rules survive).
  void discard_staging() {
    edits_.clear();
    staged_epoch_ = 0;
  }

  bool staging() const { return staged_epoch_ != 0; }
  std::uint64_t staged_epoch() const { return staged_epoch_; }
  std::uint64_t committed_epoch() const { return committed_epoch_; }

 private:
  /// One staged flow-rule edit: install `actions` for `key`, or erase the
  /// rule when `actions` is empty.
  struct FlowEdit {
    net::FlowKey key;
    std::optional<RuleActions> actions;
  };

  // Single-writer by design: rule churn comes only from the owning
  // switch's control-plane callbacks on its partition.
  /// Explicit L2 entries; an empty one hides the oracle's rule.
  std::map<net::MacAddress, std::optional<RuleActions>> mac_table_;
  MacOracle mac_oracle_;
  std::map<net::FlowKey, RuleActions> flow_table_;
  /// The open program's edits in arrival order; empty when none is open.
  std::vector<FlowEdit> edits_;
  /// 0 while no program is open (committed epochs start at 1).
  std::uint64_t staged_epoch_ = 0;
  std::uint64_t committed_epoch_ = 0;
};

}  // namespace planck::switchsim
