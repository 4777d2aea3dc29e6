#include "analyze/analyze.hpp"

#include <algorithm>
#include <functional>
#include <map>
#include <optional>
#include <string>
#include <utility>

#include "analyze/redundancy.hpp"
#include "circuit/compiled.hpp"

namespace lsiq::analyze {

namespace {

using circuit::Circuit;
using circuit::Gate;
using circuit::GateId;
using circuit::GateType;
using circuit::kNoGate;

bool is_source(GateType type) noexcept {
  return type == GateType::kInput || type == GateType::kConst0 ||
         type == GateType::kConst1;
}

/// The whole analysis works on derived adjacency (consumer lists per
/// line) and its own Kahn order, because the input circuit may be
/// unfinalized — lint exists precisely for netlists finalize() rejects.
struct Topology {
  /// Consumer (gate, pin) pairs per driving line.
  std::vector<std::vector<std::pair<GateId, std::int32_t>>> readers;
  /// Kahn order over combinational edges (edges into a DFF's D pin are
  /// sequential and excluded). Complete iff acyclic.
  std::vector<GateId> order;
  bool acyclic = true;
  /// One representative combinational cycle (signal-flow order) when
  /// !acyclic.
  std::vector<GateId> cycle;
};

Topology derive_topology(const Circuit& circuit) {
  const std::size_t n = circuit.gate_count();
  Topology topo;
  topo.readers.resize(n);
  std::vector<std::uint32_t> indegree(n, 0);
  for (GateId id = 0; id < n; ++id) {
    const Gate& gate = circuit.gate(id);
    const bool sequential = gate.type == GateType::kDff;
    for (std::int32_t pin = 0;
         pin < static_cast<std::int32_t>(gate.fanin.size()); ++pin) {
      topo.readers[gate.fanin[pin]].emplace_back(id, pin);
      if (!sequential) ++indegree[id];
    }
  }

  topo.order.reserve(n);
  std::vector<GateId> frontier;
  for (GateId id = 0; id < n; ++id) {
    if (indegree[id] == 0) frontier.push_back(id);
  }
  // Pop the smallest id each round: the order (and thus every diagnostic
  // derived from it) is deterministic regardless of construction order.
  std::make_heap(frontier.begin(), frontier.end(), std::greater<>());
  while (!frontier.empty()) {
    std::pop_heap(frontier.begin(), frontier.end(), std::greater<>());
    const GateId id = frontier.back();
    frontier.pop_back();
    topo.order.push_back(id);
    for (const auto& [reader, pin] : topo.readers[id]) {
      if (circuit.gate(reader).type == GateType::kDff) continue;
      if (--indegree[reader] == 0) {
        frontier.push_back(reader);
        std::push_heap(frontier.begin(), frontier.end(), std::greater<>());
      }
    }
  }

  if (topo.order.size() == n) return topo;
  topo.acyclic = false;

  // Extract one actual cycle for the diagnostic: from the smallest
  // unresolved gate, walk fanin edges within the unresolved set (every
  // unresolved gate has one) until a gate repeats.
  std::vector<char> unresolved(n, 1);
  for (const GateId id : topo.order) unresolved[id] = 0;
  GateId start = kNoGate;
  for (GateId id = 0; id < n; ++id) {
    if (unresolved[id] != 0) {
      start = id;
      break;
    }
  }
  std::vector<GateId> path;
  std::vector<std::uint32_t> visited_at(n, 0xffffffffu);
  GateId current = start;
  while (visited_at[current] == 0xffffffffu) {
    visited_at[current] = static_cast<std::uint32_t>(path.size());
    path.push_back(current);
    GateId next = kNoGate;
    for (const GateId fanin : circuit.gate(current).fanin) {
      if (unresolved[fanin] != 0 &&
          (next == kNoGate || fanin < next)) {
        next = fanin;
      }
    }
    current = next;  // never kNoGate: unresolved gates keep indegree > 0
  }
  // path[visited_at[current]..] walks the cycle along fanin (i.e. against
  // signal flow); reverse it so the diagnostic reads driver -> reader.
  topo.cycle.assign(path.begin() + visited_at[current], path.end());
  std::reverse(topo.cycle.begin(), topo.cycle.end());
  return topo;
}

/// True when a constant on the OTHER pins of `gate` forces its output
/// regardless of pin `pin` — the propagation-blocking test used both for
/// observability and for branch-fault untestability.
bool pin_blocked(const Gate& gate, std::int32_t pin,
                 const std::vector<LineValue>& constant) {
  const bool and_like =
      gate.type == GateType::kAnd || gate.type == GateType::kNand;
  const bool or_like =
      gate.type == GateType::kOr || gate.type == GateType::kNor;
  if (!and_like && !or_like) return false;  // XOR/XNOR/BUF/NOT/DFF: never
  const LineValue controlling = and_like ? LineValue::kZero : LineValue::kOne;
  for (std::int32_t q = 0;
       q < static_cast<std::int32_t>(gate.fanin.size()); ++q) {
    if (q == pin) continue;
    if (constant[gate.fanin[q]] == controlling) return true;
  }
  return false;
}

LineValue evaluate_constant(const Gate& gate,
                            const std::vector<LineValue>& constant) {
  const auto in = [&](std::size_t pin) { return constant[gate.fanin[pin]]; };
  switch (gate.type) {
    case GateType::kInput:
    case GateType::kDff:  // scan-loadable: the tester controls it
      return LineValue::kUnknown;
    case GateType::kConst0: return LineValue::kZero;
    case GateType::kConst1: return LineValue::kOne;
    case GateType::kBuf:
      return gate.fanin.empty() ? LineValue::kUnknown : in(0);
    case GateType::kNot:
      if (gate.fanin.empty() || in(0) == LineValue::kUnknown) {
        return LineValue::kUnknown;
      }
      return in(0) == LineValue::kZero ? LineValue::kOne : LineValue::kZero;
    case GateType::kAnd:
    case GateType::kNand:
    case GateType::kOr:
    case GateType::kNor: {
      const bool and_like =
          gate.type == GateType::kAnd || gate.type == GateType::kNand;
      const LineValue controlling =
          and_like ? LineValue::kZero : LineValue::kOne;
      bool all_known = !gate.fanin.empty();
      bool controlled = false;
      for (std::size_t pin = 0; pin < gate.fanin.size(); ++pin) {
        if (in(pin) == controlling) controlled = true;
        if (in(pin) == LineValue::kUnknown) all_known = false;
      }
      if (!controlled && !all_known) return LineValue::kUnknown;
      // Controlled => controlling value out; all non-controlling => the
      // other value. Inverting types flip it.
      bool out = and_like ? !controlled : controlled;
      if (gate.type == GateType::kNand || gate.type == GateType::kNor) {
        out = !out;
      }
      return out ? LineValue::kOne : LineValue::kZero;
    }
    case GateType::kXor:
    case GateType::kXnor: {
      if (gate.fanin.empty()) return LineValue::kUnknown;
      bool parity = gate.type == GateType::kXnor;
      for (std::size_t pin = 0; pin < gate.fanin.size(); ++pin) {
        if (in(pin) == LineValue::kUnknown) return LineValue::kUnknown;
        parity ^= in(pin) == LineValue::kOne;
      }
      return parity ? LineValue::kOne : LineValue::kZero;
    }
  }
  return LineValue::kUnknown;
}

/// Diagnostic sink with the per-rule cap: findings beyond
/// Options::max_per_rule collapse into one trailing summary per rule.
class Emitter {
 public:
  Emitter(const Options& options, std::vector<Diagnostic>* out)
      : options_(options), out_(out) {}

  void emit(Rule rule, GateId gate, std::string object,
            std::string message) {
    const Policy policy = options_.policy(rule_class(rule));
    if (policy == Policy::kOff) return;
    const std::size_t count = ++counts_[rule];
    if (count > options_.max_per_rule) return;
    out_->push_back(Diagnostic{rule, policy, gate, std::move(object),
                               std::move(message)});
  }

  /// Append the "... and N more" summaries for every overflowing rule.
  void finish() {
    for (const auto& [rule, count] : counts_) {
      if (count <= options_.max_per_rule) continue;
      const Policy policy = options_.policy(rule_class(rule));
      out_->push_back(Diagnostic{
          rule, policy, kNoGate, "",
          std::to_string(count - options_.max_per_rule) + " more " +
              std::string(rule_name(rule)) + " finding" +
              (count - options_.max_per_rule == 1 ? "" : "s") +
              " suppressed (" + std::to_string(count) + " total)"});
    }
  }

 private:
  const Options& options_;
  std::vector<Diagnostic>* out_;
  std::map<Rule, std::size_t> counts_;
};

std::string value_text(LineValue value) {
  return value == LineValue::kOne ? "1" : "0";
}

}  // namespace

Report analyze(const Circuit& circuit, const Options& options) {
  std::optional<RedundancyReport> proof;
  return analyze(circuit, options, [&]() -> const RedundancyReport& {
    proof = prove_redundancies(circuit::CompiledCircuit(circuit));
    return *proof;
  });
}

Report analyze(const Circuit& circuit, const Options& options,
               const ProofSource& proof) {
  Report report;
  Emitter emit(options, &report.diagnostics);
  const std::size_t n = circuit.gate_count();

  // ---- structure: the checks that decide whether analysis can proceed ----
  const Topology topo = derive_topology(circuit);
  if (!topo.acyclic) {
    std::string path;
    for (const GateId id : topo.cycle) {
      path += circuit.gate(id).name;
      path += " -> ";
    }
    path += circuit.gate(topo.cycle.front()).name;
    emit.emit(Rule::kCycle, topo.cycle.front(),
              circuit.gate(topo.cycle.front()).name,
              "combinational cycle: " + path);
    report.structure_ok = false;
  }

  bool has_pattern_input = false;
  for (GateId id = 0; id < n; ++id) {
    const Gate& gate = circuit.gate(id);
    if (gate.type == GateType::kInput || gate.type == GateType::kDff) {
      has_pattern_input = true;
    }
    if (gate.type == GateType::kDff && gate.fanin.empty()) {
      emit.emit(Rule::kUnconnectedDff, id, gate.name,
                "flip-flop D input was never connected (connect_dff)");
      report.structure_ok = false;
    }
    if (!is_source(gate.type) && gate.type != GateType::kDff &&
        gate.fanin.empty()) {
      emit.emit(Rule::kFloatingGate, id, gate.name,
                std::string(circuit::gate_type_name(gate.type)) +
                    " gate has no fanin (undriven net)");
      report.structure_ok = false;
    }
  }
  if (!has_pattern_input && n > 0) {
    emit.emit(Rule::kNoPatternInput, kNoGate, circuit.name(),
              "circuit has no primary input and no flip-flop: nothing is "
              "controllable");
    report.structure_ok = false;
  }

  // The observed set under the full-scan model: primary outputs plus
  // every flip-flop's D driver (derived here, not via observed_points(),
  // which requires a finalized circuit).
  std::vector<char> observed(n, 0);
  bool any_observed = false;
  for (const GateId id : circuit.primary_outputs()) {
    observed[id] = 1;
    any_observed = true;
  }
  for (const GateId id : circuit.flip_flops()) {
    const Gate& dff = circuit.gate(id);
    if (!dff.fanin.empty()) {
      observed[dff.fanin[0]] = 1;
      any_observed = true;
    }
  }
  if (!any_observed && n > 0) {
    emit.emit(Rule::kNoObservedOutput, kNoGate, circuit.name(),
              "circuit has no primary output and no flip-flop D input: "
              "nothing is observable");
    report.structure_ok = false;
  }

  if (!report.structure_ok) {
    // No usable topological order (or no I/O at all): the value/flow
    // analyses below would report nonsense on top of real damage.
    emit.finish();
    sort_diagnostics(report.diagnostics);
    return report;
  }

  // ---- constant propagation (forward, in topological order) ----
  report.constant.assign(n, LineValue::kUnknown);
  for (const GateId id : topo.order) {
    report.constant[id] = evaluate_constant(circuit.gate(id), report.constant);
  }
  for (const GateId id : topo.order) {
    const Gate& gate = circuit.gate(id);
    if (is_source(gate.type)) continue;  // Const0/Const1 are constant by design
    if (report.constant[id] == LineValue::kUnknown) continue;
    emit.emit(Rule::kConstantLine, id, gate.name,
              "line is constant " + value_text(report.constant[id]) +
                  " under every input (tied constants reach it)");
  }

  // ---- observability (backward, in reverse topological order) ----
  report.observable.assign(n, 0);
  for (auto it = topo.order.rbegin(); it != topo.order.rend(); ++it) {
    const GateId id = *it;
    if (observed[id] != 0) {
      report.observable[id] = 1;
      continue;
    }
    for (const auto& [reader, pin] : topo.readers[id]) {
      const Gate& consumer = circuit.gate(reader);
      // A DFF reader means `id` is its D driver, already in the observed
      // seed; this loop only decides propagation through logic.
      if (consumer.type == GateType::kDff) continue;
      if (report.observable[reader] != 0 &&
          !pin_blocked(consumer, pin, report.constant)) {
        report.observable[id] = 1;
        break;
      }
    }
  }

  // The backward pass treats ANY controlling constant on a sibling pin
  // as blocking — too strong when the sibling lies inside the flagged
  // gate's own fanout cone, where its faulty value need not equal the
  // constant good value (two effect-carrying inputs can still produce a
  // differing output). Re-check every flagged gate with the cone guard:
  // a sibling constant blocks only from OUTSIDE the fault cone, where
  // good and faulty values provably coincide. Guarded reach is a
  // superset of the unguarded pass, so gates already marked observable
  // never need the (per-gate O(E)) recheck.
  {
    std::vector<char> cone(n, 0);
    std::vector<char> reach(n, 0);
    std::vector<GateId> stack;
    for (const GateId source : topo.order) {
      if (report.observable[source] != 0) continue;
      if (topo.readers[source].empty()) continue;  // dangling: stays flagged
      std::fill(cone.begin(), cone.end(), 0);
      std::fill(reach.begin(), reach.end(), 0);
      stack.assign(1, source);
      cone[source] = 1;
      while (!stack.empty()) {
        const GateId id = stack.back();
        stack.pop_back();
        for (const auto& [reader, pin] : topo.readers[id]) {
          if (circuit.gate(reader).type == GateType::kDff) continue;
          if (cone[reader] != 0) continue;
          cone[reader] = 1;
          stack.push_back(reader);
        }
      }
      stack.assign(1, source);
      reach[source] = 1;
      bool hit = observed[source] != 0;
      while (!hit && !stack.empty()) {
        const GateId id = stack.back();
        stack.pop_back();
        for (const auto& [reader, pin] : topo.readers[id]) {
          const Gate& consumer = circuit.gate(reader);
          if (consumer.type == GateType::kDff) continue;
          if (reach[reader] != 0) continue;
          const bool and_like = consumer.type == GateType::kAnd ||
                                consumer.type == GateType::kNand;
          const bool or_like = consumer.type == GateType::kOr ||
                               consumer.type == GateType::kNor;
          bool blocked = false;
          if (and_like || or_like) {
            const LineValue controlling =
                and_like ? LineValue::kZero : LineValue::kOne;
            for (std::int32_t q = 0;
                 q < static_cast<std::int32_t>(consumer.fanin.size()); ++q) {
              if (q == pin) continue;
              const GateId sibling = consumer.fanin[q];
              if (report.constant[sibling] == controlling &&
                  cone[sibling] == 0) {
                blocked = true;
                break;
              }
            }
          }
          if (blocked) continue;
          reach[reader] = 1;
          if (observed[reader] != 0) {
            hit = true;
            break;
          }
          stack.push_back(reader);
        }
      }
      if (hit) report.observable[source] = 1;
    }
  }

  for (const GateId id : topo.order) {
    const Gate& gate = circuit.gate(id);
    if (report.observable[id] != 0) continue;
    if (gate.type == GateType::kInput && topo.readers[id].empty()) {
      emit.emit(Rule::kUnusedInput, id, gate.name,
                "primary input drives nothing");
    } else if (topo.readers[id].empty()) {
      emit.emit(Rule::kDanglingGate, id, gate.name,
                "gate output drives nothing and is not observed");
    } else {
      emit.emit(Rule::kUnobservableGate, id, gate.name,
                "no path to an observed point (every route is dead or "
                "blocked by constants)");
    }
  }

  // ---- statically untestable stuck-at sites ----
  // Enumerated in FaultList site order (stems first, then pins, per gate)
  // so the cross-check against a collapsed universe is a plain walk.
  for (GateId id = 0; id < n; ++id) {
    const Gate& gate = circuit.gate(id);
    const bool site_observable = report.observable[id] != 0;
    for (const bool stuck_at_one : {false, true}) {
      const LineValue stuck =
          stuck_at_one ? LineValue::kOne : LineValue::kZero;
      const char* reason = nullptr;
      if (report.constant[id] == stuck) {
        reason = "the line already holds the stuck value on every pattern";
      } else if (!site_observable) {
        reason = "the fault effect cannot reach an observed point";
      }
      if (reason == nullptr) continue;
      const fault::Fault fault{id, -1, stuck_at_one};
      report.untestable_sites.push_back(fault);
      emit.emit(Rule::kUntestableFault, id,
                fault::fault_name(circuit, fault),
                std::string("statically untestable: ") + reason);
    }
    for (std::int32_t pin = 0;
         pin < static_cast<std::int32_t>(gate.fanin.size()); ++pin) {
      const GateId driver = gate.fanin[pin];
      // A DFF's D pin is itself an observed point; only activation can
      // fail there. Everywhere else the branch is dead if the pin is
      // blocked or the gate output is unobservable.
      const bool branch_observable =
          gate.type == GateType::kDff ||
          (site_observable && !pin_blocked(gate, pin, report.constant));
      for (const bool stuck_at_one : {false, true}) {
        const LineValue stuck =
            stuck_at_one ? LineValue::kOne : LineValue::kZero;
        const char* reason = nullptr;
        if (report.constant[driver] == stuck) {
          reason = "the driving line already holds the stuck value on "
                   "every pattern";
        } else if (!branch_observable) {
          reason = "the fault effect cannot reach an observed point";
        }
        if (reason == nullptr) continue;
        const fault::Fault fault{id, pin, stuck_at_one};
        report.untestable_sites.push_back(fault);
        emit.emit(Rule::kUntestableFault, id,
                  fault::fault_name(circuit, fault),
                  std::string("statically untestable: ") + reason);
      }
    }
  }

  // ---- implication-prover redundancies (finalized circuits only) ----
  // The structural verdicts above come from tied constants alone; the
  // implication engine adds implied constants, necessary-assignment
  // conflicts and FIRE stem conflicts — the reconvergent redundancies a
  // forward/backward sweep cannot see. Only finalized circuits can be
  // compiled, and the prover only runs when its class is enabled.
  if (circuit.finalized() &&
      options.policy(RuleClass::kUntestable) != Policy::kOff) {
    const RedundancyReport& redundancy = proof();
    std::vector<fault::Fault> merged;
    merged.reserve(report.untestable_sites.size() + redundancy.sites.size());
    report.implication_sites.reserve(redundancy.sites.size());
    auto structural = report.untestable_sites.begin();
    for (const RedundantSite& site : redundancy.sites) {
      report.implication_sites.push_back(site.fault);
      while (structural != report.untestable_sites.end() &&
             *structural < site.fault) {
        merged.push_back(*structural++);
      }
      if (structural != report.untestable_sites.end() &&
          *structural == site.fault) {
        merged.push_back(*structural++);  // already proven structurally
        continue;
      }
      merged.push_back(site.fault);
      std::string message = "statically untestable: ";
      switch (site.reason) {
        case RedundancyReason::kActivationConstant:
          message += "an implied constant holds the stuck value on every "
                     "pattern";
          break;
        case RedundancyReason::kUnobservable:
          message += "no propagation path reaches an observed point";
          break;
        case RedundancyReason::kNecessaryConflict:
          message += "necessary assignments conflict on line '" +
                     circuit.gate(site.witness).name + "'";
          break;
        case RedundancyReason::kStemConflict:
          message += "detection needs stem '" +
                     circuit.gate(site.witness).name +
                     "' at 0 and 1 at once (FIRE)";
          break;
      }
      emit.emit(Rule::kUntestableImplication, site.fault.gate,
                fault::fault_name(circuit, site.fault), std::move(message));
    }
    merged.insert(merged.end(), structural, report.untestable_sites.end());
    report.untestable_sites = std::move(merged);
  }

  emit.finish();
  sort_diagnostics(report.diagnostics);
  return report;
}

}  // namespace lsiq::analyze
