#include "analyze/redundancy.hpp"

#include <cstddef>

#include "circuit/compiled.hpp"
#include "sim/logic_value.hpp"

namespace lsiq::analyze {

namespace {

using circuit::GateId;
using circuit::GateType;
using circuit::kNoGate;
using sim::Tri;

constexpr std::uint32_t kNoStamp = 0xffffffffu;

}  // namespace

const char* redundancy_reason_name(RedundancyReason reason) {
  switch (reason) {
    case RedundancyReason::kActivationConstant:
      return "activation";
    case RedundancyReason::kUnobservable:
      return "observability";
    case RedundancyReason::kNecessaryConflict:
      return "necessary-conflict";
    case RedundancyReason::kStemConflict:
      return "stem-conflict";
  }
  return "?";
}

RedundancyReport identify_redundancies(const ImplicationEngine& engine) {
  const circuit::CompiledCircuit& compiled = engine.compiled();
  const GateId n = static_cast<GateId>(compiled.node_count());

  // ---- enumerate every stuck-at site in FaultList site order ----
  std::vector<fault::Fault> faults;
  for (GateId id = 0; id < n; ++id) {
    for (const bool stuck_at_one : {false, true}) {
      faults.push_back(fault::Fault{id, -1, stuck_at_one});
    }
    const std::int32_t pins =
        static_cast<std::int32_t>(compiled.fanin_count(id));
    for (std::int32_t pin = 0; pin < pins; ++pin) {
      for (const bool stuck_at_one : {false, true}) {
        faults.push_back(fault::Fault{id, pin, stuck_at_one});
      }
    }
  }

  const std::size_t fault_count = faults.size();
  std::vector<char> redundant(fault_count, 0);
  std::vector<RedundancyReason> reason(fault_count,
                                       RedundancyReason::kActivationConstant);
  std::vector<GateId> witness(fault_count, kNoGate);

  // ---- cheap provers + necessary-seed collection for FIRE ----
  // The inverted index maps a KILLING literal (the negation of some
  // fault's necessary assignment) to the faults it kills: when a stem
  // closure forces that literal, those faults cannot be detected while
  // the stem holds that value. Its (literal, fault) pairs are collected
  // in fault order, then laid out in CSR form below.
  struct Kill {
    Literal literal;
    std::uint32_t fault;
  };
  std::vector<Kill> kills;
  std::vector<Literal> seeds;  // one buffer for every fault's seeds
  for (std::size_t i = 0; i < fault_count; ++i) {
    const fault::Fault& fault = faults[i];
    const GateId line = fault::fault_line(compiled, fault);
    const LineValue stuck =
        fault.stuck_at_one ? LineValue::kOne : LineValue::kZero;
    if (engine.constant(line) == stuck) {
      redundant[i] = 1;
      reason[i] = RedundancyReason::kActivationConstant;
      continue;
    }
    const bool captured = !fault::is_stem(fault) &&
                          compiled.type(fault.gate) == GateType::kDff;
    if (!captured && !engine.reaches_observed(fault.gate)) {
      redundant[i] = 1;
      reason[i] = RedundancyReason::kUnobservable;
      continue;
    }
    engine.necessary_seeds(fault, seeds);
    // Seed-level conflicts: two opposite literals on one line (sorted
    // seeds put them adjacent), or a literal an implied constant forbids.
    bool conflicted = false;
    for (std::size_t s = 0; s < seeds.size() && !conflicted; ++s) {
      const GateId seed_line = literal_line(seeds[s]);
      if (s + 1 < seeds.size() && literal_line(seeds[s + 1]) == seed_line) {
        conflicted = true;
        witness[i] = seed_line;
        break;
      }
      const LineValue required =
          literal_one(seeds[s]) ? LineValue::kOne : LineValue::kZero;
      const LineValue constant = engine.constant(seed_line);
      if (constant != LineValue::kUnknown && constant != required) {
        conflicted = true;
        witness[i] = seed_line;
      }
    }
    if (conflicted) {
      redundant[i] = 1;
      reason[i] = RedundancyReason::kNecessaryConflict;
      continue;
    }
    for (const Literal seed : seeds) {
      kills.push_back(Kill{literal_not(seed), static_cast<std::uint32_t>(i)});
    }
  }
  // One stable counting pass: literal L kills
  // killed_by[killed_offset[L] .. killed_offset[L + 1]), in fault order.
  const std::size_t literal_count = 2 * std::size_t{n};
  std::vector<std::uint32_t> killed_offset(literal_count + 1, 0);
  for (const Kill& kill : kills) ++killed_offset[kill.literal + 1];
  for (std::size_t lit = 0; lit < literal_count; ++lit) {
    killed_offset[lit + 1] += killed_offset[lit];
  }
  std::vector<std::uint32_t> killed_by(kills.size());
  std::vector<std::uint32_t> cursor(killed_offset.begin(),
                                    killed_offset.end() - 1);
  for (const Kill& kill : kills) killed_by[cursor[kill.literal]++] = kill.fault;

  // ---- FIRE: per-stem conflict sets ----
  // For each fanout stem s and polarity v, the closure of s = v kills the
  // faults whose necessary assignments it negates. A fault killed under
  // BOTH polarities needs s = 0 and s = 1 at once: redundant.
  // The closure of each stem literal is read off the probe's trail: the
  // lines it set beyond the implied constants, in propagation order.
  std::vector<std::uint32_t> killed_zero(fault_count, kNoStamp);
  std::vector<std::uint32_t> killed_one(fault_count, kNoStamp);
  ImplicationEngine::Probe probe = engine.make_probe();
  std::vector<std::uint32_t> hit;  // faults killed under the current stem
  for (GateId stem = 0; stem < n; ++stem) {
    if (compiled.fanout_count(stem) < 2) continue;
    if (engine.constant(stem) != LineValue::kUnknown) continue;
    hit.clear();
    bool closed_both = true;
    for (const bool one : {false, true}) {
      const Literal lit = make_literal(stem, one);
      if (!engine.assume(probe, {&lit, 1})) {
        engine.restore(probe);
        closed_both = false;  // implied constant the round cap missed
        break;
      }
      std::vector<std::uint32_t>& killed = one ? killed_one : killed_zero;
      for (const GateId line : probe.trail) {
        const Literal forced =
            make_literal(line, probe.values[line] == Tri::kOne);
        for (std::uint32_t k = killed_offset[forced];
             k < killed_offset[forced + 1]; ++k) {
          const std::uint32_t index = killed_by[k];
          if (killed[index] != stem) {
            killed[index] = stem;
            if (one) hit.push_back(index);
          }
        }
      }
      engine.restore(probe);
    }
    if (!closed_both) continue;
    for (const std::uint32_t index : hit) {
      if (redundant[index] == 0 && killed_zero[index] == stem) {
        redundant[index] = 1;
        reason[index] = RedundancyReason::kStemConflict;
        witness[index] = stem;
      }
    }
  }

  RedundancyReport report;
  for (std::size_t i = 0; i < fault_count; ++i) {
    if (redundant[i] == 0) continue;
    report.sites.push_back(RedundantSite{faults[i], reason[i], witness[i]});
  }
  return report;
}

RedundancyReport prove_redundancies(const circuit::CompiledCircuit& compiled) {
  return identify_redundancies(ImplicationEngine(compiled));
}

}  // namespace lsiq::analyze
