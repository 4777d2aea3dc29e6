// Fault records over netlist sites.
//
// A fault site is a (gate, pin) pair: pin == -1 is the gate's output line
// (the "stem"), pin >= 0 is one input pin (a "branch" of the driving net's
// fanout). The same record serves every fault model (see
// fault_model/fault_model.hpp): under stuck-at, `stuck_at_one` is the
// stuck value; under transition, it selects slow-to-fall (true) versus
// slow-to-rise (false) — the polarity whose capture behaviour is the
// matching stuck-at. The interpreting model is carried by the FaultList
// the fault came from, not by the record itself.
#pragma once

#include <compare>
#include <cstdint>
#include <string>

#include "circuit/netlist.hpp"
#include "fault_model/fault_model.hpp"

namespace lsiq::circuit {
class CompiledCircuit;  // circuit/compiled.hpp
}

namespace lsiq::fault {

struct Fault {
  circuit::GateId gate = circuit::kNoGate;
  std::int32_t pin = -1;      ///< -1 = output stem, >= 0 = input pin index
  bool stuck_at_one = false;  ///< stuck value

  friend auto operator<=>(const Fault&, const Fault&) = default;
};

/// True when the fault sits on the gate's output line.
inline bool is_stem(const Fault& f) noexcept { return f.pin < 0; }

/// Human-readable fault name, e.g. "G16/out s-a-1" or "G22/in0 s-a-0"
/// (stuck-at interpretation).
std::string fault_name(const circuit::Circuit& circuit, const Fault& fault);

/// Model-aware variant: "G16/out slow-to-fall" under kTransition.
std::string fault_name(const circuit::Circuit& circuit, const Fault& fault,
                       fault_model::FaultModel model);

/// The signal line the fault lives on: the gate itself for a stem fault,
/// the driving gate for a branch fault. For a transition fault this is the
/// line whose previous-pattern value is the launch condition.
circuit::GateId fault_line(const circuit::Circuit& circuit,
                           const Fault& fault);

/// Same over the compiled view (the form the grading engines use).
circuit::GateId fault_line(const circuit::CompiledCircuit& compiled,
                           const Fault& fault);

/// The root of the fanout-free region the fault's effect leaves through
/// (CompiledCircuit::region_root of its gate), or kNoGate for a branch on
/// a flip-flop's D pin, which only that flip-flop's scan capture sees.
circuit::GateId fault_region(const circuit::CompiledCircuit& compiled,
                             const Fault& fault);

}  // namespace lsiq::fault
