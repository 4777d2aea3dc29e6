#include "fault/fault.hpp"

#include "circuit/compiled.hpp"
#include "util/error.hpp"

namespace lsiq::fault {

std::string fault_name(const circuit::Circuit& circuit, const Fault& fault) {
  return fault_name(circuit, fault, fault_model::FaultModel::kStuckAt);
}

std::string fault_name(const circuit::Circuit& circuit, const Fault& fault,
                       fault_model::FaultModel model) {
  const std::string base = circuit.gate(fault.gate).name;
  const std::string site =
      is_stem(fault) ? "/out" : "/in" + std::to_string(fault.pin);
  return base + site + " " +
         fault_model::polarity_name(model, fault.stuck_at_one);
}

circuit::GateId fault_line(const circuit::Circuit& circuit,
                           const Fault& fault) {
  if (is_stem(fault)) return fault.gate;
  const auto& fanin = circuit.gate(fault.gate).fanin;
  LSIQ_EXPECT(fault.pin >= 0 &&
                  static_cast<std::size_t>(fault.pin) < fanin.size(),
              "fault pin out of range");
  return fanin[static_cast<std::size_t>(fault.pin)];
}

circuit::GateId fault_line(const circuit::CompiledCircuit& compiled,
                           const Fault& fault) {
  if (is_stem(fault)) return fault.gate;
  LSIQ_EXPECT(fault.pin >= 0 && static_cast<std::size_t>(fault.pin) <
                                    compiled.fanin_count(fault.gate),
              "fault pin out of range");
  return compiled.fanin(fault.gate)[fault.pin];
}

circuit::GateId fault_region(const circuit::CompiledCircuit& compiled,
                             const Fault& fault) {
  if (!is_stem(fault) &&
      compiled.type(fault.gate) == circuit::GateType::kDff) {
    return circuit::kNoGate;
  }
  return compiled.region_root(fault.gate);
}

}  // namespace lsiq::fault
