// Monte-Carlo chip lots.
//
// The paper characterized its model on 277 production chips from a Bell
// Labs wafer lot; we cannot have those, so this module manufactures
// virtual lots with *known ground truth*: the yield and n0 that generated
// a lot are inputs, so every estimate can be checked against them.
// A chip is a set of single stuck-at faults drawn from the circuit's fault
// universe. Two generators:
//
//   * model-faithful: the per-chip fault count is drawn exactly from the
//     paper's shifted-Poisson distribution (Eq. 1) — used to validate that
//     the Section 5 estimators recover the n0 that generated the data;
//
//   * physical: defects per chip are negative-binomial (the clustered
//     Eq. 3 defect model), each defect contributes 1 + Poisson(mu) logical
//     faults at structurally adjacent sites — the "a physical defect can
//     produce several logical faults" footnote of Section 3. Its fault
//     count is *not* shifted-Poisson, which is what makes it the stress
//     test for estimator robustness (bench/ablation_estimators).
//
// Chips fail a pattern when the pattern detects at least one resident
// fault (the single-fault-detection approximation the paper's urn model
// makes; multiple-fault masking is ignored, as in the paper).
#pragma once

#include <cstdint>
#include <vector>

#include "core/fault_distribution.hpp"
#include "fault/fault_list.hpp"

namespace lsiq::wafer {

/// One virtual chip: the collapsed fault classes present on it.
struct Chip {
  std::vector<std::uint32_t> fault_classes;

  [[nodiscard]] bool defective() const noexcept {
    return !fault_classes.empty();
  }
};

/// A lot of chips plus the ground truth that generated it.
struct ChipLot {
  std::vector<Chip> chips;
  double true_yield = 0.0;   ///< fraction of fault-free chips intended
  double true_n0 = 0.0;      ///< mean faults per defective chip intended

  [[nodiscard]] std::size_t size() const noexcept { return chips.size(); }

  /// Realized fraction of fault-free chips in this finite lot.
  [[nodiscard]] double realized_yield() const;

  /// Realized mean fault count over defective chips.
  [[nodiscard]] double realized_n0() const;
};

/// Model-faithful generator: chip fault counts follow Eq. 1 exactly; the
/// n faults are distinct uniform draws from the full universe, mapped to
/// their equivalence classes.
ChipLot generate_lot(const fault::FaultList& faults,
                     const quality::FaultDistribution& distribution,
                     std::size_t chip_count, std::uint64_t seed);

/// Parameters of the physical-defect generator.
struct PhysicalLotSpec {
  std::size_t chip_count = 277;
  double defects_per_chip = 2.0;        ///< lambda = D0 * A
  double variance_ratio = 0.5;          ///< X of Eq. 3 (0 = pure Poisson)
  double extra_faults_per_defect = 1.0; ///< mu: faults/defect = 1+Poisson(mu)
  /// Faults of one defect are drawn within a window of this many universe
  /// indices around a random center — crude spatial locality. 0 = uniform.
  std::size_t locality_window = 64;
  std::uint64_t seed = 1;

  friend bool operator==(const PhysicalLotSpec&,
                         const PhysicalLotSpec&) = default;
};

/// Physical generator (see header comment). true_n0 in the returned lot is
/// the *realized* mean faults per defective chip, since the construction
/// has no closed-form n0.
ChipLot generate_physical_lot(const fault::FaultList& faults,
                              const PhysicalLotSpec& spec);

}  // namespace lsiq::wafer
