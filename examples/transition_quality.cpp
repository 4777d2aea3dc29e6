// Stuck-at vs transition product quality, side by side.
//
// The paper turns a fault-coverage figure into a DPPM statement — but the
// statement is only as meaningful as the fault universe the coverage was
// measured on. This example runs ONE flow spec twice, differing only in
// the fault_model axis, against the same product, pattern program and
// virtual lot, and prints the two quality statements next to each other:
//
//   * the Table-1 strobe readout per model (the same tester bring-up read
//     against the two coverage curves),
//   * the per-model characterization (the estimators see each model's own
//     fallout curve), and
//   * the DPPM each model's delivered coverage buys — the gap is the
//     quality claim a stuck-at-only sign-off silently over-states for
//     delay defects, and
//   * the deterministic closure: the same transition universe under an
//     atpg source — two-pattern PODEM targets the survivors the LFSR
//     program misses and reaches higher coverage with fewer patterns.
//
// As in examples/bist_quality.cpp, --tiny switches to the 8-bit
// multiplier for CI smoke runs.
#include <cstdlib>
#include <iostream>
#include <string>

#include "circuit/generators.hpp"
#include "fault_model/universe.hpp"
#include "flow/flow.hpp"
#include "util/table.hpp"

int main(int argc, char** argv) {
  using namespace lsiq;

  const bool tiny = argc > 1 && std::string(argv[1]) == "--tiny";

  // The paper's stand-in LSI product and Section 7 quality parameters.
  const circuit::Circuit chip =
      circuit::make_array_multiplier(tiny ? 8 : 16);

  // One spec; only fault_model.kind differs between the two runs.
  flow::FlowSpec spec;
  spec.source.kind = "lfsr";
  spec.source.pattern_count = tiny ? 512 : 1024;
  spec.source.lfsr_seed = 1981;
  spec.observe.kind = "progressive";
  spec.observe.strobe_step = tiny ? 16 : 24;
  spec.engine.kind = "ppsfp";
  spec.engine.num_threads = 0;
  spec.lot.chip_count = 277;
  spec.lot.yield = 0.07;
  spec.lot.n0 = 8.0;
  spec.lot.seed = 1981;
  spec.analysis.strobe_coverages = {0.05, 0.10, 0.20, 0.30, 0.45, 0.60};
  spec.analysis.method = "least_squares";

  flow::FlowSpec transition_spec = spec;
  transition_spec.fault_model.kind = "transition";

  const flow::FlowResult stuck_at = flow::run(chip, spec);
  const flow::FlowResult transition = flow::run(chip, transition_spec);

  std::cout << "Stuck-at vs transition quality: " << chip.name() << ", "
            << spec.source.pattern_count
            << " LFSR patterns (consecutive launch/capture pairs), "
            << spec.lot.chip_count << "-chip lot\n\n";

  // 1. The same strobe readout against both coverage curves: the
  // transition curve rises later, so each checkpoint costs more patterns.
  util::TextTable strobes({"target f", "s-a patterns", "s-a failed",
                           "trans patterns", "trans failed"});
  for (std::size_t i = 0; i < stuck_at.table.size(); ++i) {
    const wafer::StrobeRow& sa = stuck_at.table[i];
    const wafer::StrobeRow& tr = transition.table[i];
    strobes.add_row({util::format_percent(sa.target_coverage, 0),
                     std::to_string(sa.pattern_index),
                     std::to_string(sa.cumulative_failed),
                     std::to_string(tr.pattern_index),
                     std::to_string(tr.cumulative_failed)});
  }
  std::cout << "Table-1 readout per fault model:\n"
            << strobes.to_string() << "\n";

  // 2. The headline: coverage and DPPM per model for the same silicon.
  util::TextTable quality({"fault model", "universe N", "classes",
                           "final f", "DPPM at final f"});
  for (const flow::FlowResult* run : {&stuck_at, &transition}) {
    const fault::FaultList universe = fault_model::universe(
        chip, *fault_model::fault_model_from_name(run->spec.fault_model.kind));
    quality.add_row(
        {run->spec.fault_model.kind,
         std::to_string(universe.fault_count()),
         std::to_string(universe.class_count()),
         util::format_percent(run->final_coverage(), 2),
         util::format_double(run->analyzer->dppm(run->final_coverage()), 0)});
  }
  std::cout << quality.to_string() << "\n";

  const double gap = transition.analyzer->dppm(transition.final_coverage()) -
                     stuck_at.analyzer->dppm(stuck_at.final_coverage());
  std::cout << "Reading: the transition universe collapses less and is "
               "detected later, so the\nsame program delivers less of it; "
               "quoting only the stuck-at DPPM under-states\nthe shipped "
               "defect level by "
            << util::format_double(gap, 0)
            << " DPPM at these product parameters.\n";

  // 3. Deterministic closure: flip only the source axis to atpg. The
  // random phase mirrors the LFSR regime; the PODEM phase emits a
  // (launch, capture) pair per survivor and proves the rest redundant.
  flow::FlowSpec atpg_spec = transition_spec;
  atpg_spec.source = flow::PatternSourceSpec{};
  atpg_spec.source.kind = "atpg";
  atpg_spec.source.atpg.random_patterns = 256;
  atpg_spec.source.atpg.seed = 1981;
  atpg_spec.source.atpg_compact = true;
  atpg_spec.observe = flow::ObservationSpec{};  // full scan observation
  atpg_spec.lot.chip_count = 0;                 // coverage-only phase
  atpg_spec.analysis.strobe_coverages.clear();
  atpg_spec.analysis.method = "given";
  const flow::FlowResult closed = flow::run(chip, atpg_spec);
  const tpg::AtpgResult& atpg = *closed.atpg;
  std::cout << "\nDeterministic closure (transition ATPG, pair-aware "
               "compaction):\n  "
            << closed.patterns.size() << " patterns instead of "
            << spec.source.pattern_count << " reach "
            << util::format_percent(closed.final_coverage(), 2) << " ("
            << util::format_double(
                   closed.analyzer->dppm(closed.final_coverage()), 0)
            << " DPPM vs "
            << util::format_double(
                   closed.analyzer->dppm(transition.final_coverage()), 0)
            << " for the LFSR program, same ground-truth analyzer); "
            << atpg.redundant_classes
            << " classes proven redundant ("
            << atpg.untestable_launch_classes << " launch, "
            << atpg.untestable_capture_classes << " capture), effective "
            << util::format_percent(atpg.effective_coverage, 2) << ".\n";

  // Hard checks (non-zero exit on failure): the two runs really did share
  // the lot axis, transition coverage never exceeds stuck-at, and the
  // deterministic program dominates the LFSR one on its own universe.
  if (stuck_at.lot->size() != transition.lot->size() ||
      transition.final_coverage() > stuck_at.final_coverage() ||
      closed.final_coverage() < transition.final_coverage() ||
      closed.patterns.size() >= spec.source.pattern_count) {
    std::cerr << "FAIL: side-by-side invariants violated\n";
    return EXIT_FAILURE;
  }
  return EXIT_SUCCESS;
}
