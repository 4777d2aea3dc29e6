// The Table-1 strobe readout row — the shared readout type of the wafer
// layer and the flow API.
//
// The end-to-end Section 5 / Section 7 experiment itself lives behind the
// unified flow front door: build a flow::FlowSpec (flow/spec.hpp) and call
// flow::run (flow/flow.hpp). The pre-flow entry point
// run_chip_test_experiment — an ExperimentSpec struct over explicit
// patterns — was a deprecated shim over flow::run through PR 3 and has
// been removed; its exact FlowSpec translation is recorded in the README
// migration table (source.kind = "explicit", observe "full"/"progressive",
// engine "ppsfp" with its `threads` lane count, the lot axis,
// analysis.strobe_coverages).
#pragma once

#include <cstddef>
#include <vector>

#include "core/estimation.hpp"

namespace lsiq::wafer {

/// One row of a Table-1-style readout.
struct StrobeRow {
  double target_coverage = 0.0;   ///< the requested strobe (Table 1 col. 1)
  double actual_coverage = 0.0;   ///< curve value at the strobe pattern
  std::size_t pattern_index = 0;  ///< patterns applied up to the strobe
  std::size_t cumulative_failed = 0;
  double cumulative_fraction = 0.0;
};

/// Strobe table -> (coverage, fraction failed) points, the Section 5
/// estimator input. Consumed by flow::FlowResult::points().
std::vector<quality::CoveragePoint> coverage_points(
    const std::vector<StrobeRow>& table);

}  // namespace lsiq::wafer
