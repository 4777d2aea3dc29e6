// The flow gate's static-redundancy census: CheckOutcome and FlowResult's
// statically_redundant_* counts must equal a fold, over the universe's
// collapsed classes, of what a standalone implication engine proves
// (identify_redundancies over a freshly compiled circuit) — and both must
// read 0 when the untestable rule class is off. Pinned on the committed
// lint demo netlist, a reconvergent generated adder under both fault
// models.
#include <gtest/gtest.h>

#include <cstddef>
#include <string>
#include <vector>

#include "analyze/implication.hpp"
#include "analyze/redundancy.hpp"
#include "circuit/bench_io.hpp"
#include "circuit/compiled.hpp"
#include "circuit/generators.hpp"
#include "fault/fault_list.hpp"
#include "fault_model/universe.hpp"
#include "flow/flow.hpp"

namespace lsiq::flow {
namespace {

using fault_model::FaultModel;

struct Census {
  std::size_t classes = 0;
  std::size_t faults = 0;
};

/// The census by definition: every class holding a universe fault the
/// implication engine proves redundant, weighted by class size.
Census standalone_census(const fault::FaultList& faults) {
  const circuit::CompiledCircuit compiled(faults.circuit());
  const analyze::ImplicationEngine engine(compiled);
  const analyze::RedundancyReport redundancy =
      analyze::identify_redundancies(engine);
  std::vector<char> hit(faults.class_count(), 0);
  for (const analyze::RedundantSite& site : redundancy.sites) {
    const std::size_t index = faults.index_of(site.fault);
    if (index < faults.fault_count()) hit[faults.class_of(index)] = 1;
  }
  Census census;
  for (std::size_t c = 0; c < hit.size(); ++c) {
    if (hit[c] == 0) continue;
    ++census.classes;
    census.faults += faults.class_size(c);
  }
  return census;
}

FlowSpec coverage_spec(FaultModel model) {
  FlowSpec spec;
  spec.fault_model.kind = fault_model::fault_model_name(model);
  spec.source.kind = "lfsr";
  spec.source.pattern_count = 64;
  return spec;
}

/// The gate's census through both public surfaces equals the standalone
/// fold, and turning the untestable class off zeroes both. Returns the
/// standalone census for case-specific pins.
Census expect_census_matches(const fault::FaultList& faults) {
  const Census expected = standalone_census(faults);
  FlowSpec spec = coverage_spec(faults.model());

  const CheckOutcome outcome = check_detailed(faults, spec);
  EXPECT_EQ(outcome.statically_redundant_classes, expected.classes);
  EXPECT_EQ(outcome.statically_redundant_faults, expected.faults);
  const FlowResult result = run(faults, spec);
  EXPECT_EQ(result.statically_redundant_classes, expected.classes);
  EXPECT_EQ(result.statically_redundant_faults, expected.faults);

  spec.analyze.untestable = "off";
  const CheckOutcome off = check_detailed(faults, spec);
  EXPECT_EQ(off.statically_redundant_classes, 0u);
  EXPECT_EQ(off.statically_redundant_faults, 0u);
  const FlowResult off_result = run(faults, spec);
  EXPECT_EQ(off_result.statically_redundant_classes, 0u);
  EXPECT_EQ(off_result.statically_redundant_faults, 0u);
  return expected;
}

TEST(RedundancyCensus, LintDemoNetlistMatchesStandaloneProof) {
  const circuit::Circuit c = circuit::read_bench_file(
      std::string(LSIQ_SOURCE_DIR) + "/tools/specs/lint_demo.bench");
  const fault::FaultList faults =
      fault_model::universe(c, FaultModel::kStuckAt);
  const Census census = expect_census_matches(faults);
  // The unused input's two stem faults, each its own class.
  EXPECT_EQ(census.classes, 2u);
  EXPECT_EQ(census.faults, 2u);
}

TEST(RedundancyCensus, ReconvergentAdderMatchesStandaloneProof) {
  const circuit::Circuit c = circuit::make_carry_select_adder(8, 4);
  const fault::FaultList faults =
      fault_model::universe(c, FaultModel::kStuckAt);
  const Census census = expect_census_matches(faults);
  EXPECT_GT(census.classes, 0u) << "the adder should carry redundancy";
}

TEST(RedundancyCensus, TransitionUniverseMatchesStandaloneProof) {
  const circuit::Circuit c = circuit::make_carry_select_adder(8, 4);
  const fault::FaultList faults =
      fault_model::universe(c, FaultModel::kTransition);
  const Census census = expect_census_matches(faults);
  EXPECT_GT(census.classes, 0u) << "the adder should carry redundancy";
}

}  // namespace
}  // namespace lsiq::flow
