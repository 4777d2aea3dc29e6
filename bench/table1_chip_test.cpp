// Regenerates Table 1 and the Section 7 example end to end, driven by one
// declarative flow spec (the same scenario ships as data in
// tools/specs/table1.spec for the lsiq_flow CLI):
//
//   1. an LSI-scale circuit (16x16 array multiplier) stands in for the
//      paper's ~25,000-transistor chip;
//   2. the spec's source axis orders an LFSR pattern program and its
//      engine axis grades it with the PPSFP fault simulator (the LAMP
//      step), giving the cumulative coverage curve;
//   3. the lot axis manufactures a 277-chip virtual lot with ground truth
//      y = 0.07, n0 = 8 and runs it through the virtual tester (the
//      Sentry step), recording each chip's first failing pattern;
//   4. the Table-1 strobe table is read out at the paper's coverage
//      checkpoints and compared against the published column;
//   5. the Section 7 analysis follows: slope estimate, curve fits,
//      required-coverage conclusions and the Wadsack comparison — plus a
//      validation the 1981 authors could not run: the measured escape rate
//      of the virtual line against Eq. 8.
#include <iostream>

#include "bench_util.hpp"
#include "circuit/generators.hpp"
#include "core/baselines.hpp"
#include "core/coverage_requirement.hpp"
#include "core/estimation.hpp"
#include "core/reject_model.hpp"
#include "fault/fault_list.hpp"
#include "flow/flow.hpp"
#include "util/stats.hpp"
#include "util/table.hpp"

int main() {
  using namespace lsiq;

  bench::print_banner("Table 1 + Section 7",
                      "virtual chip-test experiment, 277 chips, y = 0.07, "
                      "n0 = 8");

  // The paper's Table 1 for side-by-side comparison.
  struct PaperRow {
    double coverage;
    int failed;
    double fraction;
  };
  const PaperRow paper_rows[] = {
      {0.05, 113, 0.41}, {0.08, 134, 0.48}, {0.10, 144, 0.52},
      {0.15, 186, 0.67}, {0.20, 209, 0.75}, {0.30, 226, 0.82},
      {0.36, 242, 0.87}, {0.45, 251, 0.91}, {0.50, 256, 0.92},
      {0.65, 257, 0.93}};

  // 1: circuit and fault universe.
  const circuit::Circuit chip = circuit::make_array_multiplier(16);
  const circuit::CircuitStats stats = chip.stats();
  const fault::FaultList faults = fault::FaultList::full_universe(chip);

  // 2-4: the whole experiment as one spec (tools/specs/table1.spec).
  flow::FlowSpec spec;
  spec.source.kind = "lfsr";
  spec.source.pattern_count = 1024;
  spec.source.lfsr_seed = 1981;
  spec.observe.kind = "progressive";
  spec.observe.strobe_step = 24;  // output pin i strobed from pattern 24*i
  spec.engine.kind = "ppsfp";
  spec.engine.num_threads = 0;  // one PPSFP worker per hardware thread
  spec.lot.chip_count = 277;
  spec.lot.yield = 0.07;
  spec.lot.n0 = 8.0;
  spec.lot.seed = 1981;
  spec.analysis.strobe_coverages = flow::table1_strobes();
  const flow::FlowResult result = flow::run(faults, spec);

  std::cout << "LSI stand-in: " << chip.name() << ", "
            << stats.combinational_gates << " gates, depth " << stats.depth
            << ", fault universe N = " << faults.fault_count() << " ("
            << faults.class_count() << " collapsed classes)\n"
            << "Test program: " << result.patterns.size()
            << " LFSR patterns in tester order, progressive per-pin "
               "strobing\n(functional-program emulation — see "
               "fault/strobe.hpp; this is what makes\nthe coverage curve "
               "rise gradually, as the paper's Table 1 requires)\n";

  bench::print_section("Table 1 — result of chip test (paper vs reproduced)");
  std::cout << "Yield ~ 0.07, total number of chips = 277\n\n";
  util::TextTable table({"coverage", "patterns", "failed (paper)",
                         "failed (ours)", "fraction (paper)",
                         "fraction (ours)"});
  for (std::size_t i = 0; i < result.table.size(); ++i) {
    const wafer::StrobeRow& row = result.table[i];
    const PaperRow& paper = paper_rows[i];
    table.add_row({util::format_percent(row.target_coverage, 0),
                   std::to_string(row.pattern_index),
                   std::to_string(paper.failed),
                   std::to_string(row.cumulative_failed),
                   util::format_double(paper.fraction, 2),
                   util::format_double(row.cumulative_fraction, 2)});
  }
  std::cout << table.to_string();

  // 5: Section 7 analysis on the reproduced data.
  const auto points = result.points();

  bench::print_section("Section 7 — determination of n0");
  const quality::SlopeEstimate slope =
      quality::estimate_n0_slope({points.front()}, spec.lot.yield);
  const int discrete = quality::estimate_n0_discrete(points, spec.lot.yield);
  const quality::FitResult ls =
      quality::estimate_n0_least_squares(points, spec.lot.yield);
  util::TextTable estimates({"method", "paper", "reproduced"});
  estimates.add_row({"P'(0) from first strobe", "8.2",
                     util::format_double(slope.p_prime_zero, 2)});
  estimates.add_row({"n0 via Eq. 10 (slope/0.93)", "8.8",
                     util::format_double(slope.n0, 2)});
  estimates.add_row({"n0, Fig. 5 curve fit", "8", std::to_string(discrete)});
  estimates.add_row({"n0, least squares", "(n/a)",
                     util::format_double(ls.n0, 2)});
  estimates.add_row({"ground truth of virtual lot", "(unknown in 1981)",
                     util::format_double(result.lot->realized_n0(), 2)});
  std::cout << estimates.to_string();

  // Uncertainty the paper could not report: bootstrap CI on n0 from the
  // same 277-chip binned first-fail data.
  {
    std::vector<double> strobes;
    std::vector<std::size_t> bin_counts;
    std::size_t previous = 0;
    for (const wafer::StrobeRow& row : result.table) {
      strobes.push_back(row.actual_coverage);
      bin_counts.push_back(row.cumulative_failed - previous);
      previous = row.cumulative_failed;
    }
    const std::size_t passed = spec.lot.chip_count - previous;
    const quality::BootstrapInterval interval =
        quality::bootstrap_n0_interval(strobes, bin_counts, passed,
                                       spec.lot.yield, 300, 0.95, 1981);
    std::cout << "\nBootstrap (300 replicates): n0 = "
              << util::format_double(interval.point, 2) << ", 95% CI ["
              << util::format_double(interval.lower, 2) << ", "
              << util::format_double(interval.upper, 2)
              << "] — a 277-chip lot pins n0 to roughly +-1.5.\n";
  }

  bench::print_section("Section 7 — required coverage conclusions (n0 = 8)");
  util::TextTable conclusions(
      {"target r", "this model", "Wadsack [5]", "Williams-Brown"});
  for (const double r : {0.01, 0.001}) {
    conclusions.add_row(
        {util::format_probability(r),
         util::format_percent(
             quality::required_fault_coverage(r, spec.lot.yield, 8.0), 1),
         util::format_percent(
             quality::wadsack_required_coverage(r, spec.lot.yield), 1),
         util::format_percent(
             quality::williams_brown_required_coverage(r, spec.lot.yield),
             1)});
  }
  std::cout << conclusions.to_string()
            << "Paper: ~80% (r=1%) and ~95% (r=0.1%) vs Wadsack's 99% and "
               "99.9%.\n";

  bench::print_section(
      "beyond the paper: measured escape rate vs Eq. 8 (50,000-chip lot, "
      "program cut at the 65% strobe)");
  // Ship after the Table 1 program (f ~ 0.65) rather than the full set, so
  // Eq. 8 predicts a reject rate large enough to measure. Same spec, two
  // axes changed: the source becomes the sliced program, the lot grows.
  flow::FlowSpec big = spec;
  big.source = flow::PatternSourceSpec{};
  big.source.kind = "explicit";
  big.source.patterns =
      result.patterns.slice(0, result.table.back().pattern_index);
  big.lot.chip_count = 50000;
  big.lot.seed = 77;
  const flow::FlowResult validation = flow::run(faults, big);
  const double f_final = validation.final_coverage();
  const double predicted =
      quality::field_reject_rate(f_final, spec.lot.yield, spec.lot.n0);
  const double measured = validation.test->empirical_reject_rate();
  const auto [lo, hi] =
      util::wilson_interval(validation.test->shipped_defective_count(),
                            validation.test->passed_count());
  util::TextTable check({"quantity", "value"});
  check.add_row({"final program coverage f",
                 util::format_percent(f_final, 2)});
  check.add_row({"escapes / shipped",
                 std::to_string(validation.test->shipped_defective_count()) +
                     " / " +
                     std::to_string(validation.test->passed_count())});
  check.add_row({"measured reject rate", util::format_probability(measured)});
  check.add_row({"95% interval", util::format_probability(lo) + " .. " +
                                     util::format_probability(hi)});
  check.add_row({"Eq. 8 prediction r(f)", util::format_probability(predicted)});
  std::cout << check.to_string();
  return 0;
}
