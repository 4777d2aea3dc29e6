// Test-generation economics: random patterns vs deterministic ATPG, and
// what each buys in shipped quality.
//
// Section 1 of the paper: "test development and test application costs
// increase very rapidly" as coverage approaches 100%. This example makes
// that concrete on a real circuit, using two coverage-only flow specs that
// differ ONLY in their pattern-source axis: an explicit random program
// graded on the multi-threaded engine, then an ATPG source whose PODEM
// phase closes the stubborn faults (proving some redundant). The quality
// model then translates every extra point of coverage into a reject rate —
// so the cost of the last few percent can be weighed against the DPPM they
// deliver.
#include <iostream>

#include "circuit/generators.hpp"
#include "fault/fault_list.hpp"
#include "flow/flow.hpp"
#include "util/rng.hpp"
#include "util/table.hpp"

int main() {
  using namespace lsiq;

  const circuit::Circuit product = circuit::make_alu(8);
  const fault::FaultList faults = fault::FaultList::full_universe(product);
  std::cout << "Circuit: " << product.name() << " — "
            << product.stats().combinational_gates << " gates, N = "
            << faults.fault_count() << " faults ("
            << faults.class_count() << " classes)\n\n";

  // The quality context and the axes shared by both phases: coverage-only
  // (no lot), graded on the multi-threaded compiled engine.
  flow::FlowSpec spec;
  spec.engine.kind = "ppsfp";
  spec.engine.num_threads = 0;  // one worker per hardware thread
  spec.lot.chip_count = 0;      // no lot: source-vs-source comparison
  spec.lot.yield = 0.25;        // the product's characterization context
  spec.lot.n0 = 6.0;

  // ---- random-pattern phase: coverage vs pattern count ----
  util::Rng rng(11);
  sim::PatternSet random_patterns(product.pattern_inputs().size());
  random_patterns.append_random(2048, rng);
  spec.source.kind = "explicit";
  spec.source.patterns = random_patterns;
  const flow::FlowResult random_run = flow::run(faults, spec);
  const quality::QualityAnalyzer& context = *random_run.analyzer;
  const fault::CoverageCurve& curve = *random_run.curve;

  util::TextTable random_table(
      {"random patterns", "coverage", "predicted reject rate", "DPPM"});
  for (const std::size_t t : {16u, 64u, 256u, 1024u, 2048u}) {
    const double f = curve.coverage_after(t);
    random_table.add_row({std::to_string(t), util::format_percent(f, 2),
                          util::format_probability(context.reject_rate(f)),
                          util::format_double(context.dppm(f), 0)});
  }
  std::cout << "Random patterns alone (the flattening curve):\n"
            << random_table.to_string();

  // ---- deterministic phase: the same flow with an ATPG source ----
  spec.source = flow::PatternSourceSpec{};
  spec.source.kind = "atpg";
  spec.source.atpg.random_patterns = 256;
  spec.source.atpg.seed = 11;
  spec.source.atpg_compact = true;  // reverse-order static compaction
  const flow::FlowResult atpg_run = flow::run(faults, spec);
  const tpg::AtpgResult& atpg = *atpg_run.atpg;

  std::cout << "\nTwo-phase ATPG (random + PODEM with fault dropping):\n";
  util::TextTable atpg_table({"quantity", "value"});
  atpg_table.add_row({"patterns generated",
                      std::to_string(atpg.patterns.size())});
  atpg_table.add_row({"after reverse-order compaction",
                      std::to_string(atpg_run.patterns.size())});
  atpg_table.add_row({"coverage f = m/N",
                      util::format_percent(atpg.coverage, 2)});
  atpg_table.add_row({"proven-redundant classes",
                      std::to_string(atpg.redundant_classes)});
  atpg_table.add_row({"effective coverage (redundancies excluded)",
                      util::format_percent(atpg.effective_coverage, 2)});
  atpg_table.add_row({"aborted", std::to_string(atpg.aborted_classes)});
  std::cout << atpg_table.to_string();

  // ---- the economics ----
  const double f_random = curve.final_coverage();
  const double f_atpg = atpg.coverage;
  std::cout << "\nWhat the deterministic phase buys:\n"
            << "  2048 random patterns: "
            << util::format_percent(f_random, 2) << " coverage -> "
            << util::format_double(context.dppm(f_random), 0) << " DPPM\n"
            << "  ATPG-closed program:  "
            << util::format_percent(f_atpg, 2) << " coverage -> "
            << util::format_double(context.dppm(f_atpg), 0) << " DPPM\n"
            << "  (and " << atpg_run.patterns.size()
            << " patterns instead of 2048 on the tester)\n"
            << "\nSection 1's redundancy point, demonstrated: "
            << atpg.redundant_classes
            << " fault classes are provably untestable, so 100% raw\n"
               "coverage is unreachable — the effective figure is the one "
               "that matters.\n";
  return 0;
}
