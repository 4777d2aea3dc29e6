// BIST vs full-observation product quality.
//
// The paper's DPPM-vs-coverage model assumes the tester compares every
// output on every pattern. A logic-BIST tester does not: an on-chip LFSR
// drives the patterns and a MISR compacts all responses into one k-bit
// signature, so the coverage that reaches the quality model is only what
// survives signature aliasing. This example runs the paper's stand-in
// product (the 16-bit array multiplier; --tiny switches to the 8-bit one
// for CI smoke runs) through flow specs that differ only in their
// observation axis, and reports, per MISR width:
//
//   * full-observation coverage of the LFSR program (what LAMP would say),
//   * exact signature coverage (simulated aliasing, not a model),
//   * the analytic 2^-k expectation it should straddle, and
//   * the DPPM each coverage buys at the Section 7 product parameters —
//     the quality cost of compaction.
//
// It also verifies, as hard checks (non-zero exit on failure), the two
// properties the test plan pins: signature grading is bit-deterministic
// across 1/2/8 worker threads, and the measured aliasing loss stays
// within the analytic bound for the wide production register.
#include <cstdlib>
#include <iostream>
#include <string>

#include "bist/misr.hpp"
#include "circuit/generators.hpp"
#include "fault/fault_list.hpp"
#include "flow/flow.hpp"
#include "util/table.hpp"

int main(int argc, char** argv) {
  using namespace lsiq;

  // --tiny: the CI smoke configuration (same code path, smaller product).
  const bool tiny = argc > 1 && std::string(argv[1]) == "--tiny";

  // The paper's stand-in LSI product and Section 7 quality parameters.
  const circuit::Circuit chip =
      circuit::make_array_multiplier(tiny ? 8 : 16);
  const fault::FaultList faults = fault::FaultList::full_universe(chip);
  const quality::QualityAnalyzer product(/*yield=*/0.07, /*n0=*/8.0);

  std::cout << "BIST quality analysis: " << chip.name() << ", "
            << faults.fault_count() << "-fault universe, "
            << faults.class_count() << " collapsed classes\n\n";

  // Everything but the observation axis is shared: LFSR program,
  // signature grading on every hardware thread, no lot (coverage-only),
  // Section 7 analyzer parameters.
  flow::FlowSpec spec;
  spec.source.kind = "lfsr";
  spec.source.pattern_count = tiny ? 256 : 1024;
  spec.source.lfsr_seed = 1981;
  spec.observe.kind = "misr";
  spec.engine.kind = "ppsfp";
  spec.engine.num_threads = 0;  // grade with every hardware thread
  spec.lot.chip_count = 0;
  spec.lot.yield = 0.07;
  spec.lot.n0 = 8.0;

  // 1. Determinism: the same session must grade bit-identically with 1,
  // 2 and 8 workers (each fault class is owned by exactly one lane).
  spec.observe.misr_width = 32;
  spec.engine.num_threads = 1;  // exactly one grading worker
  const flow::FlowResult single = flow::run(faults, spec);
  const bist::BistResult& reference = *single.bist;
  bool deterministic = true;
  for (const std::size_t threads : {2u, 8u}) {
    spec.engine.num_threads = threads;
    const flow::FlowResult repeat_run = flow::run(faults, spec);
    const bist::BistResult& repeat = *repeat_run.bist;
    deterministic = deterministic &&
                    repeat.good_signature == reference.good_signature &&
                    repeat.fault_signatures == reference.fault_signatures &&
                    repeat.first_error_pattern ==
                        reference.first_error_pattern &&
                    repeat.first_divergence_pattern ==
                        reference.first_divergence_pattern;
  }
  spec.engine.num_threads = 0;
  std::cout << "signature grading across 1/2/8 threads: "
            << (deterministic ? "bit-identical" : "MISMATCH") << "\n";

  // 2. Aliasing loss vs the analytic model, across register widths — the
  // observation axis swept, everything else pinned.
  util::TextTable table({"MISR width", "full-obs coverage", "sig coverage",
                         "aliased classes", "measured alias frac",
                         "2^-k model", "DPPM full-obs", "DPPM BIST"});
  const double dppm_full = product.dppm(reference.raw_coverage);
  bist::BistResult narrow = reference;
  for (const int width : {32, 16, 8, 4}) {
    spec.observe.misr_width = width;
    const flow::FlowResult sweep = flow::run(faults, spec);
    const bist::BistResult& r = *sweep.bist;
    if (width == 8) narrow = r;
    table.add_row(
        {util::format_double(width, 0),
         util::format_percent(r.raw_coverage, 2),
         util::format_percent(r.signature_coverage, 2),
         util::format_double(static_cast<double>(r.aliased_classes.size()),
                             0),
         util::format_probability(r.measured_aliasing_fraction()),
         util::format_probability(bist::misr_aliasing_probability(width)),
         util::format_double(product.dppm(r.raw_coverage), 0),
         util::format_double(product.dppm(r.signature_coverage), 0)});
  }
  std::cout << "\n" << table.to_string();

  // 3. The acceptance check: with the production-width register the
  // simulated signature coverage must sit within the analytic 2^-k
  // aliasing bound of full-observation coverage. The expected aliased
  // mass is raw_detected * 2^-k (~1e-6 classes at k = 32); we allow
  // 1e5x the expectation (~2e-5) before declaring failure — below the
  // coverage a single wrongly-aliased weight-1 class would cost in this
  // universe, so even one such class fails the check.
  const double expected_loss =
      reference.raw_coverage * bist::misr_aliasing_probability(32);
  const double measured_loss = reference.aliasing_loss();
  const bool within_bound = measured_loss <= expected_loss * 1e5;
  std::cout << "\nk=32 session: full-obs coverage "
            << util::format_percent(reference.raw_coverage, 3)
            << ", signature coverage "
            << util::format_percent(reference.signature_coverage, 3)
            << "\n  measured aliasing loss " << measured_loss
            << " vs analytic expectation " << expected_loss << ": "
            << (within_bound ? "within bound" : "OUT OF BOUND") << "\n";

  // 4. What compaction costs in shipped quality at the narrow widths:
  // the DPPM gap between testing with full observation and shipping on a
  // k-bit signature.
  std::cout << "\nAt k=8 the signature forfeits "
            << util::format_percent(narrow.aliasing_loss(), 3)
            << " coverage; the product's reject rate moves from "
            << util::format_double(dppm_full, 0) << " to "
            << util::format_double(product.dppm(narrow.signature_coverage),
                                   0)
            << " DPPM.\n";

  return (deterministic && within_bound) ? EXIT_SUCCESS : EXIT_FAILURE;
}
