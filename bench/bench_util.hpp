// Shared helpers for the figure/table regeneration harnesses.
//
// Every bench binary prints: a banner identifying the paper artifact it
// regenerates, the regenerated rows/series as aligned text, and — where the
// paper gives concrete numbers — a side-by-side "paper vs. reproduced"
// comparison. The output is deterministic, so two runs diff clean.
#pragma once

#include <string>
#include <vector>

#include "core/coverage_requirement.hpp"

namespace lsiq::bench {

/// Print a top-level banner: which figure/table of the paper this binary
/// regenerates and under what parameters.
void print_banner(const std::string& artifact, const std::string& subtitle);

/// Print a section heading inside a bench's output.
void print_section(const std::string& title);

/// Render one Figs. 2-4 style figure: required coverage vs yield for
/// n0 = 1..12 at the given reject-rate target, as a column-per-n0 table
/// (yields down the rows). `spot_checks` are (yield, n0, paper_value)
/// triples quoted in the paper's text for this figure.
struct SpotCheck {
  double yield;
  double n0;
  double paper_value;
  std::string source;  ///< e.g. "Section 7 text"
};

void print_required_coverage_figure(double reject_target,
                                    const std::vector<SpotCheck>& spot_checks);

}  // namespace lsiq::bench
