#include "flow/spec.hpp"

#include <cmath>
#include <sstream>

#include "analyze/rule.hpp"
#include "fault_model/fault_model.hpp"
#include "tpg/lfsr.hpp"

namespace lsiq::flow {

namespace {

bool one_of(const std::string& value,
            std::initializer_list<const char*> names) {
  for (const char* name : names) {
    if (value == name) return true;
  }
  return false;
}

std::string join_issues(const std::vector<SpecIssue>& issues) {
  std::ostringstream out;
  out << "invalid flow spec (" << issues.size() << " issue"
      << (issues.size() == 1 ? "" : "s") << ")";
  for (const SpecIssue& issue : issues) {
    out << "\n  " << issue.field << ": " << issue.message;
  }
  return out.str();
}

}  // namespace

std::vector<double> table1_strobes() {
  return {0.05, 0.08, 0.10, 0.15, 0.20, 0.30, 0.36, 0.45, 0.50, 0.65};
}

InvalidSpec::InvalidSpec(std::vector<SpecIssue> issues)
    : Error(join_issues(issues), ErrorCode::kInvalidSpec),
      issues_(std::move(issues)) {}

void validate_or_throw(const FlowSpec& spec) {
  std::vector<SpecIssue> issues = validate(spec);
  if (!issues.empty()) {
    throw InvalidSpec(std::move(issues));
  }
}

std::vector<SpecIssue> validate(const FlowSpec& spec) {
  std::vector<SpecIssue> issues;
  const auto add = [&issues](const char* field, std::string message) {
    issues.push_back(SpecIssue{field, std::move(message)});
  };

  // ---- axis 0: fault model ----
  // Resolve through the one canonical name list (fault_model.hpp) so the
  // transition-specific rules below cannot drift from what run() selects.
  const std::optional<fault_model::FaultModel> model =
      fault_model::fault_model_from_name(spec.fault_model.kind);
  const bool transition = model == fault_model::FaultModel::kTransition;
  if (!model.has_value()) {
    add("fault_model.kind",
        "unknown fault model '" + spec.fault_model.kind +
            "' (expected stuck_at or transition)");
  }

  // ---- axis 1: pattern source ----
  const PatternSourceSpec& source = spec.source;
  // Every source kind is valid under both fault models: the atpg source
  // dispatches on the universe's model tag (two-pattern launch/capture
  // generation for transition), and its program length is only known
  // after generation — flow::run re-checks the >= 2 pattern floor.
  if (!one_of(source.kind, {"lfsr", "atpg", "explicit", "file"})) {
    add("source.kind", "unknown pattern source '" + source.kind +
                           "' (expected lfsr, atpg, explicit, or file)");
  } else if (source.kind == "lfsr") {
    if (source.pattern_count == 0) {
      add("source.pattern_count", "lfsr source requires pattern_count > 0");
    } else if (transition && source.pattern_count < 2) {
      add("source.pattern_count",
          "transition grading needs at least 2 patterns (one launch/capture "
          "pair)");
    }
    if (!tpg::has_maximal_taps(source.lfsr_width)) {
      add("source.lfsr_width",
          "unsupported LFSR width " + std::to_string(source.lfsr_width) +
              " (use 4, 8, 16, 24, 32, 48 or 64)");
    }
  } else if (source.kind == "atpg") {
    if (source.atpg.podem.max_backtracks <= 0) {
      add("source.atpg.podem.max_backtracks",
          "atpg source requires max_backtracks > 0 (every deterministic "
          "solve would abort immediately)");
    }
  } else if (source.kind == "explicit") {
    if (!source.patterns.has_value() || source.patterns->empty()) {
      add("source.patterns",
          "explicit source requires a non-empty pattern set");
    } else if (transition && source.patterns->size() < 2) {
      add("source.patterns",
          "transition grading needs at least 2 patterns (one launch/capture "
          "pair)");
    }
  } else if (source.kind == "file") {
    if (source.file.empty()) {
      add("source.file", "file source requires a path");
    }
  }

  // ---- axis 2: observation ----
  const ObservationSpec& observe = spec.observe;
  const bool misr = observe.kind == "misr";
  if (!one_of(observe.kind, {"full", "progressive", "misr"})) {
    add("observe.kind", "unknown observation '" + observe.kind +
                            "' (expected full, progressive, or misr)");
  } else if (observe.kind == "progressive") {
    if (observe.strobe_step == 0) {
      add("observe.strobe_step",
          "progressive observation requires strobe_step > 0");
    }
  } else if (misr) {
    if (observe.misr_width < 1 || observe.misr_width > 64) {
      add("observe.misr_width",
          "MISR width must be in [1, 64], got " +
              std::to_string(observe.misr_width));
    } else if (observe.misr_taps == 0 &&
               !tpg::has_maximal_taps(observe.misr_width)) {
      add("observe.misr_width",
          "no standard polynomial for MISR width " +
              std::to_string(observe.misr_width) +
              "; set observe.misr_taps explicitly");
    } else if (observe.misr_taps != 0 && observe.misr_width < 64 &&
               (observe.misr_taps >> observe.misr_width) != 0) {
      add("observe.misr_taps", "MISR taps exceed the register width");
    }
  }

  // ---- axis 3: engine ----
  const EngineSpec& engine = spec.engine;
  if (!one_of(engine.kind, {"serial", "ppsfp"})) {
    add("engine.kind", "unknown engine '" + engine.kind +
                           "' (expected serial or ppsfp)");
  } else if (engine.kind == "serial" && misr) {
    add("engine.kind",
        "the serial engine has no signature-grading mode; use ppsfp with "
        "misr observation");
  }
  if (engine.grade_width != 1) {
    add("engine.grade_width", "grade_width must be 1, got " +
                                  std::to_string(engine.grade_width));
  }

  // ---- axis 4: lot + analysis ----
  const LotSpec& lot = spec.lot;
  const bool has_lot = lot.chip_count > 0 || lot.physical.has_value();
  // NOTE: the range checks below must stay NaN-proof — a NaN compares
  // false against every bound, so each one tests !isfinite explicitly.
  if (!std::isfinite(lot.yield) || lot.yield <= 0.0 || lot.yield >= 1.0) {
    add("lot.yield", "yield must be in (0, 1), got " +
                         std::to_string(lot.yield));
  }
  if (!std::isfinite(lot.n0) || lot.n0 < 1.0) {
    add("lot.n0",
        "n0 must be >= 1 (a defective chip has at least one fault), got " +
            std::to_string(lot.n0));
  }

  const AnalysisSpec& analysis = spec.analysis;
  if (!quality::characterization_method_from_name(analysis.method)
           .has_value()) {
    add("analysis.method",
        "unknown characterization method '" + analysis.method +
            "' (expected given, slope, discrete, or least_squares)");
  } else if (analysis.method != "given") {
    if (analysis.strobe_coverages.empty()) {
      add("analysis.method",
          "characterization from lot data requires strobe checkpoints");
    }
    if (!has_lot) {
      add("analysis.method",
          "characterization requires a lot; set lot.chip_count > 0");
    }
  }

  if (!analysis.strobe_coverages.empty()) {
    if (misr) {
      add("analysis.strobe_coverages",
          "misr observation makes one end-of-session decision; the strobe "
          "readout requires full or progressive observation");
    }
    if (!has_lot) {
      add("analysis.strobe_coverages",
          "the strobe readout requires a lot; set lot.chip_count > 0");
    }
    for (std::size_t i = 0; i < analysis.strobe_coverages.size(); ++i) {
      const double strobe = analysis.strobe_coverages[i];
      if (!std::isfinite(strobe) || strobe <= 0.0 || strobe > 1.0) {
        add("analysis.strobe_coverages",
            "strobe coverages must lie in (0, 1], got " +
                std::to_string(strobe));
        break;
      }
      if (i > 0 && strobe <= analysis.strobe_coverages[i - 1]) {
        add("analysis.strobe_coverages",
            "strobe coverages must be strictly increasing");
        break;
      }
    }
  }

  // ---- the analyze gate ----
  const AnalyzeSpec& analyze = spec.analyze;
  const auto check_policy = [&](const char* field, const std::string& value) {
    if (!lsiq::analyze::policy_from_name(value).has_value()) {
      add(field, "unknown analyze policy '" + value +
                     "' (expected off, warn, or error)");
    }
  };
  check_policy("analyze.structure", analyze.structure);
  check_policy("analyze.dead_logic", analyze.dead_logic);
  check_policy("analyze.untestable", analyze.untestable);
  check_policy("analyze.testability", analyze.testability);
  if (!std::isfinite(analyze.resistant_threshold) ||
      analyze.resistant_threshold <= 0.0 ||
      analyze.resistant_threshold >= 1.0) {
    add("analyze.resistant_threshold",
        "resistant threshold must be in (0, 1), got " +
            std::to_string(analyze.resistant_threshold));
  }

  for (const double target : analysis.reject_targets) {
    if (!std::isfinite(target) || target <= 0.0 || target >= 1.0) {
      add("analysis.reject_targets",
          "reject targets must lie in (0, 1), got " +
              std::to_string(target));
      break;
    }
  }

  return issues;
}

}  // namespace lsiq::flow
