// Table-driven tests for the static netlist analyzer: every lint rule has
// a minimal netlist that triggers it (asserting the exact rule id, object
// and message of the diagnostic) and a near-miss that must stay clean of
// that rule — the analyze-layer counterpart of test_flow_validate.cpp.
#include "analyze/analyze.hpp"

#include <gtest/gtest.h>

#include <functional>
#include <string>
#include <vector>

#include "analyze/rule.hpp"
#include "circuit/generators.hpp"
#include "circuit/netlist.hpp"

namespace lsiq::analyze {
namespace {

using circuit::Circuit;
using circuit::GateId;
using circuit::GateType;

/// Options with every class enabled so a table case sees its rule fire
/// regardless of which class it belongs to.
Options all_on() {
  Options options;
  options.structure = Policy::kError;
  options.dead_logic = Policy::kWarn;
  options.untestable = Policy::kWarn;
  return options;
}

bool has_diagnostic(const Report& report, Rule rule,
                    const std::string& object, const std::string& message) {
  for (const Diagnostic& d : report.diagnostics) {
    if (d.rule == rule && d.object == object && d.message == message) {
      return true;
    }
  }
  return false;
}

bool has_rule(const Report& report, Rule rule) {
  for (const Diagnostic& d : report.diagnostics) {
    if (d.rule == rule) return true;
  }
  return false;
}

struct Case {
  const char* name;
  Rule rule;
  std::function<Circuit()> trigger;    ///< must fire `rule` with the
  const char* object;                  ///<   exact object and
  const char* message;                 ///<   exact message below
  std::function<Circuit()> near_miss;  ///< must stay clean of `rule`
};

const Case kCases[] = {
    {"combinational cycle",
     Rule::kCycle,
     [] {
       // x and y feed each other: only expressible through the set_fanin
       // rewiring seam, which is the point — add_gate alone cannot build
       // the damage this rule reports.
       Circuit c("cyclic");
       const GateId a = c.add_input("a");
       const GateId x = c.add_gate(GateType::kAnd, {a, a}, "x");
       const GateId y = c.add_gate(GateType::kAnd, {x, a}, "y");
       c.set_fanin(x, {y, a});
       c.mark_output(y);
       return c;
     },
     "y",
     "combinational cycle: y -> x -> y",
     [] {
       // The same feedback shape broken by a scan flip-flop is legal.
       Circuit c("dff_loop");
       const GateId a = c.add_input("a");
       const GateId d = c.add_dff("d");
       const GateId x = c.add_gate(GateType::kAnd, {a, d}, "x");
       c.connect_dff(d, x);
       c.mark_output(x);
       return c;
     }},
    {"floating gate",
     Rule::kFloatingGate,
     [] {
       Circuit c("floating");
       const GateId a = c.add_input("a");
       const GateId x = c.add_gate(GateType::kAnd, {a, a}, "x");
       c.set_fanin(x, {});
       c.mark_output(x);
       return c;
     },
     "x",
     "AND gate has no fanin (undriven net)",
     [] {
       // A constant source legitimately has no fanin.
       Circuit c("tied");
       const GateId a = c.add_input("a");
       const GateId t = c.add_gate(GateType::kConst0, {}, "tie0");
       const GateId x = c.add_gate(GateType::kOr, {a, t}, "x");
       c.mark_output(x);
       return c;
     }},
    {"unconnected flip-flop",
     Rule::kUnconnectedDff,
     [] {
       Circuit c("open_dff");
       const GateId a = c.add_input("a");
       const GateId d = c.add_dff("d");
       const GateId x = c.add_gate(GateType::kAnd, {a, d}, "x");
       c.mark_output(x);
       return c;
     },
     "d",
     "flip-flop D input was never connected (connect_dff)",
     [] {
       Circuit c("closed_dff");
       const GateId a = c.add_input("a");
       const GateId d = c.add_dff("d");
       const GateId x = c.add_gate(GateType::kAnd, {a, d}, "x");
       c.connect_dff(d, x);
       c.mark_output(x);
       return c;
     }},
    {"nothing observable",
     Rule::kNoObservedOutput,
     [] {
       Circuit c("blind");
       const GateId a = c.add_input("a");
       c.add_gate(GateType::kNot, {a}, "x");
       return c;  // no output, no flip-flop
     },
     "blind",
     "circuit has no primary output and no flip-flop D input: nothing is "
     "observable",
     [] {
       // No primary output, but a connected flip-flop's D input observes.
       Circuit c("dff_observed");
       const GateId a = c.add_input("a");
       const GateId d = c.add_dff("d");
       const GateId x = c.add_gate(GateType::kNot, {a}, "x");
       c.connect_dff(d, x);
       return c;
     }},
    {"nothing controllable",
     Rule::kNoPatternInput,
     [] {
       Circuit c("inert");
       const GateId t = c.add_gate(GateType::kConst0, {}, "tie0");
       const GateId x = c.add_gate(GateType::kNot, {t}, "x");
       c.mark_output(x);
       return c;  // no input, no flip-flop
     },
     "inert",
     "circuit has no primary input and no flip-flop: nothing is "
     "controllable",
     [] {
       Circuit c("driven");
       const GateId a = c.add_input("a");
       const GateId t = c.add_gate(GateType::kConst0, {}, "tie0");
       const GateId x = c.add_gate(GateType::kOr, {a, t}, "x");
       c.mark_output(x);
       return c;
     }},
    {"dangling gate",
     Rule::kDanglingGate,
     [] {
       Circuit c("dangling");
       const GateId a = c.add_input("a");
       c.add_gate(GateType::kNot, {a}, "x");
       const GateId y = c.add_gate(GateType::kBuf, {a}, "y");
       c.mark_output(y);
       return c;
     },
     "x",
     "gate output drives nothing and is not observed",
     [] {
       Circuit c("used");
       const GateId a = c.add_input("a");
       const GateId x = c.add_gate(GateType::kNot, {a}, "x");
       c.mark_output(x);
       const GateId y = c.add_gate(GateType::kBuf, {a}, "y");
       c.mark_output(y);
       return c;
     }},
    {"unused input",
     Rule::kUnusedInput,
     [] {
       Circuit c("spare_pin");
       const GateId a = c.add_input("a");
       c.add_input("b");
       const GateId x = c.add_gate(GateType::kBuf, {a}, "x");
       c.mark_output(x);
       return c;
     },
     "b",
     "primary input drives nothing",
     [] {
       Circuit c("both_used");
       const GateId a = c.add_input("a");
       const GateId b = c.add_input("b");
       const GateId x = c.add_gate(GateType::kAnd, {a, b}, "x");
       c.mark_output(x);
       return c;
     }},
    {"unobservable gate",
     Rule::kUnobservableGate,
     [] {
       // x's only route runs through an AND whose other pin is tied to the
       // controlling value: the cone is dead even though nothing dangles.
       Circuit c("masked");
       const GateId a = c.add_input("a");
       const GateId b = c.add_input("b");
       const GateId t = c.add_gate(GateType::kConst0, {}, "tie0");
       const GateId x = c.add_gate(GateType::kAnd, {a, b}, "x");
       const GateId y = c.add_gate(GateType::kAnd, {x, t}, "y");
       c.mark_output(y);
       return c;
     },
     "x",
     "no path to an observed point (every route is dead or blocked by "
     "constants)",
     [] {
       // Tie the side pin to the NON-controlling value and the route is
       // alive.
       Circuit c("passing");
       const GateId a = c.add_input("a");
       const GateId b = c.add_input("b");
       const GateId t = c.add_gate(GateType::kConst1, {}, "tie1");
       const GateId x = c.add_gate(GateType::kAnd, {a, b}, "x");
       const GateId y = c.add_gate(GateType::kAnd, {x, t}, "y");
       c.mark_output(y);
       return c;
     }},
    {"constant line",
     Rule::kConstantLine,
     [] {
       Circuit c("tied_or");
       const GateId a = c.add_input("a");
       const GateId t = c.add_gate(GateType::kConst1, {}, "tie1");
       const GateId x = c.add_gate(GateType::kOr, {a, t}, "x");
       c.mark_output(x);
       return c;
     },
     "x",
     "line is constant 1 under every input (tied constants reach it)",
     [] {
       // AND with a tied 1 still depends on `a`: no constant line.
       Circuit c("tied_and");
       const GateId a = c.add_input("a");
       const GateId t = c.add_gate(GateType::kConst1, {}, "tie1");
       const GateId x = c.add_gate(GateType::kAnd, {a, t}, "x");
       c.mark_output(x);
       return c;
     }},
    {"untestable fault (activation)",
     Rule::kUntestableFault,
     [] {
       Circuit c("tied_site");
       const GateId a = c.add_input("a");
       const GateId t = c.add_gate(GateType::kConst0, {}, "tie0");
       const GateId x = c.add_gate(GateType::kOr, {a, t}, "x");
       c.mark_output(x);
       return c;
     },
     "tie0/out s-a-0",
     "statically untestable: the line already holds the stuck value on "
     "every pattern",
     [] {
       Circuit c("free");
       const GateId a = c.add_input("a");
       const GateId b = c.add_input("b");
       const GateId x = c.add_gate(GateType::kAnd, {a, b}, "x");
       c.mark_output(x);
       return c;
     }},
};

TEST(Analyze, TableOfRules) {
  for (const Case& c : kCases) {
    SCOPED_TRACE(c.name);
    const Report triggered = analyze(c.trigger(), all_on());
    EXPECT_TRUE(has_diagnostic(triggered, c.rule, c.object, c.message))
        << "expected " << rule_name(c.rule) << " on '" << c.object
        << "'; got " << triggered.diagnostics.size()
        << " diagnostic(s), first: "
        << (triggered.diagnostics.empty()
                ? "(none)"
                : triggered.diagnostics[0].text());
    const Report clean = analyze(c.near_miss(), all_on());
    EXPECT_FALSE(has_rule(clean, c.rule))
        << "near-miss fired " << rule_name(c.rule);
  }
}

TEST(Analyze, BranchFaultBehindBlockedPinIsUntestable) {
  // x/in0 (the a-branch) cannot propagate through an AND whose other pin
  // is tied to 0 — the distinct driving-line / branch messages.
  Circuit c("blocked_branch");
  const GateId a = c.add_input("a");
  const GateId t = c.add_gate(GateType::kConst0, {}, "tie0");
  const GateId x = c.add_gate(GateType::kAnd, {a, t}, "x");
  c.mark_output(x);
  const Report report = analyze(c, all_on());
  EXPECT_TRUE(has_diagnostic(
      report, Rule::kUntestableFault, "x/in1 s-a-0",
      "statically untestable: the driving line already holds the stuck "
      "value on every pattern"));
  EXPECT_TRUE(has_diagnostic(
      report, Rule::kUntestableFault, "x/in0 s-a-0",
      "statically untestable: the fault effect cannot reach an observed "
      "point"));
  EXPECT_TRUE(has_diagnostic(
      report, Rule::kUntestableFault, "x/in0 s-a-1",
      "statically untestable: the fault effect cannot reach an observed "
      "point"));
}

TEST(Analyze, StructureFailureStopsValueAnalysis) {
  Circuit c("open_dff");
  const GateId a = c.add_input("a");
  c.add_dff("d");
  const GateId x = c.add_gate(GateType::kNot, {a}, "x");
  c.mark_output(x);
  const Report report = analyze(c, all_on());
  EXPECT_FALSE(report.structure_ok);
  EXPECT_TRUE(report.has_error_diagnostics());
  EXPECT_TRUE(report.constant.empty());
  EXPECT_TRUE(report.observable.empty());
  EXPECT_TRUE(report.untestable_sites.empty());
}

TEST(Analyze, SeverityFollowsClassPolicy) {
  Circuit c("spare_pin");
  const GateId a = c.add_input("a");
  c.add_input("b");
  const GateId x = c.add_gate(GateType::kBuf, {a}, "x");
  c.mark_output(x);

  Options options = all_on();
  options.dead_logic = Policy::kError;
  const Report as_error = analyze(c, options);
  EXPECT_TRUE(as_error.has_error_diagnostics());

  options.dead_logic = Policy::kOff;
  const Report off = analyze(c, options);
  EXPECT_FALSE(has_rule(off, Rule::kUnusedInput));
  // The analysis itself still ran: the vectors are filled either way.
  EXPECT_EQ(off.observable.size(), c.gate_count());
}

TEST(Analyze, PerRuleCapEmitsSummary) {
  // 5 unused inputs with max_per_rule = 2: two findings plus one summary.
  Circuit c("many_spares");
  const GateId a = c.add_input("a");
  for (int i = 0; i < 5; ++i) {
    c.add_input("spare" + std::to_string(i));
  }
  const GateId x = c.add_gate(GateType::kBuf, {a}, "x");
  c.mark_output(x);

  Options options = all_on();
  options.max_per_rule = 2;
  const Report report = analyze(c, options);
  std::size_t findings = 0;
  bool summary = false;
  for (const Diagnostic& d : report.diagnostics) {
    if (d.rule != Rule::kUnusedInput) continue;
    if (d.object.empty()) {
      summary = true;
      EXPECT_EQ(d.message,
                "3 more unused_input findings suppressed (5 total)");
    } else {
      ++findings;
    }
  }
  EXPECT_EQ(findings, 2u);
  EXPECT_TRUE(summary);
}

TEST(Analyze, DiagnosticJsonlAndTextForms) {
  Circuit c("tied_or");
  const GateId a = c.add_input("a");
  const GateId t = c.add_gate(GateType::kConst1, {}, "tie1");
  const GateId x = c.add_gate(GateType::kOr, {a, t}, "x");
  c.mark_output(x);
  const Report report = analyze(c, all_on());
  ASSERT_TRUE(has_rule(report, Rule::kConstantLine));
  for (const Diagnostic& d : report.diagnostics) {
    if (d.rule != Rule::kConstantLine) continue;
    EXPECT_EQ(d.to_jsonl(),
              "{\"rule\":\"constant_line\",\"class\":\"untestable\","
              "\"severity\":\"warning\",\"object\":\"x\",\"message\":"
              "\"line is constant 1 under every input (tied constants "
              "reach it)\"}");
    EXPECT_EQ(d.text(),
              "warning[constant_line] x: line is constant 1 under every "
              "input (tied constants reach it)");
    break;
  }
}

TEST(Analyze, ConstantPropagationThroughGates) {
  // not(1) = 0, xor(a, a-unknowns stay unknown), nand(0, a) = 1.
  Circuit c("lattice");
  const GateId a = c.add_input("a");
  const GateId one = c.add_gate(GateType::kConst1, {}, "one");
  const GateId inv = c.add_gate(GateType::kNot, {one}, "inv");       // 0
  const GateId nnd = c.add_gate(GateType::kNand, {inv, a}, "nnd");   // 1
  const GateId xo = c.add_gate(GateType::kXor, {one, inv}, "xo");    // 1
  const GateId free_xo = c.add_gate(GateType::kXor, {a, one}, "fx"); // ?
  c.mark_output(nnd);
  c.mark_output(xo);
  c.mark_output(free_xo);
  const Report report = analyze(c, all_on());
  ASSERT_EQ(report.constant.size(), c.gate_count());
  EXPECT_EQ(report.constant[inv], LineValue::kZero);
  EXPECT_EQ(report.constant[nnd], LineValue::kOne);
  EXPECT_EQ(report.constant[xo], LineValue::kOne);
  EXPECT_EQ(report.constant[free_xo], LineValue::kUnknown);
  EXPECT_EQ(report.constant[a], LineValue::kUnknown);
}

TEST(Analyze, HealthyGeneratorCircuitsLintClean) {
  const Circuit circuits[] = {circuit::make_c17(),
                              circuit::make_array_multiplier(4),
                              circuit::make_scan_accumulator(4)};
  for (const Circuit& c : circuits) {
    SCOPED_TRACE(c.name());
    const Report report = analyze(c, all_on());
    EXPECT_TRUE(report.structure_ok);
    EXPECT_TRUE(report.diagnostics.empty())
        << "first: " << report.diagnostics[0].text();
    EXPECT_TRUE(report.untestable_sites.empty());
  }
}

TEST(Analyze, ReportIsDeterministic) {
  const Circuit c1 = circuit::make_array_multiplier(4);
  const Report r1 = analyze(c1, all_on());
  const Report r2 = analyze(c1, all_on());
  EXPECT_EQ(r1.diagnostics.size(), r2.diagnostics.size());
  ASSERT_EQ(r1.untestable_sites.size(), r2.untestable_sites.size());
  for (std::size_t i = 0; i < r1.constant.size(); ++i) {
    EXPECT_EQ(r1.constant[i], r2.constant[i]);
  }
}

TEST(Analyze, UntestableSitesFollowFaultListOrder) {
  // Stems before pins, per gate, both polarities: the order contract the
  // cross-check against collapsed universes relies on.
  Circuit c("tied_site");
  const GateId a = c.add_input("a");
  const GateId t = c.add_gate(GateType::kConst0, {}, "tie0");
  const GateId x = c.add_gate(GateType::kOr, {a, t}, "x");
  c.mark_output(x);
  const Report report = analyze(c, all_on());
  ASSERT_EQ(report.untestable_sites.size(), 2u);
  // tie0 stem s-a-0, then x/in1 s-a-0 (gate order, stem before pin).
  EXPECT_EQ(report.untestable_sites[0].gate, t);
  EXPECT_EQ(report.untestable_sites[0].pin, -1);
  EXPECT_FALSE(report.untestable_sites[0].stuck_at_one);
  EXPECT_EQ(report.untestable_sites[1].gate, x);
  EXPECT_EQ(report.untestable_sites[1].pin, 1);
  EXPECT_FALSE(report.untestable_sites[1].stuck_at_one);
}

}  // namespace
}  // namespace lsiq::analyze
