// Unit tests for the static implication engine: direct forward/backward
// gate implications, learned indirect implications, implied constants,
// necessary assignments, and the stem-dominator / fanout-cone machinery.
// The dominator tests are table-driven with EXACT expected chains — the
// sets, not just membership — so a traversal-order bug cannot hide behind
// a superset. in_cone is checked against a transitive closure computed
// independently, necessary_seeds against its definition, and the learned
// products on generator circuits are pinned.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <ostream>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "analyze/implication.hpp"
#include "analyze/redundancy.hpp"
#include "circuit/bench_io.hpp"
#include "circuit/compiled.hpp"
#include "circuit/generators.hpp"
#include "circuit/netlist.hpp"
#include "fault/fault.hpp"
#include "sim/logic_value.hpp"
#include "util/hash.hpp"

namespace lsiq::analyze {
namespace {

using circuit::Circuit;
using circuit::GateId;
using circuit::GateType;
using circuit::kNoGate;
using sim::Tri;

TEST(Implication, DirectForwardAndBackwardAndRules) {
  Circuit c("and2");
  const GateId a = c.add_input("a");
  const GateId b = c.add_input("b");
  const GateId g = c.add_gate(GateType::kAnd, {a, b}, "g");
  c.mark_output(g);
  c.finalize();
  const circuit::CompiledCircuit compiled(c);
  const ImplicationEngine engine(compiled);

  std::vector<Tri> closure;
  // Forward: both neutral inputs force the output.
  ASSERT_TRUE(engine.propagate({make_literal(a, true), make_literal(b, true)},
                               closure));
  EXPECT_EQ(closure[g], Tri::kOne);
  // Forward: one controlling input suffices.
  ASSERT_TRUE(engine.propagate({make_literal(a, false)}, closure));
  EXPECT_EQ(closure[g], Tri::kZero);
  // Backward: a neutral output pins every input.
  ASSERT_TRUE(engine.propagate({make_literal(g, true)}, closure));
  EXPECT_EQ(closure[a], Tri::kOne);
  EXPECT_EQ(closure[b], Tri::kOne);
  // Backward unit rule: 0 at the output with one input known neutral
  // forces the remaining input to the controlling value.
  ASSERT_TRUE(engine.propagate({make_literal(g, false), make_literal(a, true)},
                               closure));
  EXPECT_EQ(closure[b], Tri::kZero);
}

TEST(Implication, InverterIsBidirectional) {
  Circuit c("inv");
  const GateId a = c.add_input("a");
  const GateId n = c.add_gate(GateType::kNot, {a}, "n");
  c.mark_output(n);
  c.finalize();
  const circuit::CompiledCircuit compiled(c);
  const ImplicationEngine engine(compiled);

  std::vector<Tri> closure;
  ASSERT_TRUE(engine.propagate({make_literal(n, true)}, closure));
  EXPECT_EQ(closure[a], Tri::kZero);
  ASSERT_TRUE(engine.propagate({make_literal(a, true)}, closure));
  EXPECT_EQ(closure[n], Tri::kZero);
}

TEST(Implication, XorBackwardSolvesTheSingleUnknown) {
  Circuit c("xor2");
  const GateId a = c.add_input("a");
  const GateId b = c.add_input("b");
  const GateId x = c.add_gate(GateType::kXor, {a, b}, "x");
  c.mark_output(x);
  c.finalize();
  const circuit::CompiledCircuit compiled(c);
  const ImplicationEngine engine(compiled);

  std::vector<Tri> closure;
  ASSERT_TRUE(engine.propagate({make_literal(x, true), make_literal(a, true)},
                               closure));
  EXPECT_EQ(closure[b], Tri::kZero);
  ASSERT_TRUE(engine.propagate(
      {make_literal(x, false), make_literal(a, true)}, closure));
  EXPECT_EQ(closure[b], Tri::kOne);
}

TEST(Implication, LearnsTheClassicIndirectImplication) {
  // z = OR(AND(a,b), AND(a,c)): no single gate rule derives z=1 => a=1
  // (the OR's backward rule does not know which term is true), but the
  // contrapositive of a=0 => z=0 does. This is the canonical SOCRATES
  // static-learning example.
  Circuit c("socrates");
  const GateId a = c.add_input("a");
  const GateId b = c.add_input("b");
  const GateId d = c.add_input("c");
  const GateId t1 = c.add_gate(GateType::kAnd, {a, b}, "t1");
  const GateId t2 = c.add_gate(GateType::kAnd, {a, d}, "t2");
  const GateId z = c.add_gate(GateType::kOr, {t1, t2}, "z");
  c.mark_output(z);
  c.finalize();
  const circuit::CompiledCircuit compiled(c);
  const ImplicationEngine engine(compiled);

  std::vector<Tri> closure;
  ASSERT_TRUE(engine.propagate({make_literal(z, true)}, closure));
  EXPECT_EQ(closure[a], Tri::kOne)
      << "indirect implication z=1 => a=1 was not learned";
}

TEST(Implication, ReconvergentConstantIsImplied) {
  // y = AND(a, NOT a) is constant 0 with no tied input anywhere — the
  // case the structural analyzer provably cannot see.
  Circuit c("recon");
  const GateId a = c.add_input("a");
  const GateId na = c.add_gate(GateType::kNot, {a}, "na");
  const GateId y = c.add_gate(GateType::kAnd, {a, na}, "y");
  const GateId b = c.add_input("b");
  const GateId out = c.add_gate(GateType::kOr, {y, b}, "out");
  c.mark_output(out);
  c.finalize();
  const circuit::CompiledCircuit compiled(c);
  const ImplicationEngine engine(compiled);

  EXPECT_EQ(engine.constant(y), LineValue::kZero);
  EXPECT_EQ(engine.constant(a), LineValue::kUnknown);
  EXPECT_EQ(engine.constant(out), LineValue::kUnknown);  // out follows b

  // Assuming the impossible literal is a contradiction...
  std::vector<Tri> closure;
  EXPECT_FALSE(engine.propagate({make_literal(y, true)}, closure));
  // ...so activation of y s-a-0 is impossible and justification of y=1
  // is unsatisfiable, while y=0 needs nothing at all.
  EXPECT_TRUE(
      engine.necessary_assignments(fault::Fault{y, -1, false}).contradictory);
  EXPECT_TRUE(engine.justification_assignments(y, true).contradictory);
  EXPECT_FALSE(engine.justification_assignments(y, false).contradictory);
}

TEST(Implication, NecessaryAssignmentsIncludeDominatorSideInputs) {
  // Chain a,b -> x = AND -> y = NOT -> out. Detecting b s-a-0 requires
  // activation (b=1) and unique sensitization through the dominator x,
  // whose side input a sits outside b's cone: a=1. The closure then adds
  // x=1 and y=0.
  Circuit c("chain");
  const GateId a = c.add_input("a");
  const GateId b = c.add_input("b");
  const GateId x = c.add_gate(GateType::kAnd, {a, b}, "x");
  const GateId y = c.add_gate(GateType::kNot, {x}, "y");
  c.mark_output(y);
  c.finalize();
  const circuit::CompiledCircuit compiled(c);
  const ImplicationEngine engine(compiled);

  const NecessaryAssignments necessary =
      engine.necessary_assignments(fault::Fault{b, -1, false});
  ASSERT_FALSE(necessary.contradictory);
  const std::vector<Literal> expected = {
      make_literal(a, true), make_literal(b, true), make_literal(x, true),
      make_literal(y, false)};
  EXPECT_EQ(necessary.literals, expected);
}

// ---- dominators: table-driven exact chains ----

struct DominatorCase {
  const char* label;
  GateId gate;
  std::vector<GateId> chain;  ///< expected dominators(gate), nearest first
};

void expect_chains(const ImplicationEngine& engine,
                   const std::vector<DominatorCase>& table) {
  for (const DominatorCase& row : table) {
    SCOPED_TRACE(row.label);
    EXPECT_EQ(engine.dominators(row.gate), row.chain);
    const GateId idom =
        row.chain.empty() ? kNoGate : row.chain.front();
    EXPECT_EQ(engine.immediate_dominator(row.gate), idom);
  }
}

TEST(Implication, DominatorsOnALinearChain) {
  Circuit c("line");
  const GateId a = c.add_input("a");
  const GateId b = c.add_input("b");
  const GateId x = c.add_gate(GateType::kAnd, {a, b}, "x");
  const GateId y = c.add_gate(GateType::kNot, {x}, "y");
  c.mark_output(y);
  c.finalize();
  const circuit::CompiledCircuit compiled(c);
  const ImplicationEngine engine(compiled);

  expect_chains(engine, {
                            {"a", a, {x, y}},
                            {"b", b, {x, y}},
                            {"x", x, {y}},
                            {"y", y, {}},
                        });
}

TEST(Implication, SingleStemReconvergenceDominatesAtTheMergeGate) {
  Circuit c("stem1");
  const GateId a = c.add_input("a");
  const GateId s = c.add_gate(GateType::kBuf, {a}, "s");
  const GateId p = c.add_gate(GateType::kNot, {s}, "p");
  const GateId q = c.add_gate(GateType::kBuf, {s}, "q");
  const GateId r = c.add_gate(GateType::kAnd, {p, q}, "r");
  c.mark_output(r);
  c.finalize();
  const circuit::CompiledCircuit compiled(c);
  const ImplicationEngine engine(compiled);

  expect_chains(engine, {
                            {"stem s", s, {r}},
                            {"branch p", p, {r}},
                            {"branch q", q, {r}},
                            {"merge r", r, {}},
                        });
}

TEST(Implication, NestedStemsReconvergeAtDifferentDepths) {
  // Two stems nested: s1's branches merge at m, which is itself a stem
  // whose branches merge at w. Every gate under s1 must list BOTH merge
  // points, in nearest-first order.
  Circuit c("stem2");
  const GateId a = c.add_input("a");
  const GateId s1 = c.add_gate(GateType::kBuf, {a}, "s1");
  const GateId p = c.add_gate(GateType::kNot, {s1}, "p");
  const GateId q = c.add_gate(GateType::kBuf, {s1}, "q");
  const GateId m = c.add_gate(GateType::kOr, {p, q}, "m");
  const GateId u = c.add_gate(GateType::kNot, {m}, "u");
  const GateId v = c.add_gate(GateType::kBuf, {m}, "v");
  const GateId w = c.add_gate(GateType::kAnd, {u, v}, "w");
  c.mark_output(w);
  c.finalize();
  const circuit::CompiledCircuit compiled(c);
  const ImplicationEngine engine(compiled);

  expect_chains(engine, {
                            {"outer stem s1", s1, {m, w}},
                            {"inner branch p", p, {m, w}},
                            {"inner merge m", m, {w}},
                            {"outer branch u", u, {w}},
                            {"outer merge w", w, {}},
                        });
}

TEST(Implication, MultipleOutputsBreakDominance) {
  // g feeds two primary outputs: its propagation paths diverge straight
  // to the virtual sink, so nothing dominates it.
  Circuit c("twoout");
  const GateId a = c.add_input("a");
  const GateId b = c.add_input("b");
  const GateId g = c.add_gate(GateType::kAnd, {a, b}, "g");
  const GateId o1 = c.add_gate(GateType::kBuf, {g}, "o1");
  const GateId o2 = c.add_gate(GateType::kNot, {g}, "o2");
  c.mark_output(o1);
  c.mark_output(o2);
  c.finalize();
  const circuit::CompiledCircuit compiled(c);
  const ImplicationEngine engine(compiled);

  expect_chains(engine, {
                            {"diverging g", g, {}},
                            {"o1", o1, {}},
                            {"a", a, {g}},
                        });
}

TEST(Implication, DffBoundariesEndDominatorChainsAndCones) {
  // g drives a flip-flop's D input: g is itself an observed point (full
  // scan), so its chain is empty, and the cone of g stops AT the DFF —
  // fault effects are captured, not propagated through.
  Circuit c("scan");
  const GateId a = c.add_input("a");
  const GateId b = c.add_input("b");
  const GateId g = c.add_gate(GateType::kAnd, {a, b}, "g");
  const GateId ff = c.add_dff("ff");
  c.connect_dff(ff, g);
  const GateId h = c.add_gate(GateType::kOr, {ff, a}, "h");
  c.mark_output(h);
  c.finalize();
  const circuit::CompiledCircuit compiled(c);
  const ImplicationEngine engine(compiled);

  expect_chains(engine, {
                            {"D driver g", g, {}},
                            {"dff output", ff, {h}},
                            {"input b", b, {g}},
                            {"input a (g and h paths)", a, {}},
                        });

  EXPECT_TRUE(engine.reaches_observed(g));
  EXPECT_TRUE(engine.in_cone(g, g));
  EXPECT_FALSE(engine.in_cone(g, h))
      << "a fault effect must not cross the scan boundary";
  EXPECT_TRUE(engine.in_cone(a, h));
}

TEST(Implication, UnreachableGatesAreReportedAsSuch) {
  Circuit c("dangling");
  const GateId a = c.add_input("a");
  const GateId live = c.add_gate(GateType::kBuf, {a}, "live");
  const GateId dead = c.add_gate(GateType::kNot, {a}, "dead");
  c.mark_output(live);
  c.finalize();
  const circuit::CompiledCircuit compiled(c);
  const ImplicationEngine engine(compiled);

  EXPECT_TRUE(engine.reaches_observed(live));
  EXPECT_FALSE(engine.reaches_observed(dead));
  EXPECT_EQ(engine.immediate_dominator(dead), kNoGate);
  EXPECT_TRUE(engine.dominators(dead).empty());
}

// ---- fanout cones and necessary seeds against their definitions ----

/// The circuits the cone checks sweep: small generator circuits (the scan
/// accumulator's flip-flops stop cones) and random DAGs.
std::vector<std::pair<std::string, Circuit>> cone_circuits() {
  std::vector<std::pair<std::string, Circuit>> circuits;
  circuits.emplace_back("c17", circuit::make_c17());
  circuits.emplace_back("alu4", circuit::make_alu(4));
  circuits.emplace_back("rot8", circuit::make_barrel_rotator(8));
  circuits.emplace_back("acc8", circuit::make_scan_accumulator(8));
  for (const std::uint64_t seed : {3u, 11u, 29u}) {
    circuit::RandomDagSpec spec;
    spec.inputs = 10;
    spec.gates = 120;
    spec.seed = seed;
    circuits.emplace_back("dag" + std::to_string(seed),
                          circuit::make_random_dag(spec));
  }
  return circuits;
}

/// reach[s][t] = 1 when a fault effect on s reaches t: the reflexive
/// transitive closure of the Circuit's fanout lists, with every edge into
/// a flip-flop cut (a scan capture). Built source by source with a plain
/// worklist, sharing no code with the engine.
std::vector<std::vector<char>> reference_cones(const Circuit& c) {
  const std::size_t n = c.gate_count();
  std::vector<std::vector<char>> reach(n, std::vector<char>(n, 0));
  for (GateId s = 0; s < n; ++s) {
    std::vector<GateId> work{s};
    reach[s][s] = 1;
    while (!work.empty()) {
      const GateId id = work.back();
      work.pop_back();
      for (const GateId reader : c.gate(id).fanout) {
        if (c.gate(reader).type == GateType::kDff || reach[s][reader] != 0) {
          continue;
        }
        reach[s][reader] = 1;
        work.push_back(reader);
      }
    }
  }
  return reach;
}

TEST(Implication, InConeMatchesAnIndependentTransitiveClosure) {
  for (const auto& [label, c] : cone_circuits()) {
    SCOPED_TRACE(label);
    const circuit::CompiledCircuit compiled(c);
    const ImplicationEngine engine(compiled);
    const std::vector<std::vector<char>> reach = reference_cones(c);
    std::size_t pairs_in_cone = 0;
    for (GateId s = 0; s < c.gate_count(); ++s) {
      for (GateId t = 0; t < c.gate_count(); ++t) {
        ASSERT_EQ(engine.in_cone(s, t), reach[s][t] != 0)
            << c.gate(s).name << " -> " << c.gate(t).name;
        pairs_in_cone += reach[s][t] != 0 ? 1 : 0;
      }
    }
    EXPECT_GT(pairs_in_cone, c.gate_count()) << "no cone beyond the diagonal";
  }
}

TEST(Implication, NecessarySeedsMatchTheirDefinition) {
  // The definition, spelled out with the public oracles: activation, the
  // reading gate's other pins non-controlling (branch faults), and every
  // AND/OR dominator's fanins outside the source's cone (in_cone, checked
  // above) non-controlling. DFF D-pin branches stop at activation.
  const auto and_like = [](GateType t) {
    return t == GateType::kAnd || t == GateType::kNand;
  };
  const auto or_like = [](GateType t) {
    return t == GateType::kOr || t == GateType::kNor;
  };
  for (const auto& [label, c] : cone_circuits()) {
    SCOPED_TRACE(label);
    const circuit::CompiledCircuit compiled(c);
    const ImplicationEngine engine(compiled);
    std::size_t side_seeds = 0;
    for (GateId g = 0; g < c.gate_count(); ++g) {
      std::vector<fault::Fault> faults = {{g, -1, false}, {g, -1, true}};
      for (std::int32_t pin = 0;
           pin < static_cast<std::int32_t>(c.gate(g).fanin.size()); ++pin) {
        faults.push_back({g, pin, false});
        faults.push_back({g, pin, true});
      }
      for (const fault::Fault& f : faults) {
        const GateType type = c.gate(g).type;
        std::vector<Literal> expected = {
            make_literal(fault::fault_line(compiled, f), !f.stuck_at_one)};
        if (fault::is_stem(f) || type != GateType::kDff) {
          if (!fault::is_stem(f) && (and_like(type) || or_like(type))) {
            for (std::size_t q = 0; q < c.gate(g).fanin.size(); ++q) {
              if (static_cast<std::int32_t>(q) == f.pin) continue;
              expected.push_back(
                  make_literal(c.gate(g).fanin[q], and_like(type)));
            }
          }
          for (const GateId dom : engine.dominators(g)) {
            const GateType dom_type = c.gate(dom).type;
            if (!and_like(dom_type) && !or_like(dom_type)) continue;
            for (const GateId pin : c.gate(dom).fanin) {
              if (engine.in_cone(g, pin)) continue;
              expected.push_back(make_literal(pin, and_like(dom_type)));
              ++side_seeds;
            }
          }
        }
        std::sort(expected.begin(), expected.end());
        expected.erase(std::unique(expected.begin(), expected.end()),
                       expected.end());
        ASSERT_EQ(engine.necessary_seeds(f), expected)
            << fault::fault_name(c, f);
      }
    }
    if (label != "c17") {
      EXPECT_GT(side_seeds, 0u) << "no dominator side input";
    }
  }
}

// ---- the engine's products, pinned on generator circuits ----

struct ProductsCase {
  const char* label;
  Circuit circuit;
  std::size_t learned_edges;
  std::size_t constant_lines;  ///< tied and implied
  std::size_t redundant_sites;
};

TEST(Implication, LearnedProductsArePinnedOnGeneratorCircuits) {
  std::vector<ProductsCase> table;
  table.push_back({"mult16", circuit::make_array_multiplier(16), 1516, 0, 0});
  table.push_back({"alu4", circuit::make_alu(4), 670, 0, 0});
  table.push_back(
      {"csa16/4", circuit::make_carry_select_adder(16, 4), 252, 9, 30});
  for (const ProductsCase& row : table) {
    SCOPED_TRACE(row.label);
    const circuit::CompiledCircuit compiled(row.circuit);
    const ImplicationEngine engine(compiled);
    EXPECT_EQ(engine.learned_edge_count(), row.learned_edges);
    std::size_t constants = 0;
    for (GateId id = 0; id < compiled.node_count(); ++id) {
      constants += engine.constant(id) != LineValue::kUnknown ? 1 : 0;
    }
    EXPECT_EQ(constants, row.constant_lines);
    EXPECT_EQ(identify_redundancies(engine).sites.size(), row.redundant_sites);
  }
}

// ---- the prover's whole output, pinned ----
//
// The counts above pass under changes that move which lines are constant
// or which closures hold, as long as the totals agree. These pin every
// product of the engine and of identify_redundancies per circuit: an
// FNV-1a digest over every line's constant(), learned_edge_count(), each
// literal's consistency and, when consistent, its dense propagate()
// closure (a contradiction's partial state depends only on propagation
// order, so it is left out), and every RedundantSite. Random DAGs 5 and
// 12 bake a constant in the first round after learning; on 16 and 168 the
// one constant learning adds comes from a literal with no learned edge of
// its own, reached through one in its closure.

struct ProverPin {
  const char* circuit;
  std::size_t constant_lines;
  std::size_t learned_edges;
  std::size_t redundant_sites;
  std::uint64_t digest;
};

// Without this GoogleTest prints a pin as its raw bytes, circuit pointer
// included, so the listed test name changed with every load address.
void PrintTo(const ProverPin& pin, std::ostream* os) { *os << pin.circuit; }

// clang-format off
const ProverPin kProverPins[] = {
    {"c17", 0, 1, 0, 0x8e02dfcd35497c1fULL},
    {"mult4", 0, 88, 0, 0x4acd166ec78637c3ULL},
    {"mult8", 0, 372, 0, 0x7e7d671123fca4a1ULL},
    {"mult16", 0, 1516, 0, 0x026f603a1afdf4a8ULL},
    {"alu2", 0, 244, 0, 0xa33c4b50c4dbdd90ULL},
    {"alu4", 0, 670, 0, 0xe8bd157d1919c9dbULL},
    {"alu8", 0, 2098, 0, 0x86dee7cc7f79620dULL},
    {"alu16", 0, 4544, 0, 0xd2b667c07490ca39ULL},
    {"csa8_4", 3, 92, 10, 0x9b0e420017933c49ULL},
    {"csa12_4", 6, 172, 20, 0xded7c1f54161e743ULL},
    {"csa16_4", 9, 252, 30, 0xc37334449b16e61bULL},
    {"csa32_4", 21, 572, 70, 0xa06bf0f42660f6b4ULL},
    {"csa16_8", 3, 168, 10, 0x75d43f287a558653ULL},
    {"rca8", 0, 24, 0, 0x126026ee19c39909ULL},
    {"rca32", 0, 96, 0, 0x34f6caa243c4289eULL},
    {"maj5", 0, 0, 0, 0x3c292c68788bc4dbULL},
    {"parity16", 0, 0, 0, 0xe95a0a97b17a78d7ULL},
    {"mux4", 0, 0, 0, 0x8f2ee1f8bf122b69ULL},
    {"dec4", 0, 0, 0, 0xea9651dad27c682bULL},
    {"cmp8", 0, 354, 0, 0xe212b96e81ce07cfULL},
    {"acc8", 0, 23, 0, 0xbe6132b4eab3ab4cULL},
    {"rot8", 0, 0, 0, 0xddc2d87201a00c27ULL},
    {"lint_demo", 0, 1, 2, 0x72a29944ff56eb8bULL},
    {"dag1", 13, 468, 298, 0x433d63900eb79082ULL},
    {"dag2", 18, 318, 423, 0x2f8c8beed09d1aacULL},
    {"dag3", 21, 322, 310, 0x03c9d838586d6da4ULL},
    {"dag4", 56, 102, 742, 0xcee1ae26c0bfb7c1ULL},
    {"dag5", 43, 775, 477, 0xce514bac7f0eb48aULL},
    {"dag6", 28, 355, 612, 0x0c808e609bb708dfULL},
    {"dag7", 20, 296, 383, 0x0a14ff9aa8d4346fULL},
    {"dag8", 34, 719, 657, 0xde8d1c0cbf4250d3ULL},
    {"dag9", 20, 334, 322, 0x07673c739b713ab1ULL},
    {"dag10", 20, 228, 849, 0xfc3b47099a0b07eeULL},
    {"dag11", 35, 372, 537, 0x7c25fb89e7633f6aULL},
    {"dag12", 39, 557, 419, 0x1fd83392d639c5cfULL},
    {"dag16", 34, 501, 378, 0x05f0785e05ea2820ULL},
    {"dag168", 37, 389, 412, 0x0818779318dbcb76ULL},
};
// clang-format on

Circuit prover_circuit(std::string_view name) {
  const std::string_view dag = "dag";
  if (name.substr(0, dag.size()) == dag) {
    circuit::RandomDagSpec spec;
    spec.seed = std::stoull(std::string(name.substr(dag.size())));
    return circuit::make_random_dag(spec);
  }
  if (name == "c17") return circuit::make_c17();
  if (name == "mult4") return circuit::make_array_multiplier(4);
  if (name == "mult8") return circuit::make_array_multiplier(8);
  if (name == "mult16") return circuit::make_array_multiplier(16);
  if (name == "alu2") return circuit::make_alu(2);
  if (name == "alu4") return circuit::make_alu(4);
  if (name == "alu8") return circuit::make_alu(8);
  if (name == "alu16") return circuit::make_alu(16);
  if (name == "csa8_4") return circuit::make_carry_select_adder(8, 4);
  if (name == "csa12_4") return circuit::make_carry_select_adder(12, 4);
  if (name == "csa16_4") return circuit::make_carry_select_adder(16, 4);
  if (name == "csa32_4") return circuit::make_carry_select_adder(32, 4);
  if (name == "csa16_8") return circuit::make_carry_select_adder(16, 8);
  if (name == "rca8") return circuit::make_ripple_carry_adder(8);
  if (name == "rca32") return circuit::make_ripple_carry_adder(32);
  if (name == "maj5") return circuit::make_majority(5);
  if (name == "parity16") return circuit::make_parity_tree(16);
  if (name == "mux4") return circuit::make_mux_tree(4);
  if (name == "dec4") return circuit::make_decoder(4);
  if (name == "cmp8") return circuit::make_comparator(8);
  if (name == "acc8") return circuit::make_scan_accumulator(8);
  if (name == "rot8") return circuit::make_barrel_rotator(8);
  return circuit::read_bench_file(std::string(LSIQ_SOURCE_DIR) +
                                  "/tools/specs/lint_demo.bench");
}

std::uint64_t prover_digest(const ImplicationEngine& engine,
                            const RedundancyReport& report) {
  const std::size_t n = engine.compiled().node_count();
  std::string bytes;
  for (GateId id = 0; id < n; ++id) {
    bytes += static_cast<char>(engine.constant(id));
  }
  bytes += std::to_string(engine.learned_edge_count()) + '\n';
  std::vector<Tri> closure;
  for (Literal lit = 0; lit < 2 * n; ++lit) {
    const bool consistent = engine.propagate({lit}, closure);
    bytes += consistent ? '1' : '0';
    if (!consistent) continue;
    for (const Tri value : closure) bytes += static_cast<char>(value);
  }
  for (const RedundantSite& site : report.sites) {
    bytes += std::to_string(site.fault.gate) + ' ' +
             std::to_string(site.fault.pin) + ' ' +
             (site.fault.stuck_at_one ? '1' : '0') + ' ' +
             redundancy_reason_name(site.reason) + ' ' +
             std::to_string(site.witness) + '\n';
  }
  return util::fnv1a(bytes);
}

class ProverGolden : public ::testing::TestWithParam<ProverPin> {};

TEST_P(ProverGolden, PinsConstantsEdgesClosuresAndSites) {
  const ProverPin& pin = GetParam();
  const Circuit c = prover_circuit(pin.circuit);
  const circuit::CompiledCircuit compiled(c);
  const ImplicationEngine engine(compiled);
  const RedundancyReport report = identify_redundancies(engine);
  std::size_t constants = 0;
  for (GateId id = 0; id < compiled.node_count(); ++id) {
    constants += engine.constant(id) != LineValue::kUnknown ? 1 : 0;
  }
  EXPECT_EQ(constants, pin.constant_lines);
  EXPECT_EQ(engine.learned_edge_count(), pin.learned_edges);
  EXPECT_EQ(report.sites.size(), pin.redundant_sites);
  EXPECT_EQ(prover_digest(engine, report), pin.digest);
}

INSTANTIATE_TEST_SUITE_P(
    Circuits, ProverGolden, ::testing::ValuesIn(kProverPins),
    [](const ::testing::TestParamInfo<ProverPin>& info) {
      return std::string(info.param.circuit);
    });

TEST(Implication, Mult64LearningKeepsOnlyTheLowestLinesOfALongClosure) {
  // The one generator circuit whose learning meets a closure longer than
  // the per-literal store cap: the edge count pins which lines were kept.
  const Circuit c = circuit::make_array_multiplier(64);
  const circuit::CompiledCircuit compiled(c);
  const ImplicationEngine engine(compiled);
  EXPECT_EQ(engine.learned_edge_count(), 24473u);
}

TEST(Implication, ProbeRestoresEveryLineAfterAContradiction) {
  // y = AND(a, NOT a) is constant 0, so assuming b = 1 together with
  // y = 1 contradicts after b (and more) are set. restore() must put the
  // probe back to the baked-in constants, and the next closure must be
  // unaffected by the failed one.
  Circuit c("probe");
  const GateId a = c.add_input("a");
  const GateId b = c.add_input("b");
  const GateId na = c.add_gate(GateType::kNot, {a}, "na");
  const GateId y = c.add_gate(GateType::kAnd, {a, na}, "y");
  const GateId z = c.add_gate(GateType::kOr, {b, y}, "z");
  c.mark_output(z);
  c.finalize();
  const circuit::CompiledCircuit compiled(c);
  const ImplicationEngine engine(compiled);
  ASSERT_EQ(engine.constant(y), LineValue::kZero);

  ImplicationEngine::Probe probe = engine.make_probe();
  const std::vector<Tri> base = probe.values;
  const std::vector<Literal> doomed = {make_literal(b, true),
                                       make_literal(y, true)};
  EXPECT_FALSE(engine.assume(probe, doomed));
  EXPECT_FALSE(probe.trail.empty());
  engine.restore(probe);
  EXPECT_EQ(probe.values, base);
  EXPECT_TRUE(probe.trail.empty());
  EXPECT_TRUE(probe.queue.empty());

  const Literal z0 = make_literal(z, false);
  ASSERT_TRUE(engine.assume(probe, {&z0, 1}));
  std::vector<GateId> set = probe.trail;
  std::sort(set.begin(), set.end());
  EXPECT_EQ(set, (std::vector<GateId>{b, z}));
  EXPECT_EQ(probe.values[b], Tri::kZero);
  engine.restore(probe);
  EXPECT_EQ(probe.values, base);
}

}  // namespace
}  // namespace lsiq::analyze
