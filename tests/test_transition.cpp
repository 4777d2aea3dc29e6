// Transition-fault subsystem tests: the fault_model enum and naming, the
// transition universe's restricted collapsing, hand-checked two-pattern
// launch/capture detections (including the pattern-0 and 64-pattern word
// boundary cases), serial/PPSFP/PPSFP-MT bit-identity on the transition
// model, and the launch gating of the dictionary and BIST layers.
#include "fault_model/universe.hpp"

#include <gtest/gtest.h>

#include "bist/session.hpp"
#include "circuit/generators.hpp"
#include "fault/dictionary.hpp"
#include "fault/fault_sim.hpp"
#include "fault/strobe.hpp"
#include "tpg/atpg.hpp"
#include "tpg/lfsr.hpp"
#include "util/error.hpp"
#include "util/rng.hpp"

namespace lsiq::fault_model {
namespace {

using circuit::Circuit;
using circuit::GateId;
using circuit::GateType;
using fault::Fault;
using fault::FaultList;
using fault::FaultSimResult;
using sim::PatternSet;

/// All 2^n input patterns for a small circuit (bit i of the pattern index
/// drives input i, so consecutive patterns form natural launch pairs).
PatternSet exhaustive_patterns(const Circuit& c) {
  const std::size_t n = c.pattern_inputs().size();
  PatternSet p(n);
  for (std::uint64_t x = 0; x < (1ULL << n); ++x) {
    std::vector<bool> bits(n);
    for (std::size_t i = 0; i < n; ++i) {
      bits[i] = ((x >> i) & 1ULL) != 0;
    }
    p.append(bits);
  }
  return p;
}

TEST(FaultModel, NamesRoundTrip) {
  for (const FaultModel model :
       {FaultModel::kStuckAt, FaultModel::kTransition}) {
    EXPECT_EQ(fault_model_from_name(fault_model_name(model)), model);
  }
  EXPECT_EQ(fault_model_name(FaultModel::kTransition), "transition");
  EXPECT_EQ(fault_model_label(FaultModel::kTransition), "transition");
  EXPECT_EQ(fault_model_label(FaultModel::kStuckAt), "stuck-at");
  EXPECT_FALSE(fault_model_from_name("bridging").has_value());
}

TEST(FaultModel, PolarityNamesFollowTheEncoding) {
  EXPECT_EQ(polarity_name(FaultModel::kStuckAt, false), "s-a-0");
  EXPECT_EQ(polarity_name(FaultModel::kStuckAt, true), "s-a-1");
  EXPECT_EQ(polarity_name(FaultModel::kTransition, false), "slow-to-rise");
  EXPECT_EQ(polarity_name(FaultModel::kTransition, true), "slow-to-fall");
}

TEST(FaultModel, FaultNameIsModelAware) {
  const Circuit c = circuit::make_c17();
  const GateId g16 = c.find("G16");
  EXPECT_EQ(fault_name(c, Fault{g16, -1, true}, FaultModel::kTransition),
            "G16/out slow-to-fall");
  EXPECT_EQ(fault_name(c, Fault{g16, 0, false}, FaultModel::kTransition),
            "G16/in0 slow-to-rise");
  // The two-argument overload keeps its stuck-at meaning.
  EXPECT_EQ(fault_name(c, Fault{g16, -1, true}), "G16/out s-a-1");
}

TEST(FaultModel, UniverseFactoryTagsTheList) {
  const Circuit c = circuit::make_c17();
  const FaultList sa = universe(c, FaultModel::kStuckAt);
  const FaultList tr = universe(c, FaultModel::kTransition);
  EXPECT_EQ(sa.model(), FaultModel::kStuckAt);
  EXPECT_EQ(tr.model(), FaultModel::kTransition);
  // Same sites and polarities enumerated: N is model-independent...
  EXPECT_EQ(sa.fault_count(), tr.fault_count());
  // ...but the controlling-value rules are stuck-at-only, so the
  // transition universe collapses less.
  EXPECT_GT(tr.class_count(), sa.class_count());
}

TEST(TransitionCollapse, InverterChainStillCollapsesToOneLine) {
  // a -> NOT -> NOT -> NOT: single-input gates preserve the launch
  // condition, so the chain collapses exactly as under stuck-at (with
  // polarity flipping through each NOT).
  Circuit c("chain");
  GateId prev = c.add_input("a");
  for (int i = 0; i < 3; ++i) {
    prev = c.add_gate(GateType::kNot, {prev}, "n" + std::to_string(i));
  }
  c.mark_output(prev);
  c.finalize();
  const FaultList faults = FaultList::transition_universe(c);
  EXPECT_EQ(faults.fault_count(), 14u);
  EXPECT_EQ(faults.class_count(), 2u);
}

TEST(TransitionCollapse, AndInputsDoNotMergeWithTheOutput) {
  Circuit c("and2");
  const GateId a = c.add_input("a");
  const GateId b = c.add_input("b");
  const GateId y = c.add_gate(GateType::kAnd, {a, b}, "y");
  c.mark_output(y);
  c.finalize();
  const FaultList faults = FaultList::transition_universe(c);
  // Stuck-at would merge in s-a-0 with out s-a-0; a slow input is NOT a
  // slow output (the output's launch does not pin which input launched).
  EXPECT_NE(faults.class_of(faults.index_of(Fault{y, 0, false})),
            faults.class_of(faults.index_of(Fault{y, -1, false})));
  // Single-fanout branch == driver stem still holds (same line).
  EXPECT_EQ(faults.class_of(faults.index_of(Fault{y, 0, false})),
            faults.class_of(faults.index_of(Fault{a, -1, false})));
}

TEST(TransitionDetect, HandCheckedOnAnd2) {
  Circuit c("and2");
  const GateId a = c.add_input("a");
  const GateId b = c.add_input("b");
  const GateId y = c.add_gate(GateType::kAnd, {a, b}, "y");
  c.mark_output(y);
  c.finalize();
  const FaultList faults = FaultList::transition_universe(c);

  // Patterns in order: 00, 01, 10, 11 (bit 0 = a, bit 1 = b).
  const FaultSimResult r =
      fault::simulate_ppsfp(faults, exhaustive_patterns(c));
  const auto first = [&](const Fault& f) {
    return r.first_detection[faults.class_of(faults.index_of(f))];
  };

  // y slow-to-rise: capture needs y = 1 (pattern 3, a=b=1) and the
  // previous pattern y = 0 (pattern 2: yes) -> detected at 3.
  EXPECT_EQ(first(Fault{y, -1, false}), 3);
  // y slow-to-fall: capture needs y = 0 with previous y = 1; y is only 1
  // on the last pattern -> never.
  EXPECT_EQ(first(Fault{y, -1, true}), -1);
  // a slow-to-rise: capture s-a-0(a) needs a=1,b=1 (pattern 3), launch
  // a=0 on pattern 2: detected at 3.
  EXPECT_EQ(first(Fault{a, -1, false}), 3);
  // a slow-to-fall: capture s-a-1(a) needs a=0,b=1 (pattern 2), launch
  // a=1 on pattern 1: detected at 2.
  EXPECT_EQ(first(Fault{a, -1, true}), 2);
  // b slow-to-rise: capture needs b=1,a=1 (pattern 3) but b was already 1
  // on pattern 2 -> no launch, never detected.
  EXPECT_EQ(first(Fault{b, -1, false}), -1);
  // b slow-to-fall: capture s-a-1(b) needs b=0,a=1 (pattern 1 only),
  // launch needs b=1 on pattern 0 (it is 0) -> never.
  EXPECT_EQ(first(Fault{b, -1, true}), -1);
  EXPECT_LT(r.coverage, 1.0);
}

TEST(TransitionDetect, FirstPatternNeverDetects) {
  // A capture-ready first pattern must not count: there is no launch.
  Circuit c("buf");
  const GateId a = c.add_input("a");
  const GateId y = c.add_gate(GateType::kBuf, {a}, "y");
  c.mark_output(y);
  c.finalize();
  const FaultList faults = FaultList::transition_universe(c);
  const std::size_t str = faults.class_of(faults.index_of(Fault{a, -1, false}));

  PatternSet starts_high(1);
  starts_high.append({true});   // slow-to-rise capture, but pattern 0
  starts_high.append({true});   // no 0->1 transition afterwards either
  const FaultSimResult r = fault::simulate_ppsfp(faults, starts_high);
  EXPECT_EQ(r.first_detection[str], -1);

  PatternSet with_launch(1);
  with_launch.append({true});
  with_launch.append({false});  // launch...
  with_launch.append({true});   // ...capture at pattern 2
  const FaultSimResult r2 = fault::simulate_ppsfp(faults, with_launch);
  EXPECT_EQ(r2.first_detection[str], 2);
}

TEST(TransitionDetect, LaunchCarriesAcrossTheWordBoundary) {
  // The pair (63, 64) spans two 64-pattern blocks: pattern 64's launch
  // value is pattern 63's good value, carried between blocks.
  Circuit c("buf");
  const GateId a = c.add_input("a");
  const GateId y = c.add_gate(GateType::kBuf, {a}, "y");
  c.mark_output(y);
  c.finalize();
  const FaultList faults = FaultList::transition_universe(c);
  const std::size_t str = faults.class_of(faults.index_of(Fault{a, -1, false}));
  const std::size_t stf = faults.class_of(faults.index_of(Fault{a, -1, true}));

  // 64 zeros then a single 1: the only rising pair is (63, 64).
  PatternSet rise(1);
  for (int i = 0; i < 64; ++i) rise.append({false});
  rise.append({true});
  // 64 ones then a single 0: the only falling pair is (63, 64).
  PatternSet fall(1);
  for (int i = 0; i < 64; ++i) fall.append({true});
  fall.append({false});

  for (const bool mt : {false, true}) {
    SCOPED_TRACE(mt ? "ppsfp_mt" : "ppsfp");
    const FaultSimResult r_rise =
        mt ? fault::simulate_ppsfp_mt(faults, rise, nullptr, 3)
           : fault::simulate_ppsfp(faults, rise);
    EXPECT_EQ(r_rise.first_detection[str], 64);
    EXPECT_EQ(r_rise.first_detection[stf], -1);
    const FaultSimResult r_fall =
        mt ? fault::simulate_ppsfp_mt(faults, fall, nullptr, 3)
           : fault::simulate_ppsfp(faults, fall);
    EXPECT_EQ(r_fall.first_detection[stf], 64);
    EXPECT_EQ(r_fall.first_detection[str], -1);
  }
  // The serial oracle computes its launch words independently.
  EXPECT_EQ(fault::simulate_serial(faults, rise).first_detection[str], 64);
  EXPECT_EQ(fault::simulate_serial(faults, fall).first_detection[stf], 64);
}

/// Transition counterpart of test_fault_sim's engine cross-check: every
/// engine must produce the identical FaultSimResult on the transition
/// universe, with and without a strobe schedule, at 1/2/8 threads.
void expect_transition_engines_agree(const Circuit& c,
                                     const PatternSet& patterns,
                                     const fault::StrobeSchedule* schedule) {
  const FaultList faults = FaultList::transition_universe(c);
  const FaultSimResult serial =
      fault::simulate_serial(faults, patterns, schedule);
  const FaultSimResult ppsfp =
      fault::simulate_ppsfp(faults, patterns, schedule);
  ASSERT_EQ(serial.first_detection, ppsfp.first_detection) << c.name();
  EXPECT_EQ(serial.covered_faults, ppsfp.covered_faults) << c.name();
  EXPECT_DOUBLE_EQ(serial.coverage, ppsfp.coverage) << c.name();
  for (const std::size_t threads : {1u, 2u, 8u}) {
    const FaultSimResult mt =
        fault::simulate_ppsfp_mt(faults, patterns, schedule, threads);
    ASSERT_EQ(serial.first_detection, mt.first_detection)
        << c.name() << " with " << threads << " threads";
    EXPECT_EQ(serial.covered_faults, mt.covered_faults) << c.name();
    EXPECT_EQ(serial.detected_classes, mt.detected_classes) << c.name();
    EXPECT_DOUBLE_EQ(serial.coverage, mt.coverage) << c.name();
  }
}

TEST(TransitionEngines, BitIdenticalAcrossGeneratorCircuits) {
  std::vector<Circuit> circuits;
  circuits.push_back(circuit::make_c17());
  circuits.push_back(circuit::make_ripple_carry_adder(4));
  circuits.push_back(circuit::make_alu(4));
  circuits.push_back(circuit::make_parity_tree(6));
  circuits.push_back(circuit::make_mux_tree(2));
  circuits.push_back(circuit::make_scan_accumulator(6));
  util::Rng rng(2024);
  for (const Circuit& c : circuits) {
    PatternSet patterns(c.pattern_inputs().size());
    patterns.append_random(96, rng);  // 1.5 blocks: exercises the carry
    expect_transition_engines_agree(c, patterns, nullptr);
  }
}

TEST(TransitionEngines, BitIdenticalUnderPartialStrobeSchedule) {
  std::vector<Circuit> circuits;
  circuits.push_back(circuit::make_c17());
  circuits.push_back(circuit::make_alu(4));
  circuits.push_back(circuit::make_scan_accumulator(6));
  util::Rng rng(2025);
  for (const Circuit& c : circuits) {
    PatternSet patterns(c.pattern_inputs().size());
    patterns.append_random(100, rng);
    const fault::StrobeSchedule schedule = fault::StrobeSchedule::progressive(
        c.observed_points().size(), 7);
    expect_transition_engines_agree(c, patterns, &schedule);
  }
}

TEST(TransitionEngines, BitIdenticalOnRandomDags) {
  for (const std::uint64_t seed : {5u, 23u, 87u}) {
    circuit::RandomDagSpec spec;
    spec.inputs = 10;
    spec.gates = 100;
    spec.seed = seed;
    const Circuit c = make_random_dag(spec);
    util::Rng rng(seed + 11);
    PatternSet patterns(c.pattern_inputs().size());
    patterns.append_random(80, rng);
    expect_transition_engines_agree(c, patterns, nullptr);
  }
}

TEST(TransitionDetect, CoverageNeverExceedsStuckAtOnPairedUniverses) {
  // Per site, a transition detection implies the capture stuck-at
  // detection — so weighted coverage on the same N cannot exceed the
  // stuck-at figure for the same program.
  const Circuit c = circuit::make_alu(4);
  const PatternSet patterns =
      tpg::lfsr_patterns(c.pattern_inputs().size(), 200, 3);
  const FaultList sa = FaultList::full_universe(c);
  const FaultList tr = FaultList::transition_universe(c);
  const FaultSimResult rsa = fault::simulate_ppsfp(sa, patterns);
  const FaultSimResult rtr = fault::simulate_ppsfp(tr, patterns);
  EXPECT_LE(rtr.coverage, rsa.coverage);
  EXPECT_GT(rtr.coverage, 0.5);

  // Site-level check against the universe enumeration (same order in both
  // lists): a detected transition fault's capture stuck-at is detected no
  // later.
  ASSERT_EQ(sa.fault_count(), tr.fault_count());
  for (std::size_t u = 0; u < tr.fault_count(); ++u) {
    ASSERT_EQ(sa.faults()[u], tr.faults()[u]);
    const std::int64_t t_tr = rtr.first_detection[tr.class_of(u)];
    const std::int64_t t_sa = rsa.first_detection[sa.class_of(u)];
    if (t_tr >= 0) {
      ASSERT_GE(t_sa, 0) << fault_name(c, tr.faults()[u],
                                       FaultModel::kTransition);
      EXPECT_LE(t_sa, t_tr);
    }
  }
}

TEST(TransitionDictionary, SignaturesMatchTheSerialOracle) {
  const Circuit c = circuit::make_ripple_carry_adder(4);
  const FaultList faults = FaultList::transition_universe(c);
  util::Rng rng(9);
  PatternSet patterns(c.pattern_inputs().size());
  patterns.append_random(80, rng);  // spans a block boundary

  const fault::FaultDictionary dictionary =
      fault::FaultDictionary::build(faults, patterns);
  const FaultSimResult oracle = fault::simulate_serial(faults, patterns);
  for (std::size_t cl = 0; cl < faults.class_count(); ++cl) {
    // First set bit of the dictionary row == the oracle's first detection.
    std::int64_t first = -1;
    for (std::size_t t = 0; t < patterns.size() && first < 0; ++t) {
      if (dictionary.detects(cl, t)) first = static_cast<std::int64_t>(t);
    }
    EXPECT_EQ(first, oracle.first_detection[cl])
        << fault_name(c, faults.representatives()[cl],
                      FaultModel::kTransition);
  }
}

TEST(TransitionBist, RawDetectionMatchesFaultSimAndAliasingIsSubset) {
  const Circuit c = circuit::make_alu(4);
  const FaultList faults = FaultList::transition_universe(c);
  const PatternSet patterns =
      tpg::lfsr_patterns(c.pattern_inputs().size(), 192, 17);

  bist::BistConfig config;
  config.misr_width = 8;  // narrow: aliasing plausible
  const bist::BistResult one =
      bist::BistSession(faults, patterns, config).run();
  config.num_threads = 4;
  const bist::BistResult many =
      bist::BistSession(faults, patterns, config).run();

  // Raw (full-observation) transition detection must equal the fault
  // simulator's; the session only adds compaction on top.
  const FaultSimResult direct = fault::simulate_ppsfp(faults, patterns);
  EXPECT_EQ(one.first_error_pattern, direct.first_detection);

  // Signature detection is raw detection minus aliasing, and the grading
  // is thread-count independent.
  EXPECT_LE(one.signature_detected_classes, one.raw_detected_classes);
  for (const std::uint32_t cls : one.aliased_classes) {
    EXPECT_GE(one.first_error_pattern[cls], 0);
  }
  EXPECT_EQ(one.fault_signatures, many.fault_signatures);
  EXPECT_EQ(one.first_divergence_pattern, many.first_divergence_pattern);
  EXPECT_EQ(one.good_signature, many.good_signature);
}

TEST(TransitionAtpg, GenerateTestsAcceptsTransitionUniverses) {
  // PR 4 rejected transition universes here ("transition ATPG is not
  // implemented"); two-pattern PODEM now closes them — the verdict is a
  // full test set, not a ContractViolation.
  const Circuit c = circuit::make_c17();
  const FaultList faults = FaultList::transition_universe(c);
  const tpg::AtpgResult result = tpg::generate_tests(faults, {});
  EXPECT_EQ(result.aborted_classes, 0u);
  EXPECT_DOUBLE_EQ(result.effective_coverage, 1.0);
  // The set really detects what generation claims: re-grade it with the
  // independent two-pattern fault simulator.
  const fault::FaultSimResult check =
      fault::simulate_ppsfp(faults, result.patterns);
  EXPECT_GE(check.coverage, result.coverage);
}

TEST(TransitionKernel, DetectWordTransitionRequiresBlockSync) {
  const Circuit c = circuit::make_c17();
  const FaultList faults = FaultList::transition_universe(c);
  fault::Propagator propagator(c);
  TwoPatternWindow window(c.gate_count());
  std::vector<std::uint64_t> good(c.gate_count(), 0);
  EXPECT_THROW(propagator.detect_word_transition(
                   faults.representatives().front(), good, window),
               ContractViolation);
}

}  // namespace
}  // namespace lsiq::fault_model
