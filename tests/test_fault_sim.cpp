// Fault-simulator tests: hand-checked detections on tiny circuits, the
// serial-vs-PPSFP cross-check property over generated and random circuits,
// and the scan-boundary special cases.
#include "fault/fault_sim.hpp"

#include <gtest/gtest.h>

#include "circuit/generators.hpp"
#include "sim/parallel_sim.hpp"
#include "tpg/lfsr.hpp"
#include "util/error.hpp"
#include "util/rng.hpp"

namespace lsiq::fault {
namespace {

using circuit::Circuit;
using circuit::GateId;
using circuit::GateType;
using sim::PatternSet;

/// All 2^n input patterns for a small circuit.
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

TEST(FaultSim, SingleAndGateHandChecked) {
  Circuit c("and2");
  const GateId a = c.add_input("a");
  const GateId b = c.add_input("b");
  const GateId y = c.add_gate(GateType::kAnd, {a, b}, "y");
  c.mark_output(y);
  c.finalize();
  const FaultList faults = FaultList::full_universe(c);

  // Patterns in order: 00, 01, 10, 11 (bit 0 = a, bit 1 = b).
  const PatternSet patterns = exhaustive_patterns(c);
  const FaultSimResult r = simulate_ppsfp(faults, patterns);

  // y s-a-1 is detected by any pattern with y = 0: the first is 00.
  const std::size_t y_sa1 = faults.class_of(faults.index_of(Fault{y, -1, true}));
  EXPECT_EQ(r.first_detection[y_sa1], 0);
  // y s-a-0 needs y = 1: only pattern 11 (index 3).
  const std::size_t y_sa0 =
      faults.class_of(faults.index_of(Fault{y, -1, false}));
  EXPECT_EQ(r.first_detection[y_sa0], 3);
  // a s-a-1 needs a=0, b=1 (good y=0, faulty y=1): pattern 10 (b=1,a=0) is
  // index 2.
  const std::size_t a_sa1 =
      faults.class_of(faults.index_of(Fault{a, -1, true}));
  EXPECT_EQ(r.first_detection[a_sa1], 2);
  // Everything is detectable by the exhaustive set.
  EXPECT_DOUBLE_EQ(r.coverage, 1.0);
}

TEST(FaultSim, ExhaustivePatternsDetectAllC17Faults) {
  const Circuit c = circuit::make_c17();
  const FaultList faults = FaultList::full_universe(c);
  const FaultSimResult r = simulate_ppsfp(faults, exhaustive_patterns(c));
  EXPECT_DOUBLE_EQ(r.coverage, 1.0) << "c17 has no redundant faults";
}

TEST(FaultSim, SerialMatchesPpsfpOnC17) {
  const Circuit c = circuit::make_c17();
  const FaultList faults = FaultList::full_universe(c);
  const PatternSet patterns = exhaustive_patterns(c);
  const FaultSimResult serial = simulate_serial(faults, patterns);
  const FaultSimResult ppsfp = simulate_ppsfp(faults, patterns);
  ASSERT_EQ(serial.first_detection.size(), ppsfp.first_detection.size());
  for (std::size_t cl = 0; cl < serial.first_detection.size(); ++cl) {
    EXPECT_EQ(serial.first_detection[cl], ppsfp.first_detection[cl])
        << fault_name(c, faults.representatives()[cl]);
  }
}

class SerialVsPpsfp : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(SerialVsPpsfp, AgreeOnRandomCircuitsAndPatterns) {
  circuit::RandomDagSpec spec;
  spec.inputs = 10;
  spec.gates = 120;
  spec.seed = GetParam();
  const Circuit c = make_random_dag(spec);
  const FaultList faults = FaultList::full_universe(c);

  util::Rng rng(GetParam() + 1000);
  PatternSet patterns(c.pattern_inputs().size());
  patterns.append_random(96, rng);  // 1.5 blocks

  const FaultSimResult serial = simulate_serial(faults, patterns);
  const FaultSimResult ppsfp = simulate_ppsfp(faults, patterns);
  ASSERT_EQ(serial.first_detection.size(), ppsfp.first_detection.size());
  for (std::size_t cl = 0; cl < serial.first_detection.size(); ++cl) {
    EXPECT_EQ(serial.first_detection[cl], ppsfp.first_detection[cl])
        << fault_name(c, faults.representatives()[cl]);
  }
  EXPECT_DOUBLE_EQ(serial.coverage, ppsfp.coverage);
}

INSTANTIATE_TEST_SUITE_P(Seeds, SerialVsPpsfp,
                         ::testing::Values(11, 22, 33, 44, 55, 66, 77, 88, 99,
                                           110));

TEST(FaultSim, SerialMatchesPpsfpOnSequentialCircuit) {
  Circuit c("seq");
  const GateId en = c.add_input("en");
  const GateId d_in = c.add_input("d_in");
  const GateId ff = c.add_dff("ff");
  const GateId mux_lo =
      c.add_gate(GateType::kAnd, {ff, en}, "hold");
  const GateId en_n = c.add_gate(GateType::kNot, {en}, "en_n");
  const GateId mux_hi = c.add_gate(GateType::kAnd, {d_in, en_n}, "load");
  const GateId d = c.add_gate(GateType::kOr, {mux_lo, mux_hi}, "d");
  c.connect_dff(ff, d);
  c.mark_output(d);
  c.finalize();

  const FaultList faults = FaultList::full_universe(c);
  const PatternSet patterns = exhaustive_patterns(c);
  const FaultSimResult serial = simulate_serial(faults, patterns);
  const FaultSimResult ppsfp = simulate_ppsfp(faults, patterns);
  for (std::size_t cl = 0; cl < serial.first_detection.size(); ++cl) {
    EXPECT_EQ(serial.first_detection[cl], ppsfp.first_detection[cl])
        << fault_name(c, faults.representatives()[cl]);
  }
}

TEST(FaultSim, DffPinFaultObservedAtScanCapture) {
  // ff's D pin stuck: detectable exactly when the good D value differs.
  Circuit c("scan");
  const GateId a = c.add_input("a");
  const GateId ff = c.add_dff("ff");
  const GateId d = c.add_gate(GateType::kBuf, {a}, "d");
  c.connect_dff(ff, d);
  const GateId out = c.add_gate(GateType::kBuf, {ff}, "out");
  c.mark_output(out);
  c.finalize();

  const FaultList faults = FaultList::full_universe(c);
  const std::size_t pin_sa0_index = faults.index_of(Fault{ff, 0, false});
  ASSERT_LT(pin_sa0_index, faults.fault_count());
  const std::size_t cls = faults.class_of(pin_sa0_index);

  // Patterns over [a, ff]: set a=1 so good D = 1 != 0 -> detected.
  PatternSet patterns(2);
  patterns.append({false, false});  // a=0: D good = 0 == stuck, no detect
  patterns.append({true, false});   // a=1: detect here (index 1)
  const FaultSimResult r = simulate_ppsfp(faults, patterns);
  EXPECT_EQ(r.first_detection[cls], 1);
  const FaultSimResult rs = simulate_serial(faults, patterns);
  EXPECT_EQ(rs.first_detection[cls], 1);
}

TEST(FaultSim, UndetectableFaultStaysUndetected) {
  // y = OR(a, CONST1) == 1 always: y s-a-1 is redundant.
  Circuit c("red");
  const GateId a = c.add_input("a");
  const GateId one = c.add_gate(GateType::kConst1, {}, "one");
  const GateId y = c.add_gate(GateType::kOr, {a, one}, "y");
  c.mark_output(y);
  c.finalize();
  const FaultList faults = FaultList::full_universe(c);
  const FaultSimResult r = simulate_ppsfp(faults, exhaustive_patterns(c));
  const std::size_t y_sa1 =
      faults.class_of(faults.index_of(Fault{y, -1, true}));
  EXPECT_EQ(r.first_detection[y_sa1], -1);
  EXPECT_LT(r.coverage, 1.0);
}

TEST(FaultSim, CoverageCurveIsMonotone) {
  const Circuit c = circuit::make_alu(4);
  const FaultList faults = FaultList::full_universe(c);
  const PatternSet patterns = tpg::lfsr_patterns(
      c.pattern_inputs().size(), 300, 17);
  const FaultSimResult r = simulate_ppsfp(faults, patterns);
  const CoverageCurve curve = r.curve(faults, patterns.size());
  double prev = 0.0;
  for (std::size_t t = 1; t <= patterns.size(); ++t) {
    const double f = curve.coverage_after(t);
    EXPECT_GE(f, prev);
    prev = f;
  }
  EXPECT_DOUBLE_EQ(curve.final_coverage(), r.coverage);
}

TEST(FaultSim, FirstDetectionIndicesAreEarliest) {
  // Re-simulating the prefix set must detect exactly the faults whose
  // first_detection falls inside the prefix.
  const Circuit c = circuit::make_ripple_carry_adder(4);
  const FaultList faults = FaultList::full_universe(c);
  util::Rng rng(5);
  PatternSet patterns(c.pattern_inputs().size());
  patterns.append_random(80, rng);
  const FaultSimResult full = simulate_ppsfp(faults, patterns);

  const std::size_t prefix_len = 40;
  const FaultSimResult prefix =
      simulate_ppsfp(faults, patterns.slice(0, prefix_len));
  for (std::size_t cl = 0; cl < full.first_detection.size(); ++cl) {
    if (full.first_detection[cl] >= 0 &&
        static_cast<std::size_t>(full.first_detection[cl]) < prefix_len) {
      EXPECT_EQ(prefix.first_detection[cl], full.first_detection[cl]);
    } else {
      EXPECT_EQ(prefix.first_detection[cl], -1);
    }
  }
}

TEST(FaultSim, DetectWordForFaultMatchesSingleLane) {
  const Circuit c = circuit::make_c17();
  const FaultList faults = FaultList::full_universe(c);
  sim::ParallelSimulator good(c);
  // One fully-specified pattern in lane 0.
  std::vector<std::uint64_t> words(c.pattern_inputs().size());
  words[0] = 1;  // G1 = 1, rest 0
  good.simulate_block(words);
  const FaultSimResult oracle = [&] {
    PatternSet p(c.pattern_inputs().size());
    p.append({true, false, false, false, false});
    return simulate_serial(faults, p);
  }();
  for (std::size_t cl = 0; cl < faults.class_count(); ++cl) {
    const std::uint64_t word = detect_word_for_fault(
        c, faults.representatives()[cl], good.values());
    EXPECT_EQ((word & 1ULL) != 0, oracle.first_detection[cl] == 0)
        << fault_name(c, faults.representatives()[cl]);
  }
}

/// Every engine must produce the identical FaultSimResult; this helper
/// cross-checks serial, PPSFP, and PPSFP-MT at 1/2/8 threads, with or
/// without a strobe schedule.
void expect_engines_agree(const Circuit& c, const PatternSet& patterns,
                          const StrobeSchedule* schedule) {
  const FaultList faults = FaultList::full_universe(c);
  const FaultSimResult serial = simulate_serial(faults, patterns, schedule);
  const FaultSimResult ppsfp = simulate_ppsfp(faults, patterns, schedule);
  ASSERT_EQ(serial.first_detection, ppsfp.first_detection) << c.name();
  EXPECT_EQ(serial.covered_faults, ppsfp.covered_faults) << c.name();
  EXPECT_DOUBLE_EQ(serial.coverage, ppsfp.coverage) << c.name();
  for (const std::size_t threads : {1u, 2u, 8u}) {
    const FaultSimResult mt =
        simulate_ppsfp_mt(faults, patterns, schedule, threads);
    ASSERT_EQ(serial.first_detection, mt.first_detection)
        << c.name() << " with " << threads << " threads";
    EXPECT_EQ(serial.covered_faults, mt.covered_faults) << c.name();
    EXPECT_EQ(serial.detected_classes, mt.detected_classes) << c.name();
    EXPECT_DOUBLE_EQ(serial.coverage, mt.coverage) << c.name();
  }
}

TEST(FaultSimMt, BitIdenticalAcrossGeneratorCircuits) {
  std::vector<Circuit> circuits;
  circuits.push_back(circuit::make_c17());
  circuits.push_back(circuit::make_ripple_carry_adder(4));
  circuits.push_back(circuit::make_alu(4));
  circuits.push_back(circuit::make_parity_tree(6));
  circuits.push_back(circuit::make_mux_tree(2));
  circuits.push_back(circuit::make_scan_accumulator(6));
  util::Rng rng(42);
  for (const Circuit& c : circuits) {
    PatternSet patterns(c.pattern_inputs().size());
    patterns.append_random(96, rng);  // 1.5 blocks
    expect_engines_agree(c, patterns, nullptr);
  }
}

TEST(FaultSimMt, BitIdenticalUnderPartialStrobeSchedule) {
  std::vector<Circuit> circuits;
  circuits.push_back(circuit::make_c17());
  circuits.push_back(circuit::make_alu(4));
  circuits.push_back(circuit::make_scan_accumulator(6));
  util::Rng rng(43);
  for (const Circuit& c : circuits) {
    PatternSet patterns(c.pattern_inputs().size());
    patterns.append_random(100, rng);
    const StrobeSchedule schedule = StrobeSchedule::progressive(
        c.observed_points().size(), 7);
    expect_engines_agree(c, patterns, &schedule);
  }
}

TEST(FaultSimMt, BitIdenticalOnRandomDags) {
  for (const std::uint64_t seed : {3u, 17u, 91u}) {
    circuit::RandomDagSpec spec;
    spec.inputs = 10;
    spec.gates = 100;
    spec.seed = seed;
    const Circuit c = make_random_dag(spec);
    util::Rng rng(seed + 7);
    PatternSet patterns(c.pattern_inputs().size());
    patterns.append_random(80, rng);
    expect_engines_agree(c, patterns, nullptr);
  }
}

TEST(FaultSimMt, ThreadCountBeyondFaultCountIsSafe) {
  const Circuit c = circuit::make_c17();
  const FaultList faults = FaultList::full_universe(c);
  const PatternSet patterns = exhaustive_patterns(c);
  const FaultSimResult few = simulate_ppsfp(faults, patterns);
  // More lanes than live faults: the extra lanes idle, result unchanged.
  const FaultSimResult many = simulate_ppsfp_mt(faults, patterns, nullptr,
                                                64);
  EXPECT_EQ(few.first_detection, many.first_detection);
}

TEST(FaultSimKernels, WaveAndResimDetectWordsAgree) {
  // The Propagator's two kernels — event-driven wave and levelized suffix
  // resimulation — must compute identical detect words for every fault,
  // in any call order.
  std::vector<Circuit> circuits;
  circuits.push_back(circuit::make_c17());
  circuits.push_back(circuit::make_alu(4));
  circuits.push_back(circuit::make_scan_accumulator(6));
  util::Rng rng(77);
  for (const Circuit& c : circuits) {
    const FaultList faults = FaultList::full_universe(c);
    sim::ParallelSimulator good(c);
    Propagator wave(good.compiled());
    Propagator resim(good.compiled());
    Propagator interleaved(good.compiled());
    for (int block = 0; block < 2; ++block) {
      std::vector<std::uint64_t> words(c.pattern_inputs().size());
      for (auto& w : words) w = rng.next_u64();
      good.simulate_block(words);
      wave.begin_block(good.values());
      resim.begin_block(good.values());
      interleaved.begin_block(good.values());
      for (std::size_t cl = 0; cl < faults.class_count(); ++cl) {
        const Fault& fault = faults.representatives()[cl];
        const std::uint64_t from_wave = wave.detect_word(fault, good.values());
        const std::uint64_t from_resim =
            resim.detect_word_resim(fault, good.values());
        EXPECT_EQ(from_wave, from_resim)
            << c.name() << " " << fault_name(c, fault);
        // Alternating kernels on one propagator exercises the shared
        // scratch's dirty-region handling.
        const std::uint64_t mixed =
            cl % 2 == 0 ? interleaved.detect_word(fault, good.values())
                        : interleaved.detect_word_resim(fault, good.values());
        EXPECT_EQ(mixed, from_wave)
            << c.name() << " interleaved " << fault_name(c, fault);
      }
    }
  }
}

TEST(FaultSimKernels, DetectWordRequiresBlockSync) {
  const Circuit c = circuit::make_c17();
  const FaultList faults = FaultList::full_universe(c);
  sim::ParallelSimulator good(c);
  std::vector<std::uint64_t> words(c.pattern_inputs().size(), 1);
  good.simulate_block(words);
  Propagator propagator(good.compiled());
  EXPECT_THROW(propagator.detect_word(faults.representatives()[0],
                                      good.values()),
               ContractViolation);
  EXPECT_THROW(propagator.detect_word_resim(faults.representatives()[0],
                                            good.values()),
               ContractViolation);
  propagator.begin_block(good.values());
  EXPECT_NO_THROW(propagator.detect_word(faults.representatives()[0],
                                         good.values()));
}

TEST(FaultSimKernels, DetectWordRejectsStaleBlockSync) {
  // The stale-sync hazard: begin_block captures the good values, the
  // caller re-simulates the shared buffer for the NEXT block, then calls
  // detect with the new values while the propagator still holds the old
  // ones. Every lane of the detect word would be computed against the
  // wrong good machine. The block-epoch stamp turns that silent
  // corruption into a loud contract failure.
  const Circuit c = circuit::make_c17();
  const FaultList faults = FaultList::full_universe(c);
  sim::ParallelSimulator good(c);
  std::vector<std::uint64_t> words(c.pattern_inputs().size(), 1);
  good.simulate_block(words);
  Propagator propagator(good.compiled());
  propagator.begin_block(good.values());

  // Re-simulate the same buffer: a new block, a new epoch stamp.
  words.assign(words.size(), ~0ULL);
  good.simulate_block(words);
#ifdef NDEBUG
  EXPECT_THROW(propagator.detect_word(faults.representatives()[0],
                                      good.values()),
               ContractViolation);
  EXPECT_THROW(propagator.detect_word_resim(faults.representatives()[0],
                                            good.values()),
               ContractViolation);
#else
  // With asserts live the stale sync trips the debug assert first.
  EXPECT_DEATH(propagator.detect_word(faults.representatives()[0],
                                      good.values()),
               "stale begin_block sync");
#endif

  // Re-syncing on the new block recovers.
  propagator.begin_block(good.values());
  EXPECT_NO_THROW(propagator.detect_word(faults.representatives()[0],
                                         good.values()));

  // A hand-built n-word buffer carries no stamp and opts out of the
  // check (legacy callers that never touch ParallelSimulator::values()).
  std::vector<std::uint64_t> bare(c.gate_count(), 0);
  Propagator unstamped(good.compiled());
  unstamped.begin_block(bare);
  EXPECT_NO_THROW(
      unstamped.detect_word(faults.representatives()[0], bare));
}

TEST(FaultSim, WeightedCoverageUsesClassSizes) {
  Circuit c("chain");
  GateId prev = c.add_input("a");
  for (int i = 0; i < 3; ++i) {
    prev = c.add_gate(GateType::kNot, {prev},
                      "n" + std::to_string(i));
  }
  c.mark_output(prev);
  c.finalize();
  const FaultList faults = FaultList::full_universe(c);
  ASSERT_EQ(faults.class_count(), 2u);
  // One pattern (a=0) detects a s-a-1 (and equivalents): half the universe.
  PatternSet p(1);
  p.append({false});
  const FaultSimResult r = simulate_ppsfp(faults, p);
  EXPECT_EQ(r.detected_classes, 1u);
  EXPECT_EQ(r.covered_faults, 7u);  // the 14-fault universe has 7+7 classes
  EXPECT_DOUBLE_EQ(r.coverage, 0.5);
}

TEST(FaultSim, PointDiffWordsAgreeWithBothDetectKernels) {
  // The resim kernel's per-point words must (a) OR back to exactly the
  // full-observation detect word and (b) match, per point, what the
  // event-driven kernel reports under a single-point strobe mask.
  circuit::RandomDagSpec spec;
  spec.inputs = 12;
  spec.gates = 150;
  spec.seed = 77;
  const Circuit c = make_random_dag(spec);
  const FaultList faults = FaultList::full_universe(c);
  const PatternSet patterns =
      tpg::lfsr_patterns(c.pattern_inputs().size(), 128, 13);
  const std::size_t point_count = c.observed_points().size();

  sim::ParallelSimulator good_sim(c);
  Propagator resim(c);
  Propagator wave(c);
  std::vector<std::uint64_t> diffs;
  std::vector<std::uint64_t> one_point(point_count, 0);
  for (std::size_t b = 0; b < patterns.block_count(); ++b) {
    good_sim.simulate_block(patterns.block_words(b));
    const std::vector<std::uint64_t>& good = good_sim.values();
    resim.begin_block(good);
    wave.begin_block(good);
    for (const Fault& f : faults.representatives()) {
      const std::uint64_t from_diffs =
          resim.detect_word_resim(f, good, nullptr, &diffs);
      ASSERT_EQ(diffs.size(), point_count);
      std::uint64_t or_of_points = 0;
      for (const std::uint64_t d : diffs) or_of_points |= d;
      EXPECT_EQ(or_of_points, from_diffs);
      EXPECT_EQ(from_diffs, wave.detect_word(f, good))
          << fault_name(c, f) << " block " << b;
      for (std::size_t i = 0; i < point_count; ++i) {
        one_point.assign(point_count, 0);
        one_point[i] = ~0ULL;
        EXPECT_EQ(diffs[i], wave.detect_word(f, good, &one_point))
            << fault_name(c, f) << " point " << i;
      }
    }
  }
}

TEST(FaultSim, PointDiffWordsRequiresBlockSync) {
  const Circuit c = circuit::make_c17();
  const FaultList faults = FaultList::full_universe(c);
  Propagator propagator(c);
  std::vector<std::uint64_t> good(c.gate_count(), 0);
  std::vector<std::uint64_t> diffs;
  EXPECT_THROW(propagator.detect_word_resim(faults.representatives().front(),
                                            good, nullptr, &diffs),
               ContractViolation);
}

}  // namespace
}  // namespace lsiq::fault
