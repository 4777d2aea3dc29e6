// Tests for the fault dictionary and diagnosis.
#include "fault/dictionary.hpp"

#include <gtest/gtest.h>

#include "circuit/generators.hpp"
#include "fault/fault_sim.hpp"
#include "sim/parallel_sim.hpp"
#include "tpg/lfsr.hpp"
#include "util/error.hpp"

namespace lsiq::fault {
namespace {

using circuit::Circuit;
using circuit::GateId;
using sim::PatternSet;

struct Setup {
  const Circuit& circuit;
  const FaultList& faults;
  const PatternSet& patterns;
  const FaultDictionary& dictionary;
};

const Setup& setup() {
  static const Circuit circuit = circuit::make_alu(3);
  static const FaultList faults = FaultList::full_universe(circuit);
  static const PatternSet patterns =
      tpg::lfsr_patterns(circuit.pattern_inputs().size(), 192, 77);
  static const FaultDictionary dictionary =
      FaultDictionary::build(faults, patterns);
  static const Setup s{circuit, faults, patterns, dictionary};
  return s;
}

TEST(Dictionary, ShapeMatchesInputs) {
  EXPECT_EQ(setup().dictionary.class_count(), setup().faults.class_count());
  EXPECT_EQ(setup().dictionary.pattern_count(), setup().patterns.size());
}

TEST(Dictionary, FirstSetBitMatchesFaultSimulator) {
  // The dictionary is a no-drop fault simulation: its first set bit per
  // class must equal the (dropping) simulator's first_detection.
  const FaultSimResult r =
      simulate_ppsfp(setup().faults, setup().patterns);
  for (std::size_t cl = 0; cl < setup().faults.class_count(); ++cl) {
    std::int64_t first = -1;
    for (std::size_t t = 0; t < setup().patterns.size(); ++t) {
      if (setup().dictionary.detects(cl, t)) {
        first = static_cast<std::int64_t>(t);
        break;
      }
    }
    EXPECT_EQ(first, r.first_detection[cl])
        << fault_name(setup().circuit,
                      setup().faults.representatives()[cl]);
  }
}

TEST(Dictionary, SelfDiagnosisIsExact) {
  // Present each detected class's own signature: the class itself (or a
  // signature-equivalent one) must rank first with score 1.
  const auto& d = setup().dictionary;
  std::size_t checked = 0;
  for (std::size_t cl = 0; cl < d.class_count() && checked < 40; ++cl) {
    std::vector<bool> observed(d.pattern_count(), false);
    bool any = false;
    for (std::size_t t = 0; t < d.pattern_count(); ++t) {
      if (d.detects(cl, t)) {
        observed[t] = true;
        any = true;
      }
    }
    if (!any) continue;
    ++checked;
    const auto candidates = d.diagnose(observed, 3);
    ASSERT_FALSE(candidates.empty());
    EXPECT_DOUBLE_EQ(candidates.front().score, 1.0);
    // The top candidate must have the identical signature.
    EXPECT_EQ(d.signature(candidates.front().class_index), d.signature(cl));
  }
  EXPECT_EQ(checked, 40u);
}

TEST(Dictionary, NoisyObservationStillRanksTrueFaultHighly) {
  // Drop one failing pattern from the observation (tester marginality):
  // the true class should still appear in the top 3.
  const auto& d = setup().dictionary;
  std::size_t hits = 0;
  std::size_t tried = 0;
  for (std::size_t cl = 0; cl < d.class_count() && tried < 25; ++cl) {
    std::vector<bool> observed(d.pattern_count(), false);
    std::size_t fails = 0;
    for (std::size_t t = 0; t < d.pattern_count(); ++t) {
      if (d.detects(cl, t)) {
        observed[t] = true;
        ++fails;
      }
    }
    if (fails < 3) continue;
    ++tried;
    // Remove the first failing pattern.
    for (std::size_t t = 0; t < d.pattern_count(); ++t) {
      if (observed[t]) {
        observed[t] = false;
        break;
      }
    }
    const auto candidates = d.diagnose(observed, 3);
    for (const auto& cand : candidates) {
      if (d.signature(cand.class_index) == d.signature(cl)) {
        ++hits;
        break;
      }
    }
  }
  ASSERT_EQ(tried, 25u);
  EXPECT_GE(hits, 23u);  // allow a couple of pathological overlaps
}

TEST(Dictionary, AllPassObservationReturnsNothing) {
  const std::vector<bool> clean(setup().dictionary.pattern_count(), false);
  EXPECT_TRUE(setup().dictionary.diagnose(clean, 5).empty());
}

TEST(Dictionary, DiagnosticResolutionIsReported) {
  const std::size_t distinct =
      setup().dictionary.distinct_signature_count();
  EXPECT_GT(distinct, setup().faults.class_count() / 2);
  EXPECT_LE(distinct, setup().faults.class_count());
}

TEST(Dictionary, RespectsStrobeSchedule) {
  const Circuit& c = setup().circuit;
  const StrobeSchedule schedule =
      StrobeSchedule::progressive(c.observed_points().size(), 11);
  const FaultDictionary scheduled =
      FaultDictionary::build(setup().faults, setup().patterns, &schedule);
  const FaultSimResult r =
      simulate_ppsfp(setup().faults, setup().patterns, &schedule);
  for (std::size_t cl = 0; cl < setup().faults.class_count(); ++cl) {
    std::int64_t first = -1;
    for (std::size_t t = 0; t < setup().patterns.size(); ++t) {
      if (scheduled.detects(cl, t)) {
        first = static_cast<std::int64_t>(t);
        break;
      }
    }
    EXPECT_EQ(first, r.first_detection[cl]);
  }
}

/// Every word of every row of the dictionary against a hand loop over the
/// event-driven kernel (Propagator::detect_word), which the dictionary
/// does not use. For a transition universe the launch word is computed
/// the way simulate_serial computes it, from the previous block's good
/// values.
void expect_rows_match_event_driven_kernel(const FaultList& faults,
                                           const PatternSet& patterns,
                                           const StrobeSchedule* schedule) {
  const Circuit& c = faults.circuit();
  const FaultDictionary dictionary =
      FaultDictionary::build(faults, patterns, schedule);
  const bool transition =
      faults.model() == fault_model::FaultModel::kTransition;
  sim::ParallelSimulator good_sim(c);
  Propagator propagator(c);
  std::vector<std::uint64_t> masks(c.observed_points().size(), ~0ULL);
  std::vector<std::uint64_t> previous(c.gate_count(), 0);
  for (std::size_t b = 0; b < patterns.block_count(); ++b) {
    good_sim.simulate_block(patterns.block_words(b));
    const std::vector<std::uint64_t>& good = good_sim.values();
    propagator.begin_block(good);
    if (schedule != nullptr) {
      for (std::size_t i = 0; i < masks.size(); ++i) {
        masks[i] = schedule->lane_mask(i, b);
      }
    }
    for (std::size_t cl = 0; cl < faults.class_count(); ++cl) {
      const Fault& f = faults.representatives()[cl];
      std::uint64_t word =
          propagator.detect_word(f, good, &masks) & patterns.block_mask(b);
      if (transition) {
        const GateId line = fault_line(c, f);
        const std::uint64_t before =
            (good[line] << 1) | (b > 0 ? previous[line] >> 63 : 0);
        std::uint64_t launch = f.stuck_at_one ? before : ~before;
        if (b == 0) launch &= ~1ULL;  // the first pattern has no launch
        word &= launch;
      }
      ASSERT_EQ(dictionary.signature(cl)[b], word)
          << fault_name(c, f, faults.model()) << " block " << b;
    }
    previous.assign(good.begin(),
                    good.begin() + static_cast<std::ptrdiff_t>(c.gate_count()));
  }
}

TEST(Dictionary, RowsMatchEventDrivenKernelBitForBit) {
  const Circuit& c = setup().circuit;
  {
    SCOPED_TRACE("stuck-at, full observation");
    expect_rows_match_event_driven_kernel(setup().faults, setup().patterns,
                                          nullptr);
  }
  {
    SCOPED_TRACE("stuck-at, progressive strobing");
    const StrobeSchedule schedule =
        StrobeSchedule::progressive(c.observed_points().size(), 11);
    expect_rows_match_event_driven_kernel(setup().faults, setup().patterns,
                                          &schedule);
  }
  {
    SCOPED_TRACE("transition, full observation");
    const FaultList transition = FaultList::transition_universe(c);
    expect_rows_match_event_driven_kernel(transition, setup().patterns,
                                          nullptr);
  }
}

TEST(Dictionary, DomainChecks) {
  EXPECT_THROW(
      setup().dictionary.diagnose(std::vector<bool>(3, false), 1),
      ContractViolation);
  EXPECT_THROW((void)setup().dictionary.signature(1u << 30),
               ContractViolation);
  PatternSet empty(setup().circuit.pattern_inputs().size());
  EXPECT_THROW(FaultDictionary::build(setup().faults, empty),
               ContractViolation);
}

}  // namespace
}  // namespace lsiq::fault
