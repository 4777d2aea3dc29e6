// CompiledCircuit tests: the CSR topology against the Circuit observers it
// was compiled from, the evaluation-order invariants the sweep kernels
// rely on, the observed-point index map, the fanout-free-region map, and
// word-level evaluation parity with the id-indexed reference evaluators.
#include "circuit/compiled.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <vector>

#include "circuit/generators.hpp"
#include "region_corners.hpp"
#include "sim/parallel_sim.hpp"
#include "util/error.hpp"
#include "util/rng.hpp"

namespace lsiq::circuit {
namespace {

std::vector<Circuit> layout_circuits() {
  std::vector<Circuit> circuits;
  circuits.push_back(make_c17());
  circuits.push_back(make_ripple_carry_adder(8));
  circuits.push_back(make_alu(4));
  circuits.push_back(make_scan_accumulator(8));
  circuits.push_back(make_mux_tree(3));
  RandomDagSpec spec;
  spec.inputs = 12;
  spec.gates = 150;
  spec.seed = 7;
  circuits.push_back(make_random_dag(spec));
  return circuits;
}

TEST(CompiledCircuit, CsrTopologyMatchesCircuitObservers) {
  for (const Circuit& c : layout_circuits()) {
    const CompiledCircuit compiled(c);
    ASSERT_EQ(compiled.node_count(), c.gate_count()) << c.name();
    for (GateId id = 0; id < c.gate_count(); ++id) {
      const Gate& g = c.gate(id);
      EXPECT_EQ(compiled.type(id), g.type) << c.name();
      EXPECT_EQ(compiled.level(id), g.level) << c.name();
      ASSERT_EQ(compiled.fanin_count(id), g.fanin.size()) << c.name();
      for (std::size_t i = 0; i < g.fanin.size(); ++i) {
        EXPECT_EQ(compiled.fanin(id)[i], g.fanin[i]) << c.name();
      }
      ASSERT_EQ(compiled.fanout_count(id), g.fanout.size()) << c.name();
      for (std::size_t i = 0; i < g.fanout.size(); ++i) {
        EXPECT_EQ(compiled.fanout(id)[i], g.fanout[i]) << c.name();
      }
    }
    EXPECT_EQ(compiled.pattern_inputs(), c.pattern_inputs()) << c.name();
    EXPECT_EQ(compiled.observed_points(), c.observed_points()) << c.name();
    EXPECT_EQ(&compiled.source(), &c);
  }
}

TEST(CompiledCircuit, EvalOrderCoversNonSourcesInLevelOrder) {
  for (const Circuit& c : layout_circuits()) {
    const CompiledCircuit compiled(c);
    // Exactly the non-source gates, each once.
    std::vector<char> seen(c.gate_count(), 0);
    std::uint32_t previous_level = 0;
    for (const GateId id : compiled.eval_order()) {
      EXPECT_NE(compiled.type(id), GateType::kInput) << c.name();
      EXPECT_NE(compiled.type(id), GateType::kDff) << c.name();
      EXPECT_EQ(seen[id], 0) << c.name();
      seen[id] = 1;
      EXPECT_GE(compiled.level(id), previous_level)
          << c.name() << ": eval_order not level-sorted";
      previous_level = compiled.level(id);
    }
    for (GateId id = 0; id < c.gate_count(); ++id) {
      const bool source = compiled.type(id) == GateType::kInput ||
                          compiled.type(id) == GateType::kDff;
      EXPECT_EQ(seen[id] != 0, !source) << c.name();
    }
    // Level boundaries delimit exactly the gates at each level.
    for (std::size_t level = 0; level <= compiled.depth() + 1; ++level) {
      const std::size_t begin = compiled.eval_level_begin(level);
      ASSERT_LE(begin, compiled.eval_order().size()) << c.name();
      for (std::size_t i = 0; i < compiled.eval_order().size(); ++i) {
        const bool at_or_above =
            compiled.level(compiled.eval_order()[i]) >= level;
        EXPECT_EQ(i >= begin, at_or_above) << c.name();
      }
    }
  }
}

TEST(CompiledCircuit, PointIndexMapsOutputsAndScanCaptures) {
  for (const Circuit& c : layout_circuits()) {
    const CompiledCircuit compiled(c);
    const std::size_t num_po = c.primary_outputs().size();
    for (std::size_t i = 0; i < num_po; ++i) {
      const GateId point = c.primary_outputs()[i];
      const std::uint32_t index = compiled.point_index(point);
      ASSERT_NE(index, CompiledCircuit::kNoPoint) << c.name();
      // First occurrence wins when a gate is marked once but referenced
      // again as a scan capture.
      EXPECT_EQ(c.observed_points()[index], point) << c.name();
      EXPECT_LE(index, i) << c.name();
    }
    for (std::size_t i = 0; i < c.flip_flops().size(); ++i) {
      EXPECT_EQ(compiled.point_index(c.flip_flops()[i]), num_po + i)
          << c.name() << ": flip-flop pseudo output index";
    }
    for (GateId id = 0; id < c.gate_count(); ++id) {
      const bool observed =
          std::find(c.observed_points().begin(), c.observed_points().end(),
                    id) != c.observed_points().end() ||
          std::find(c.flip_flops().begin(), c.flip_flops().end(), id) !=
              c.flip_flops().end();
      if (!observed) {
        EXPECT_EQ(compiled.point_index(id), CompiledCircuit::kNoPoint)
            << c.name();
      }
    }
  }
}

TEST(CompiledCircuit, DffChainMapsEachFlipFlopToItsOwnCapture) {
  // ff1 feeds ff2's D input: ff1 is both a pattern source and the observed
  // capture gate of ff2, but point_index(ff1) must still name ff1's own
  // pseudo output.
  Circuit c("ffchain");
  const GateId a = c.add_input("a");
  const GateId ff1 = c.add_dff("ff1");
  const GateId ff2 = c.add_dff("ff2");
  const GateId d1 = c.add_gate(GateType::kBuf, {a}, "d1");
  c.connect_dff(ff1, d1);
  c.connect_dff(ff2, ff1);
  const GateId y = c.add_gate(GateType::kOr, {ff1, ff2}, "y");
  c.mark_output(y);
  c.finalize();

  const CompiledCircuit compiled(c);
  const std::size_t num_po = c.primary_outputs().size();
  EXPECT_EQ(compiled.point_index(ff1), num_po + 0);
  EXPECT_EQ(compiled.point_index(ff2), num_po + 1);
}

TEST(CompiledCircuit, RegionMapPinsEveryGateOfTheCornerNetlist) {
  const Circuit c = test_netlists::make_region_corners();
  const CompiledCircuit compiled(c);
  struct Expected {
    const char* gate;
    const char* root;
    std::int32_t reader_pin;
  };
  const Expected expected[] = {
      {"a", "a", -1},   {"b", "n1", 1},   {"c", "p", 2},
      {"d", "p", 1},    {"e", "r", 1},    {"f", "dangling", 1},
      {"q", "r", 0},    {"k1", "p", 1},   {"n1", "n1", -1},
      {"twice", "p", 0}, {"m", "p", 0},   {"p", "p", -1},
      {"s", "r", 0},    {"x0", "r", 0},   {"x1", "r", 0},
      {"x2", "r", 0},   {"x3", "r", 0},   {"x4", "r", 0},
      {"x5", "r", 0},   {"x6", "r", 0},   {"x7", "r", 0},
      {"x8", "r", 1},   {"r", "r", -1},   {"dangling", "dangling", -1},
  };
  ASSERT_EQ(std::size(expected), c.gate_count());
  for (const Expected& row : expected) {
    const GateId id = c.find(row.gate);
    ASSERT_NE(id, kNoGate) << row.gate;
    EXPECT_EQ(c.gate(compiled.region_root(id)).name, row.root) << row.gate;
    EXPECT_EQ(compiled.reader_pin(id), row.reader_pin) << row.gate;
  }
}

TEST(CompiledCircuit, RegionMapPinsRegionCountsAndLargestRegions) {
  // The region statistics bench/testability prints: counting the gates
  // other than inputs, constants and flip-flops per compiled root gives
  // the region count and the largest region.
  struct Case {
    Circuit circuit;
    std::size_t regions;
    std::size_t largest;
  };
  Case cases[] = {
      {make_array_multiplier(8), 224, 3},
      {make_alu(4), 32, 14},
      {make_mux_tree(4), 4, 46},
      {make_parity_tree(16), 1, 15},
      {make_scan_accumulator(6), 17, 3},
      {make_carry_select_adder(8, 4), 31, 10},
      {make_barrel_rotator(8), 24, 4},
      {make_c17(), 4, 2},
  };
  for (const Case& test : cases) {
    const Circuit& c = test.circuit;
    const CompiledCircuit compiled(c);
    std::map<GateId, std::size_t> size_of;
    for (GateId id = 0; id < c.gate_count(); ++id) {
      const GateType type = compiled.type(id);
      if (type == GateType::kInput || type == GateType::kDff ||
          type == GateType::kConst0 || type == GateType::kConst1) {
        continue;
      }
      ++size_of[compiled.region_root(id)];
    }
    std::size_t largest = 0;
    for (const auto& [root, size] : size_of) {
      largest = std::max(largest, size);
    }
    EXPECT_EQ(size_of.size(), test.regions) << c.name();
    EXPECT_EQ(largest, test.largest) << c.name();
  }
}

TEST(CompiledCircuit, EvalWordMatchesReferenceEvaluator) {
  for (const Circuit& c : layout_circuits()) {
    const CompiledCircuit compiled(c);
    util::Rng rng(99);
    std::vector<std::uint64_t> values(c.gate_count());
    for (auto& v : values) v = rng.next_u64();
    for (const GateId id : compiled.eval_order()) {
      EXPECT_EQ(compiled.eval_word(id, values.data()),
                sim::eval_gate_word(c, id, values))
          << c.name() << " gate " << c.gate(id).name;
      for (std::size_t pin = 0; pin < compiled.fanin_count(id); ++pin) {
        for (const std::uint64_t forced : {0ULL, ~0ULL}) {
          EXPECT_EQ(compiled.eval_word_with_pin(id, values.data(),
                                                static_cast<std::int32_t>(pin),
                                                forced),
                    sim::eval_gate_word_with_pin(c, id, values,
                                                 static_cast<int>(pin),
                                                 forced))
              << c.name() << " gate " << c.gate(id).name << " pin " << pin;
        }
      }
    }
  }
}

/// Reference block evaluation straight off the Circuit container.
std::vector<std::uint64_t> reference_block(
    const Circuit& c, const std::vector<std::uint64_t>& input_words) {
  std::vector<std::uint64_t> values(c.gate_count(), 0);
  for (std::size_t i = 0; i < c.pattern_inputs().size(); ++i) {
    values[c.pattern_inputs()[i]] = input_words[i];
  }
  for (const GateId id : c.topological_order()) {
    const Gate& g = c.gate(id);
    if (g.type == GateType::kInput || g.type == GateType::kDff) continue;
    values[id] = sim::eval_gate_word(c, id, values);
  }
  return values;
}

TEST(CompiledCircuit, EvalSuffixFullSweepMatchesReferenceSimulation) {
  for (const Circuit& c : layout_circuits()) {
    const CompiledCircuit compiled(c);
    util::Rng rng(2024);
    std::vector<std::uint64_t> input_words(c.pattern_inputs().size());
    for (auto& w : input_words) w = rng.next_u64();

    const std::vector<std::uint64_t> expected = reference_block(c, input_words);
    std::vector<std::uint64_t> values(c.gate_count(), 0);
    for (std::size_t i = 0; i < input_words.size(); ++i) {
      values[c.pattern_inputs()[i]] = input_words[i];
    }
    compiled.eval_suffix(0, values.data());
    EXPECT_EQ(values, expected) << c.name();
  }
}

TEST(CompiledCircuit, EvalSuffixRecomputesPollutedSuffix) {
  const Circuit c = make_alu(4);
  const CompiledCircuit compiled(c);
  util::Rng rng(5);
  std::vector<std::uint64_t> input_words(c.pattern_inputs().size());
  for (auto& w : input_words) w = rng.next_u64();
  std::vector<std::uint64_t> values(c.gate_count(), 0);
  for (std::size_t i = 0; i < input_words.size(); ++i) {
    values[c.pattern_inputs()[i]] = input_words[i];
  }
  compiled.eval_suffix(0, values.data());
  const std::vector<std::uint64_t> expected = values;

  for (std::size_t level = 0; level <= compiled.depth() + 1; ++level) {
    std::vector<std::uint64_t> polluted = expected;
    for (const GateId id : compiled.eval_order()) {
      if (compiled.level(id) >= level) polluted[id] ^= 0xdeadbeefULL;
    }
    compiled.eval_suffix(level, polluted.data());
    EXPECT_EQ(polluted, expected) << c.name() << " from level " << level;
  }

  // An upper level recomputes [from, through] and leaves every gate above
  // it untouched.
  for (std::size_t from = 0; from <= compiled.depth(); ++from) {
    for (std::size_t through = 0; through <= compiled.depth() + 1;
         ++through) {
      std::vector<std::uint64_t> polluted = expected;
      for (const GateId id : compiled.eval_order()) {
        if (compiled.level(id) >= from) polluted[id] ^= 0xdeadbeefULL;
      }
      const std::vector<std::uint64_t> before = polluted;
      compiled.eval_suffix(from, polluted.data(), kNoGate, through);
      for (const GateId id : compiled.eval_order()) {
        const bool swept =
            compiled.level(id) >= from && compiled.level(id) <= through;
        ASSERT_EQ(polluted[id], swept ? expected[id] : before[id])
            << "gate " << id << ", levels " << from << " through "
            << through;
      }
    }
  }
}

TEST(CompiledCircuit, EvalSuffixSkipPreservesInjectedValue) {
  // y = AND(a, b); force y's value and check that (a) the sweep keeps it
  // and (b) downstream consumers read the injection.
  Circuit c("inject");
  const GateId a = c.add_input("a");
  const GateId b = c.add_input("b");
  const GateId y = c.add_gate(GateType::kAnd, {a, b}, "y");
  const GateId z = c.add_gate(GateType::kNot, {y}, "z");
  c.mark_output(z);
  c.finalize();
  const CompiledCircuit compiled(c);

  std::vector<std::uint64_t> values(c.gate_count(), 0);
  values[a] = ~0ULL;
  values[b] = ~0ULL;
  values[y] = 0x0f0fULL;  // injected, contradicts AND(a, b) = ~0
  compiled.eval_suffix(0, values.data(), y);
  EXPECT_EQ(values[y], 0x0f0fULL);
  EXPECT_EQ(values[z], ~0x0f0fULL);
}

TEST(CompiledCircuit, RequiresFinalizedCircuit) {
  Circuit c("unfinalized");
  c.add_input("a");
  EXPECT_THROW(CompiledCircuit{c}, Error);
}

}  // namespace
}  // namespace lsiq::circuit
