// Tests for the per-circuit artifact bundle: one compile and one
// redundancy proof per circuit content, shared across fault models and
// specs, and byte-identical to the cold path that proves per call.
#include "flow/artifacts.hpp"

#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#include "analyze/rule.hpp"
#include "circuit/bench_io.hpp"
#include "circuit/generators.hpp"
#include "fault_model/universe.hpp"
#include "flow/flow.hpp"
#include "flow/spec_io.hpp"
#include "util/error.hpp"

namespace lsiq::flow {
namespace {

namespace fs = std::filesystem;

/// Everything a caller can read off the analyze gate and a run: the
/// diagnostics, the census and the report, or the LintError text and
/// diagnostics when the gate refuses.
std::string gate_and_run_text(const SpecFile& file, const CheckOutcome* gate,
                              const analyze::LintError* refusal,
                              const FlowResult* result) {
  std::string text = file.circuit + "\n";
  if (refusal != nullptr) {
    text += std::string("lint error: ") + refusal->what() + "\n";
    for (const analyze::Diagnostic& d : refusal->diagnostics()) {
      text += d.to_jsonl() + "\n";
    }
    return text;
  }
  for (const analyze::Diagnostic& d : gate->diagnostics) {
    text += d.to_jsonl() + "\n";
  }
  text += "census " + std::to_string(gate->statically_redundant_classes) +
          " " + std::to_string(gate->statically_redundant_faults) + "\n";
  text += result->report();
  return text;
}

/// The gate and the run through the cold overloads (each proves).
std::string cold_text(const SpecFile& file) {
  const circuit::Circuit circuit = circuit_from_name(file.circuit);
  const fault::FaultList faults = fault_model::universe(
      circuit, *fault_model::fault_model_from_name(file.spec.fault_model.kind));
  try {
    const CheckOutcome gate = check_detailed(faults, file.spec);
    const FlowResult result = run(faults, file.spec);
    return gate_and_run_text(file, &gate, nullptr, &result);
  } catch (const analyze::LintError& e) {
    return gate_and_run_text(file, nullptr, &e, nullptr);
  }
}

/// The same through one cache's bundle.
std::string warm_text(const SpecFile& file, ArtifactCache& cache) {
  const auto artifacts = cache.get(
      file.circuit,
      *fault_model::fault_model_from_name(file.spec.fault_model.kind));
  try {
    const CheckOutcome gate =
        check_detailed(*artifacts->faults, file.spec, *artifacts->bundle);
    const FlowResult result =
        run(*artifacts->faults, file.spec, *artifacts->bundle);
    return gate_and_run_text(file, &gate, nullptr, &result);
  } catch (const analyze::LintError& e) {
    return gate_and_run_text(file, nullptr, &e, nullptr);
  }
}

class ArtifactsTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = fs::path(::testing::TempDir()) / "lsiq_artifacts" /
           ::testing::UnitTest::GetInstance()->current_test_info()->name();
    fs::remove_all(dir_);
    fs::create_directories(dir_);
  }

  std::string write_file(const std::string& name, const std::string& text) {
    const fs::path path = dir_ / name;
    std::ofstream out(path);
    out << text;
    return path.string();
  }

  fs::path dir_;
};

TEST_F(ArtifactsTest, WarmGateAndRunMatchColdWhereTheProverFindsSites) {
  // Every shipped workload proves 0 sites, so the cached proof is checked
  // here on two netlists where it does not. csa16/4 has 9 implied-constant
  // lines and 30 redundant sites (pinned in test_implication.cpp), which
  // the structural pass also sees; in `reconvergent`, y = AND(a, NOT a)
  // is a redundancy only the prover finds. Every untestable policy, the
  // dead-logic class off and the transition universe must read the same
  // through one bundle as through the cold path, whichever spec proves
  // the bundle first.
  const std::string csa = write_file(
      "csa16_4.bench",
      circuit::write_bench_string(circuit::make_carry_select_adder(16, 4)));
  const std::string reconvergent = write_file(
      "reconvergent.bench",
      "INPUT(a)\nINPUT(b)\nOUTPUT(out)\nn = NOT(a)\ny = AND(a, n)\n"
      "out = OR(y, b)\n");
  for (const std::string& bench : {csa, reconvergent}) {
    SCOPED_TRACE(bench);
    const std::string base = "circuit = " + bench +
                             "\nsource = lfsr\npatterns = 128\n"
                             "observe = full\nengine = ppsfp\nchips = 0\n"
                             "yield = 0.1\nn0 = 5\n";
    std::vector<SpecFile> specs;
    for (const char* knob :
         {"analyze_untestable = warn\n", "analyze_untestable = error\n",
          "analyze_untestable = off\n", "analyze_dead_logic = off\n",
          "fault_model = transition\n"}) {
      specs.push_back(read_spec_string(base + knob));
    }

    std::vector<std::string> cold;
    for (const SpecFile& file : specs) cold.push_back(cold_text(file));
    // The prover found something, and the error policy refused on it.
    EXPECT_EQ(cold[0].find("census 0 0"), std::string::npos) << cold[0];
    EXPECT_NE(cold[1].find("lint error: "), std::string::npos) << cold[1];
    EXPECT_NE(cold[2].find("census 0 0"), std::string::npos) << cold[2];
    if (bench == reconvergent) {
      EXPECT_NE(cold[0].find("untestable_implication"), std::string::npos);
    }

    for (const bool reversed : {false, true}) {
      SCOPED_TRACE(reversed ? "reverse order" : "forward order");
      ArtifactCache cache;
      for (std::size_t k = 0; k < specs.size(); ++k) {
        const std::size_t i = reversed ? specs.size() - 1 - k : k;
        EXPECT_EQ(warm_text(specs[i], cache), cold[i]) << "spec " << i;
      }
      const ArtifactCache::Stats stats = cache.stats();
      EXPECT_EQ(stats.proofs, 1u);
      EXPECT_EQ(stats.misses, 2u);  // stuck-at and transition universes
      EXPECT_EQ(stats.hits, 3u);
    }
  }
}

TEST_F(ArtifactsTest, FaultModelsShareOneBundle) {
  ArtifactCache cache;
  const auto stuck = cache.get("c17", fault_model::FaultModel::kStuckAt);
  const auto transition =
      cache.get("c17", fault_model::FaultModel::kTransition);
  EXPECT_EQ(stuck->bundle, transition->bundle);
  EXPECT_EQ(stuck->compiled, transition->compiled);
  EXPECT_EQ(&stuck->faults->circuit(), &transition->faults->circuit());
  EXPECT_NE(stuck->faults, transition->faults);
  EXPECT_EQ(cache.stats().misses, 2u);
  EXPECT_EQ(cache.stats().proofs, 0u);  // proved on a gate's demand only
  (void)stuck->bundle->redundancy();
  (void)transition->bundle->redundancy();
  EXPECT_EQ(cache.stats().proofs, 1u);
}

TEST_F(ArtifactsTest, EditedBenchIsAMissThatReplacesEveryModelsEntry) {
  const std::string bench = write_file(
      "net.bench", "INPUT(a)\nINPUT(b)\nOUTPUT(y)\ny = AND(a, b)\n");
  ArtifactCache cache;
  const auto before = cache.get(bench, fault_model::FaultModel::kStuckAt);
  cache.get(bench, fault_model::FaultModel::kTransition);
  EXPECT_EQ(cache.get(bench, fault_model::FaultModel::kStuckAt), before);

  write_file("net.bench",
             "INPUT(a)\nINPUT(b)\nINPUT(c)\nOUTPUT(y)\n"
             "t = AND(a, b)\ny = OR(t, c)\n");
  const auto after = cache.get(bench, fault_model::FaultModel::kStuckAt);
  EXPECT_NE(after->bundle, before->bundle);
  EXPECT_EQ(after->bundle->circuit().pattern_inputs().size(), 3u);
  // still valid
  EXPECT_EQ(before->bundle->circuit().pattern_inputs().size(), 2u);
  const ArtifactCache::Stats stats = cache.stats();
  EXPECT_EQ(stats.misses, 3u);
  EXPECT_EQ(stats.hits, 1u);
  EXPECT_EQ(stats.entries, 1u);  // the stale transition entry went too
  EXPECT_EQ(stats.cost, ArtifactCache::cost_of(*after));
  EXPECT_EQ(stats.evictions, 0u);
}

TEST_F(ArtifactsTest, ResolvedBenchSourceBuildsWhatCircuitFromNameBuilds) {
  const std::string text = "INPUT(a)\nOUTPUT(y)\ny = NOT(a)\n";
  const std::string bench = write_file("inv.bench", text);
  const CircuitSource source = resolve_circuit(bench);
  ASSERT_TRUE(source.bench_text.has_value());
  EXPECT_EQ(*source.bench_text, text);
  EXPECT_NE(source.key, bench);
  EXPECT_EQ(source.build().name(), circuit_from_name(bench).name());
  EXPECT_EQ(source.build().name(), "inv");
  // A generator selector is its own key and reads nothing.
  const CircuitSource generator = resolve_circuit("mult4");
  EXPECT_EQ(generator.key, "mult4");
  EXPECT_FALSE(generator.bench_text.has_value());
  EXPECT_THROW(resolve_circuit((dir_ / "missing.bench").string()), IoError);
}

}  // namespace
}  // namespace lsiq::flow
