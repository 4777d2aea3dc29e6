// Performance suite for the simulation substrate (google-benchmark):
// compiled parallel-pattern logic simulation, event-driven simulation,
// serial vs PPSFP vs multi-threaded PPSFP fault simulation, the other
// consumers of the PPSFP block driver (BIST signatures, the fault
// dictionary, transition compaction), PODEM, the static analyzer
// (structural pass, implication prover, testability), and one flow-service
// job on a cold and on a warm artifact cache.
//
// The headline ablation is serial vs PPSFP vs PPSFP-MT: parallel-pattern
// single-fault propagation with fault dropping on the compiled netlist —
// optionally fanned out over a worker pool — is why grading a
// 1000-pattern program on an LSI-scale circuit is interactive rather than
// an overnight job, the engineering that made the paper's Section 5
// procedure practical.
//
// Trajectory tracking: regenerate the committed BENCH_fault_sim.json from
// the whole suite (CI runs and gates every row) with
//
//   ./perf_fault_sim --benchmark_out=BENCH_fault_sim.json
//       --benchmark_out_format=json
//
// Rows that grade on more than one thread carry a `lanes` counter, and the
// JSON context records the host's effective parallelism, measured before
// the suite runs: tools/perf_gate.py flags rather than fails a threaded
// row's slowdown when that figure is below 2 on either side.
#include <benchmark/benchmark.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <string>
#include <thread>
#include <vector>

#include "analyze/analyze.hpp"
#include "analyze/implication.hpp"
#include "analyze/redundancy.hpp"
#include "analyze/testability.hpp"
#include "bist/session.hpp"
#include "circuit/compiled.hpp"
#include "circuit/generators.hpp"
#include "fault/dictionary.hpp"
#include "fault/fault_list.hpp"
#include "fault/fault_sim.hpp"
#include "fault/strobe.hpp"
#include "flow/batch.hpp"
#include "sim/event_sim.hpp"
#include "sim/parallel_sim.hpp"
#include "tpg/atpg.hpp"
#include "tpg/lfsr.hpp"
#include "tpg/podem.hpp"
#include "util/rng.hpp"

namespace {

using namespace lsiq;

circuit::Circuit circuit_for(int selector) {
  switch (selector) {
    case 0: return circuit::make_c17();
    case 1: return circuit::make_ripple_carry_adder(16);
    case 2: return circuit::make_array_multiplier(8);
    case 3: return circuit::make_array_multiplier(16);
    case 4: return circuit::make_array_multiplier(32);
    default: return circuit::make_array_multiplier(64);
  }
}

const char* circuit_name(int selector) {
  switch (selector) {
    case 0: return "c17";
    case 1: return "rca16";
    case 2: return "mult8";
    case 3: return "mult16";
    case 4: return "mult32";
    default: return "mult64";
  }
}

void BM_LogicSim_ParallelBlock(benchmark::State& state) {
  const circuit::Circuit c = circuit_for(static_cast<int>(state.range(0)));
  sim::ParallelSimulator simulator(c);
  util::Rng rng(1);
  std::vector<std::uint64_t> words(c.pattern_inputs().size());
  for (auto& w : words) w = rng.next_u64();

  for (auto _ : state) {
    simulator.simulate_block(words);
    benchmark::DoNotOptimize(simulator.values().data());
  }
  // 64 patterns per block.
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) * 64);
  state.SetLabel(circuit_name(static_cast<int>(state.range(0))));
}
BENCHMARK(BM_LogicSim_ParallelBlock)->Arg(0)->Arg(1)->Arg(2)->Arg(3);

void BM_EventSim_SingleInputFlip(benchmark::State& state) {
  const circuit::Circuit c = circuit_for(static_cast<int>(state.range(0)));
  sim::EventSimulator simulator(c);
  std::vector<bool> inputs(c.pattern_inputs().size(), false);
  simulator.apply(inputs);
  std::size_t which = 0;
  for (auto _ : state) {
    inputs[which] = !inputs[which];
    simulator.set_input(which, inputs[which]);
    which = (which + 1) % inputs.size();
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
  state.SetLabel(circuit_name(static_cast<int>(state.range(0))));
}
BENCHMARK(BM_EventSim_SingleInputFlip)->Arg(1)->Arg(2)->Arg(3);

void BM_FaultSim_Serial(benchmark::State& state) {
  const circuit::Circuit c = circuit_for(static_cast<int>(state.range(0)));
  const fault::FaultList faults = fault::FaultList::full_universe(c);
  const sim::PatternSet patterns =
      tpg::lfsr_patterns(c.pattern_inputs().size(), 64, 3);
  for (auto _ : state) {
    const fault::FaultSimResult r = simulate_serial(faults, patterns);
    benchmark::DoNotOptimize(r.covered_faults);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(faults.class_count()));
  state.SetLabel(circuit_name(static_cast<int>(state.range(0))));
}
BENCHMARK(BM_FaultSim_Serial)->Arg(0)->Arg(1)->Arg(2)
    ->Unit(benchmark::kMillisecond);

void BM_FaultSim_Ppsfp(benchmark::State& state) {
  const circuit::Circuit c = circuit_for(static_cast<int>(state.range(0)));
  const fault::FaultList faults = fault::FaultList::full_universe(c);
  const sim::PatternSet patterns =
      tpg::lfsr_patterns(c.pattern_inputs().size(), 64, 3);
  for (auto _ : state) {
    const fault::FaultSimResult r = simulate_ppsfp(faults, patterns);
    benchmark::DoNotOptimize(r.covered_faults);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(faults.class_count()));
  state.SetLabel(circuit_name(static_cast<int>(state.range(0))));
}
BENCHMARK(BM_FaultSim_Ppsfp)->Arg(0)->Arg(1)->Arg(2)->Arg(3)
    ->Unit(benchmark::kMillisecond);

void BM_FaultSim_PpsfpMt(benchmark::State& state) {
  const circuit::Circuit c = circuit_for(static_cast<int>(state.range(0)));
  const fault::FaultList faults = fault::FaultList::full_universe(c);
  const sim::PatternSet patterns =
      tpg::lfsr_patterns(c.pattern_inputs().size(), 64, 3);
  const auto threads = static_cast<std::size_t>(state.range(1));
  for (auto _ : state) {
    const fault::FaultSimResult r =
        simulate_ppsfp_mt(faults, patterns, nullptr, threads);
    benchmark::DoNotOptimize(r.covered_faults);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(faults.class_count()));
  state.counters["lanes"] = static_cast<double>(threads);
  state.SetLabel(std::string(circuit_name(static_cast<int>(state.range(0)))) +
                 " x " + std::to_string(threads) + " threads");
}
BENCHMARK(BM_FaultSim_PpsfpMt)
    ->Args({3, 1})->Args({3, 2})->Args({3, 8})
    ->Unit(benchmark::kMillisecond);

void BM_FaultSim_GradeFullProgram(benchmark::State& state) {
  // Full-observation grading of the Table 1 program (1024 LFSR patterns
  // on the LSI stand-in) with every output strobed from pattern 0 — the
  // side case that finishes inside the first blocks; the progressive
  // Table 1 workload is BM_FaultSim_GradeProgressive. Arg 0 = serial
  // compiled PPSFP; arg N > 0 = simulate_ppsfp_mt with N worker threads.
  const circuit::Circuit c = circuit::make_array_multiplier(16);
  const fault::FaultList faults = fault::FaultList::full_universe(c);
  const sim::PatternSet patterns =
      tpg::lfsr_patterns(c.pattern_inputs().size(), 1024, 1981);
  const auto threads = static_cast<std::size_t>(state.range(0));
  for (auto _ : state) {
    const fault::FaultSimResult r =
        threads == 0 ? simulate_ppsfp(faults, patterns)
                     : simulate_ppsfp_mt(faults, patterns, nullptr, threads);
    benchmark::DoNotOptimize(r.coverage);
  }
  state.counters["lanes"] =
      static_cast<double>(std::max<std::size_t>(1, threads));
  state.SetLabel(threads == 0
                     ? "mult16 x 1024 patterns, serial"
                     : "mult16 x 1024 patterns, " + std::to_string(threads) +
                           " threads");
}
BENCHMARK(BM_FaultSim_GradeFullProgram)->Arg(0)->Arg(8)
    ->Unit(benchmark::kMillisecond)->Iterations(3);

void BM_FaultSim_GradeTransitionProgram(benchmark::State& state) {
  // The same full-observation program on the transition universe: the
  // two-pattern kernel's launch gating plus the larger (less collapsed)
  // class list.
  const circuit::Circuit c = circuit::make_array_multiplier(16);
  const fault::FaultList faults = fault::FaultList::transition_universe(c);
  const sim::PatternSet patterns =
      tpg::lfsr_patterns(c.pattern_inputs().size(), 1024, 1981);
  const auto threads = static_cast<std::size_t>(state.range(0));
  for (auto _ : state) {
    const fault::FaultSimResult r =
        threads == 0 ? simulate_ppsfp(faults, patterns)
                     : simulate_ppsfp_mt(faults, patterns, nullptr, threads);
    benchmark::DoNotOptimize(r.coverage);
  }
  state.counters["lanes"] =
      static_cast<double>(std::max<std::size_t>(1, threads));
  state.SetLabel(threads == 0
                     ? "mult16 x 1024 patterns, transition, serial"
                     : "mult16 x 1024 patterns, transition, " +
                           std::to_string(threads) + " threads");
}
BENCHMARK(BM_FaultSim_GradeTransitionProgram)->Arg(0)->Arg(8)
    ->Unit(benchmark::kMillisecond)->Iterations(3);

void BM_FaultSim_GradeProgressive(benchmark::State& state) {
  // The Table 1 workload (tools/specs/table1.spec): a 1024-pattern LFSR
  // program under progressive per-pin strobing, one more output strobed
  // every 24 patterns, graded by simulate_ppsfp on one thread.
  // Most live (class, block) steps have no strobed point in the class's
  // cone and are skipped (fault_sim.hpp). Arg = multiplier width.
  const int width = static_cast<int>(state.range(0));
  const circuit::Circuit c = circuit::make_array_multiplier(width);
  const fault::FaultList faults = fault::FaultList::full_universe(c);
  const sim::PatternSet patterns =
      tpg::lfsr_patterns(c.pattern_inputs().size(), 1024, 1981);
  const fault::StrobeSchedule schedule =
      fault::StrobeSchedule::progressive(c.observed_points().size(), 24);
  for (auto _ : state) {
    const fault::FaultSimResult r =
        simulate_ppsfp(faults, patterns, &schedule);
    benchmark::DoNotOptimize(r.coverage);
  }
  state.SetLabel("mult" + std::to_string(width) +
                 " x 1024 patterns, progressive step 24");
}
BENCHMARK(BM_FaultSim_GradeProgressive)->Arg(16)->Arg(32)->Arg(64)
    ->Unit(benchmark::kMillisecond)->MinTime(0.25);

void BM_FaultSim_GradeDeepRegions(benchmark::State& state) {
  // The worst case of the site walk inside fanout-free regions: stuck-at,
  // full observation, 1024 random patterns, one lane, on circuits whose
  // regions are deep. make_mux_tree(6) is one 190-gate region, and
  // make_alu(16) has regions far larger than the multiplier's 3 gates.
  // Arg 0 = mux_tree(6), arg 1 = alu(16).
  const bool mux = state.range(0) == 0;
  const circuit::Circuit c =
      mux ? circuit::make_mux_tree(6) : circuit::make_alu(16);
  const fault::FaultList faults = fault::FaultList::full_universe(c);
  util::Rng rng(7);
  sim::PatternSet patterns(c.pattern_inputs().size());
  patterns.append_random(1024, rng);
  for (auto _ : state) {
    const fault::FaultSimResult r = simulate_ppsfp(faults, patterns);
    benchmark::DoNotOptimize(r.coverage);
  }
  state.SetLabel(std::string(mux ? "mux_tree6" : "alu16") +
                 " x 1024 random patterns, full observation");
}
BENCHMARK(BM_FaultSim_GradeDeepRegions)->Arg(0)->Arg(1)
    ->Unit(benchmark::kMillisecond);

/// The BIST job shape of the bist_aliasing sweep
/// (tools/specs/sweeps/bist_aliasing_k<width>_512.spec): mult8, 512 LFSR
/// patterns, a `width`-bit MISR, every class graded on every block
/// without dropping, on one lane.
void bist_session_row(benchmark::State& state, int width) {
  const circuit::Circuit c = circuit::make_array_multiplier(8);
  const fault::FaultList faults = fault::FaultList::full_universe(c);
  bist::BistConfig config;
  config.misr_width = width;
  config.num_threads = 1;
  const bist::BistSession session(
      faults, tpg::lfsr_patterns(c.pattern_inputs().size(), 512, 29), config);
  for (auto _ : state) {
    const bist::BistResult r = session.run();
    benchmark::DoNotOptimize(r.signature_coverage);
  }
  state.SetLabel("mult8 x 512 patterns, k = " + std::to_string(width) +
                 ", 1 lane");
}

void BM_Bist_Session(benchmark::State& state) { bist_session_row(state, 8); }
BENCHMARK(BM_Bist_Session)->Unit(benchmark::kMillisecond);

// The sweep's widest register, whose fold reads the largest column table.
void BM_Bist_SessionK32(benchmark::State& state) {
  bist_session_row(state, 32);
}
BENCHMARK(BM_Bist_SessionK32)->Unit(benchmark::kMillisecond);

void BM_Dictionary_Build(benchmark::State& state) {
  // The full pass/fail dictionary: one row word per (class, block), no
  // dropping.
  const circuit::Circuit c = circuit::make_array_multiplier(8);
  const fault::FaultList faults = fault::FaultList::full_universe(c);
  const sim::PatternSet patterns =
      tpg::lfsr_patterns(c.pattern_inputs().size(), 512, 29);
  for (auto _ : state) {
    const fault::FaultDictionary d =
        fault::FaultDictionary::build(faults, patterns);
    benchmark::DoNotOptimize(d.class_count());
  }
  state.SetLabel("mult8 x 512 patterns");
}
BENCHMARK(BM_Dictionary_Build)->Unit(benchmark::kMillisecond);

void BM_Atpg_CompactTransition(benchmark::State& state) {
  // Pair-aware compaction of the uncompacted program that
  // tools/specs/sweeps/mult16_tr_atpg.spec generates: one no-drop grade
  // of the whole transition universe, recording last detections.
  const circuit::Circuit c = circuit::make_array_multiplier(16);
  const fault::FaultList faults = fault::FaultList::transition_universe(c);
  tpg::AtpgOptions options;
  options.random_patterns = 256;
  options.seed = 1981;
  const sim::PatternSet program = tpg::generate_tests(faults, options).patterns;
  for (auto _ : state) {
    const sim::PatternSet compacted =
        tpg::reverse_order_compact(faults, program);
    benchmark::DoNotOptimize(compacted.size());
  }
  state.SetLabel("mult16 transition ATPG, " + std::to_string(program.size()) +
                 " patterns");
}
BENCHMARK(BM_Atpg_CompactTransition)->Unit(benchmark::kMillisecond);

void BM_Atpg_Generate(benchmark::State& state) {
  // The whole generation recipe on mult16 as mult16_tr_atpg.spec runs it:
  // a 256-pattern random phase, then PODEM on the survivors with fault
  // dropping. Arg 0 = stuck-at, arg 1 = transition. The engine is built
  // inside the timed loop, once per run, as generate_tests builds it.
  const circuit::Circuit c = circuit::make_array_multiplier(16);
  const bool transition = state.range(0) != 0;
  const fault::FaultList faults =
      transition ? fault::FaultList::transition_universe(c)
                 : fault::FaultList::full_universe(c);
  tpg::AtpgOptions options;
  options.random_patterns = 256;
  options.seed = 1981;
  std::size_t program = 0;
  for (auto _ : state) {
    program = tpg::generate_tests(faults, options).patterns.size();
    benchmark::DoNotOptimize(program);
  }
  state.SetLabel(std::string("mult16 ") +
                 (transition ? "transition" : "stuck-at") + ", " +
                 std::to_string(program) + " patterns");
}
BENCHMARK(BM_Atpg_Generate)->Arg(0)->Arg(1)->Unit(benchmark::kMillisecond);

void BM_Tpg_LfsrPatterns(benchmark::State& state) {
  // The lfsr pattern source of every lfsr spec: 1024 scan-loaded patterns
  // over 32 inputs (mult16's width), seed 1981, as table1.spec asks.
  for (auto _ : state) {
    const sim::PatternSet patterns = tpg::lfsr_patterns(32, 1024, 1981);
    benchmark::DoNotOptimize(patterns.block_word(0, 0));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          1024);
  state.SetLabel("32 inputs x 1024 patterns");
}
BENCHMARK(BM_Tpg_LfsrPatterns)->Unit(benchmark::kMillisecond);

void BM_Podem_PerFault(benchmark::State& state) {
  // Arg 0 = plain PODEM, arg 1 = implication-assisted. The engine is
  // built ONCE outside the timed loop, exactly how the ATPG driver
  // amortizes it — rebuilding the static-learning tables per solve would
  // be measuring engine construction, not the assist.
  const circuit::Circuit c = circuit::make_alu(4);
  const circuit::CompiledCircuit compiled(c);
  const analyze::ImplicationEngine engine(compiled);
  const fault::FaultList faults = fault::FaultList::full_universe(c);
  const bool assisted = state.range(0) != 0;
  tpg::PodemOptions options;
  options.use_implications = assisted;
  if (assisted) options.implications = &engine;
  std::size_t index = 0;
  for (auto _ : state) {
    const tpg::PodemResult r = tpg::generate_test(
        c, faults.representatives()[index % faults.class_count()], options);
    benchmark::DoNotOptimize(r.status);
    ++index;
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
  state.SetLabel(assisted ? "alu4, implication-assisted" : "alu4, plain");
}
BENCHMARK(BM_Podem_PerFault)->Arg(0)->Arg(1);

// The static analyzer's structural pass (topology, constant propagation,
// observability, tied-constant untestable sites) has to stay cheap enough
// to run as a pre-flight gate before EVERY flow. The implication prover
// is off here; BM_Analyze_Implications times it.
void BM_Analyze_Structural(benchmark::State& state) {
  const circuit::Circuit c = circuit_for(static_cast<int>(state.range(0)));
  analyze::Options options;
  options.untestable = analyze::Policy::kOff;
  for (auto _ : state) {
    const analyze::Report report = analyze::analyze(c, options);
    benchmark::DoNotOptimize(report.diagnostics.size());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(c.gate_count()));
  state.SetLabel(circuit_name(static_cast<int>(state.range(0))));
}
BENCHMARK(BM_Analyze_Structural)->Arg(0)->Arg(1)->Arg(2)->Arg(3);

// The implication engine end to end: static learning, dominators and the
// dominator side-input cones, plus a full FIRE redundancy sweep. This is
// the one-time cost flow::run pays (per circuit, amortized over every
// PODEM solve) when analyze_untestable is enabled.
void BM_Analyze_Implications(benchmark::State& state) {
  const circuit::Circuit c = circuit_for(static_cast<int>(state.range(0)));
  const circuit::CompiledCircuit compiled(c);
  for (auto _ : state) {
    const analyze::ImplicationEngine engine(compiled);
    const analyze::RedundancyReport report =
        analyze::identify_redundancies(engine);
    benchmark::DoNotOptimize(report.sites.size());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(c.gate_count()));
  state.SetLabel(circuit_name(static_cast<int>(state.range(0))));
}
BENCHMARK(BM_Analyze_Implications)->Arg(0)->Arg(1)->Arg(2)->Arg(3)->Arg(4)
    ->Arg(5)->Unit(benchmark::kMillisecond);

// COP + SCOAP over a collapsed universe: the testability half of the
// gate, and the cost of one predicted coverage curve.
void BM_Analyze_Testability(benchmark::State& state) {
  const circuit::Circuit c = circuit_for(static_cast<int>(state.range(0)));
  const fault::FaultList faults = fault::FaultList::full_universe(c);
  for (auto _ : state) {
    const analyze::TestabilityReport report =
        analyze::analyze_testability(faults);
    benchmark::DoNotOptimize(report.predicted_coverage(1024));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(faults.class_count()));
  state.SetLabel(circuit_name(static_cast<int>(state.range(0))));
}
BENCHMARK(BM_Analyze_Testability)->Arg(0)->Arg(1)->Arg(2)->Arg(3);

// One flow-service job end to end, the daemon job shape (mult16, 1024
// LFSR patterns, full observation, engine = ppsfp) through the batch and
// daemon unit of work, run_spec_with_retry. Arg 0 starts every job on a
// fresh artifact cache: parse, circuit build, universe, compile, the
// analyze gate with its redundancy proof, grade, characterize. Arg 1
// runs on a warm cache, whose bundle already holds the compile and the
// proof: the cost of every daemon job after the first over a circuit.
void BM_Flow_DaemonJob(benchmark::State& state) {
  const bool warm = state.range(0) != 0;
  const std::string path =
      (std::filesystem::temp_directory_path() / "lsiq_perf_daemon_job.spec")
          .string();
  {
    std::ofstream out(path, std::ios::trunc);
    out << "circuit = mult16\nfault_model = stuck_at\nsource = lfsr\n"
           "patterns = 1024\nlfsr_seed = 1981\nobserve = full\n"
           "engine = ppsfp\nchips = 0\nyield = 0.07\nn0 = 8\n";
  }
  const flow::BatchOptions options;
  flow::ArtifactCache shared;
  if (warm) flow::run_spec_with_retry(path, shared, options);
  for (auto _ : state) {
    flow::ArtifactCache fresh;
    const flow::BatchRecord record =
        flow::run_spec_with_retry(path, warm ? shared : fresh, options);
    if (record.status != "ok") {
      state.SkipWithError(record.error.c_str());
      break;
    }
    benchmark::DoNotOptimize(record.coverage);
  }
  std::filesystem::remove(path);
  state.SetLabel(warm ? "mult16 x 1024, warm cache" : "mult16 x 1024, cold");
}
BENCHMARK(BM_Flow_DaemonJob)->Arg(0)->Arg(1)->Unit(benchmark::kMillisecond);

/// Effective parallelism of the host right now: the most that k spinning
/// threads (k = 2, 4) deliver relative to one, each wall the best of
/// three — the figure perfbench prints beside every run.
double effective_parallelism() {
  using Clock = std::chrono::steady_clock;
  const auto spin = [](std::size_t threads) {
    constexpr std::uint64_t kSteps = 10'000'000;
    double best = 0.0;
    for (int trial = 0; trial < 3; ++trial) {
      std::atomic<std::uint64_t> sink{0};
      const Clock::time_point start = Clock::now();
      std::vector<std::thread> workers;
      for (std::size_t t = 0; t < threads; ++t) {
        workers.emplace_back([&sink, t] {
          std::uint64_t x = t + 1;
          for (std::uint64_t i = 0; i < kSteps; ++i) {
            x = x * 6364136223846793005ULL + 1442695040888963407ULL;
          }
          sink.fetch_add(x);
        });
      }
      for (std::thread& worker : workers) worker.join();
      const double wall =
          std::chrono::duration<double>(Clock::now() - start).count();
      best = trial == 0 ? wall : std::min(best, wall);
    }
    return best;
  };
  const double one = spin(1);
  return std::max(2 * one / spin(2), 4 * one / spin(4));
}

}  // namespace

int main(int argc, char** argv) {
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  char parallelism[32];
  std::snprintf(parallelism, sizeof parallelism, "%.2f",
                effective_parallelism());
  benchmark::AddCustomContext("effective_parallelism", parallelism);
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
