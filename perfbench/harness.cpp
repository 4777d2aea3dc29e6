// perfbench_probe — the benchmark's in-process view of the lsiq layers.
//
// The end-to-end numbers come from the shipped binaries (lsiq_flow,
// lsiq_flowd) driven by run.py. This program supplies what those binaries
// cannot say about themselves: reference outputs to check them against,
// the host's effective parallelism, and per-layer spans recorded around
// calls into each layer's public functions.
//
//   perfbench_probe parallelism
//       one JSON line: wall time of 1, 2 and 4 spinning threads (best of 3)
//   perfbench_probe check SPEC...
//       one JSON line per spec: the canonical batch record and the
//       lsiq_flow stdout, graded with the serial reference engine where the
//       spec's observation allows it (misr specs are graded as written and
//       their full-observation detections cross-checked against serial)
//   perfbench_probe flow SECONDS TRACE REPORT SPEC
//       closed loop over one spec, alternating the untraced flow::run path,
//       the traced composition of its stages, and an analyze probe
//   perfbench_probe campaign SECONDS LANES TRACE SPEC...
//       closed loop over a spec list, alternating flow::run_batch with the
//       traced composition on the same number of lanes
//   perfbench_probe selftest
//       the dead-step count on a hand-built circuit with a known answer
//
// TRACE is written as Chrome trace-event JSON (opens in Perfetto). Every
// span carries its operation id and its parent span id; counters ride on
// the span of the call that produced them.
#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <exception>
#include <fstream>
#include <iostream>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <set>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "analyze/analyze.hpp"
#include "analyze/implication.hpp"
#include "analyze/redundancy.hpp"
#include "bist/session.hpp"
#include "circuit/compiled.hpp"
#include "core/fault_distribution.hpp"
#include "fault/fault_sim.hpp"
#include "fault/strobe.hpp"
#include "fault_model/universe.hpp"
#include "flow/batch.hpp"
#include "flow/flow.hpp"
#include "flow/spec_io.hpp"
#include "util/json.hpp"
#include "wafer/experiment.hpp"

namespace {

using namespace lsiq;
using Clock = std::chrono::steady_clock;

// ---- spans ----

struct Event {
  const char* name = "";
  std::uint64_t id = 0;
  std::uint64_t parent = 0;
  std::uint64_t op = 0;
  std::size_t lane = 0;
  double start_us = 0.0;
  double dur_us = 0.0;
  std::vector<std::pair<const char*, double>> counters;
};

const Clock::time_point g_epoch = Clock::now();
std::atomic<std::uint64_t> g_next_span{1};
std::atomic<std::uint64_t> g_next_op{1};

/// Per-thread recording state: spans land in the lane's own buffer, so
/// recording takes no lock.
thread_local std::vector<Event>* t_events = nullptr;
thread_local std::size_t t_lane = 0;
thread_local std::uint64_t t_parent = 0;
thread_local std::uint64_t t_op = 0;

double micros(Clock::time_point t) {
  return std::chrono::duration<double, std::micro>(t - g_epoch).count();
}

/// One span: the interval of a scope, its name, its parent (the span open
/// on this thread when it started) and the operation it belongs to.
class Span {
 public:
  explicit Span(const char* name) : start_(Clock::now()) {
    event_.name = name;
    event_.id = g_next_span.fetch_add(1);
    event_.parent = t_parent;
    event_.op = t_op;
    event_.lane = t_lane;
    t_parent = event_.id;
  }
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;
  ~Span() {
    const Clock::time_point end = Clock::now();
    t_parent = event_.parent;
    event_.start_us = micros(start_);
    event_.dur_us =
        std::chrono::duration<double, std::micro>(end - start_).count();
    if (t_events != nullptr) t_events->push_back(std::move(event_));
  }

  void count(const char* key, double value) {
    event_.counters.emplace_back(key, value);
  }

 private:
  Clock::time_point start_;
  Event event_;
};

/// An operation span: opens a fresh operation id for its scope.
class OpSpan {
 public:
  explicit OpSpan(const char* name)
      : saved_op_(std::exchange(t_op, g_next_op.fetch_add(1))), span_(name) {}
  OpSpan(const OpSpan&) = delete;
  OpSpan& operator=(const OpSpan&) = delete;
  ~OpSpan() { t_op = saved_op_; }
  Span& span() { return span_; }

 private:
  std::uint64_t saved_op_;
  Span span_;
};

void write_trace(const std::string& path,
                 const std::vector<std::vector<Event>>& lanes) {
  std::ofstream out(path, std::ios::trunc);
  out << "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[";
  bool first = true;
  for (const std::vector<Event>& lane : lanes) {
    for (const Event& event : lane) {
      std::string line = first ? "\n" : ",\n";
      first = false;
      line += "{\"name\":";
      util::json::append_string(line, event.name);
      line += ",\"cat\":\"lsiq\",\"ph\":\"X\",\"pid\":1,\"tid\":" +
              std::to_string(event.lane) +
              ",\"ts\":" + util::json::format_double(event.start_us) +
              ",\"dur\":" + util::json::format_double(event.dur_us) +
              ",\"args\":{\"id\":" + std::to_string(event.id) +
              ",\"parent\":" + std::to_string(event.parent) +
              ",\"op\":" + std::to_string(event.op);
      for (const auto& [key, value] : event.counters) {
        line += ",";
        util::json::append_string(line, key);
        line += ":" + util::json::format_double(value);
      }
      line += "}}";
      out << line;
    }
  }
  out << "\n]}\n";
  if (!out) throw IoError("cannot write trace file: " + path);
}

// ---- live (class, block) steps and the strobe-dead share ----

struct LiveSteps {
  std::size_t class_blocks = 0;  ///< classes still undetected entering a block
  std::size_t dead = 0;          ///< ... whose cone holds no strobed point
};

/// Every (class, 64-pattern block) step in which the class is still live,
/// derived from first detections, and how many of those steps grade a
/// class whose fanout cone reaches no point strobed in that block. A fault
/// on a gate's output or on one of its input pins first shows at that
/// gate's output, so the class's cone is the cone of its representative's
/// gate.
LiveSteps live_steps(const fault::FaultList& faults,
                     const analyze::ImplicationEngine& engine,
                     const fault::StrobeSchedule& schedule,
                     const std::vector<std::int64_t>& first_detection,
                     std::size_t pattern_count) {
  const std::vector<circuit::GateId>& points =
      faults.circuit().observed_points();
  const std::size_t blocks = (pattern_count + 63) / 64;
  LiveSteps steps;
  for (std::size_t c = 0; c < faults.class_count(); ++c) {
    const std::int64_t first = first_detection[c];
    const std::size_t live =
        first < 0 ? blocks : static_cast<std::size_t>(first) / 64 + 1;
    const circuit::GateId site = faults.representatives()[c].gate;
    for (std::size_t b = 0; b < live; ++b) {
      ++steps.class_blocks;
      bool watched = false;
      for (std::size_t p = 0; p < points.size() && !watched; ++p) {
        watched = schedule.lane_mask(p, b) != 0 &&
                  engine.in_cone(site, points[p]);
      }
      if (!watched) ++steps.dead;
    }
  }
  return steps;
}

/// The live-step census of each distinct spec, taken once per spec outside
/// every operation span (it is a property of the inputs, not work the flow
/// does) and recorded as a "fault.census" span carrying the counts. One
/// implication engine per circuit supplies the cones.
class Census {
 public:
  void record(const std::string& path, const fault::FaultList& faults,
              const flow::FlowSpec& spec, const flow::FlowResult& result) {
    if (!result.fault_sim.has_value()) return;
    const std::lock_guard<std::mutex> lock(mutex_);
    if (!done_.insert(path).second) return;
    Cones& cones = cones_[&faults.circuit()];
    if (cones.engine == nullptr) {
      cones.compiled =
          std::make_unique<circuit::CompiledCircuit>(faults.circuit());
      cones.engine =
          std::make_unique<analyze::ImplicationEngine>(*cones.compiled);
    }
    const std::size_t points = faults.circuit().observed_points().size();
    const fault::StrobeSchedule schedule =
        spec.observe.kind == "progressive"
            ? fault::StrobeSchedule::progressive(points,
                                                 spec.observe.strobe_step)
            : fault::StrobeSchedule::full(points);
    const LiveSteps steps =
        live_steps(faults, *cones.engine, schedule,
                   result.fault_sim->first_detection, result.patterns.size());
    Span span("fault.census");
    span.count("class_blocks", static_cast<double>(steps.class_blocks));
    span.count("strobe_dead", static_cast<double>(steps.dead));
  }

 private:
  struct Cones {
    std::unique_ptr<circuit::CompiledCircuit> compiled;
    std::unique_ptr<analyze::ImplicationEngine> engine;
  };
  std::mutex mutex_;
  std::set<std::string> done_;
  std::map<const circuit::Circuit*, Cones> cones_;
};

// ---- the traced composition of flow::run ----

/// flow::run's stages, called through their public functions in the same
/// order, one span each. Supports the observations the benchmark generates
/// (full, progressive, misr) under engine = ppsfp.
flow::FlowResult compose(
    const fault::FaultList& faults, const flow::FlowSpec& spec,
    const std::shared_ptr<const circuit::CompiledCircuit>& compiled) {
  LSIQ_EXPECT(spec.engine.kind == "ppsfp",
              "perfbench_probe: the composition grades engine = ppsfp only");
  flow::FlowResult result;
  result.spec = spec;
  result.spec.source.patterns.reset();

  {
    Span span("analyze.gate");
    flow::CheckOutcome gate = flow::check_detailed(faults, spec);
    result.lint = std::move(gate.diagnostics);
    result.statically_redundant_classes = gate.statically_redundant_classes;
    result.statically_redundant_faults = gate.statically_redundant_faults;
    span.count("redundant_classes",
               static_cast<double>(gate.statically_redundant_classes));
  }
  {
    Span span("tpg.patterns");
    result.patterns = flow::make_patterns(faults, spec.source, &result.atpg);
    if (result.atpg.has_value()) {
      span.count("atpg_patterns", static_cast<double>(result.patterns.size()));
      span.count("backtracks",
                 static_cast<double>(result.atpg->total_backtracks));
      span.count("decisions", static_cast<double>(result.atpg->total_decisions));
    }
  }
  LSIQ_EXPECT(!result.patterns.empty(),
              "perfbench_probe: the pattern source produced no patterns");
  const std::size_t pattern_count = result.patterns.size();

  if (spec.observe.kind == "misr") {
    bist::BistConfig config;
    config.misr_width = spec.observe.misr_width;
    config.misr_taps = spec.observe.misr_taps;
    config.num_threads = 1;  // engine = ppsfp grades signatures on one lane
    config.compiled = compiled;
    {
      Span span("bist.session");
      const bist::BistSession session(faults, result.patterns, config);
      result.bist = session.run();
      span.count("aliased_classes",
                 static_cast<double>(result.bist->aliased_classes.size()));
    }
    Span span("fault.curve");
    result.curve = result.bist->signature_curve(faults);
  } else {
    const std::size_t point_count = faults.circuit().observed_points().size();
    std::optional<fault::StrobeSchedule> schedule;
    if (spec.observe.kind == "progressive") {
      schedule = fault::StrobeSchedule::progressive(point_count,
                                                    spec.observe.strobe_step);
    }
    {
      Span span("fault.grade");
      result.fault_sim = fault::simulate_ppsfp(
          faults, result.patterns, schedule.has_value() ? &*schedule : nullptr,
          compiled, spec.engine.grade_width);
    }
    Span span("fault.curve");
    result.curve = result.fault_sim->curve(faults, pattern_count);
  }

  if (spec.lot.chip_count > 0 || spec.lot.physical.has_value()) {
    {
      Span span("wafer.lot");
      if (spec.lot.physical.has_value()) {
        result.lot = wafer::generate_physical_lot(faults, *spec.lot.physical);
      } else {
        const quality::FaultDistribution distribution(spec.lot.yield,
                                                      spec.lot.n0);
        result.lot = wafer::generate_lot(faults, distribution,
                                         spec.lot.chip_count, spec.lot.seed);
      }
      result.test = spec.observe.kind == "misr"
                        ? wafer::test_lot_bist(*result.lot, *result.bist)
                        : wafer::test_lot(*result.lot, *result.fault_sim,
                                          pattern_count);
    }
    Span span("wafer.readout");
    for (const double target : spec.analysis.strobe_coverages) {
      LSIQ_EXPECT(result.curve->reaches(target),
                  "perfbench_probe: a strobe coverage is never reached");
      const std::size_t t = result.curve->patterns_for_coverage(target);
      wafer::StrobeRow row;
      row.target_coverage = target;
      row.actual_coverage = result.curve->coverage_after(t);
      row.pattern_index = t;
      row.cumulative_failed = result.test->failed_within(t);
      row.cumulative_fraction = result.test->fraction_failed_within(t);
      result.table.push_back(row);
    }
  }

  Span span("core.characterize");
  const quality::CharacterizationMethod method =
      *quality::characterization_method_from_name(spec.analysis.method);
  result.analyzer =
      method == quality::CharacterizationMethod::kGiven
          ? quality::QualityAnalyzer(spec.lot.yield, spec.lot.n0)
          : quality::QualityAnalyzer::from_lot_data(result.points(),
                                                    spec.lot.yield, method);
  return result;
}

/// The batch record run_spec_once would write for this result.
flow::BatchRecord record_of(const std::string& path,
                            const fault::FaultList& faults,
                            const flow::FlowResult& result) {
  flow::BatchRecord record;
  record.spec = path;
  record.hash = flow::hash_spec_file(path);
  record.status = "ok";
  record.attempts = 1;
  record.patterns = result.patterns.size();
  record.classes = faults.class_count();
  record.coverage = result.curve.has_value() ? result.curve->final_coverage()
                                             : 0.0;
  const double delivered = result.bist.has_value()
                               ? result.bist->signature_coverage
                               : record.coverage;
  record.dppm =
      result.analyzer.has_value() ? result.analyzer->dppm(delivered) : 0.0;
  return record;
}

fault_model::FaultModel model_of(const flow::FlowSpec& spec) {
  return *fault_model::fault_model_from_name(spec.fault_model.kind);
}

/// What lsiq_flow prints for one spec.
std::string cli_stdout(const circuit::Circuit& circuit,
                       const fault::FaultList& faults,
                       const flow::FlowResult& result) {
  return "circuit: " + circuit.name() + " — " +
         fault_model::fault_model_label(faults.model()) +
         " fault universe N = " + std::to_string(faults.fault_count()) +
         " (" + std::to_string(faults.class_count()) +
         " collapsed classes)\n" + result.report();
}

double elapsed_s(Clock::time_point since) {
  return std::chrono::duration<double>(Clock::now() - since).count();
}

// ---- modes ----

int mode_parallelism() {
  // Best of three per thread count: what the host can deliver right now.
  const auto spin = [](std::size_t threads) {
    constexpr std::uint64_t kSteps = 20'000'000;
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
      const double wall = elapsed_s(start);
      best = trial == 0 ? wall : std::min(best, wall);
    }
    return best;
  };
  const double one = spin(1);
  const double two = spin(2);
  const double four = spin(4);
  std::cout << "{\"wall_1\":" << util::json::format_double(one)
            << ",\"wall_2\":" << util::json::format_double(two)
            << ",\"wall_4\":" << util::json::format_double(four) << "}\n";
  return 0;
}

int mode_check(const std::vector<std::string>& paths) {
  for (const std::string& path : paths) {
    const flow::SpecFile file = flow::read_spec_file(path);
    const circuit::Circuit circuit = flow::circuit_from_name(file.circuit);
    const fault::FaultList faults =
        fault_model::universe(circuit, model_of(file.spec));
    bool reference_ok = true;
    flow::FlowResult result;
    if (file.spec.observe.kind == "misr") {
      // No serial signature engine: grade as written, then check the
      // session's full-observation detections against the serial oracle.
      result = flow::run(faults, file.spec);
      const fault::FaultSimResult serial =
          fault::simulate_serial(faults, result.patterns);
      reference_ok = serial.first_detection == result.bist->first_error_pattern;
    } else {
      flow::FlowSpec serial = file.spec;
      serial.engine = flow::EngineSpec{};
      serial.engine.kind = "serial";
      result = flow::run(faults, serial);
      result.spec.engine = file.spec.engine;  // the report names the engine
    }
    std::string line = "{\"spec\":";
    util::json::append_string(line, path);
    line += ",\"reference_ok\":";
    line += reference_ok ? "true" : "false";
    line += ",\"canonical\":";
    util::json::append_string(line,
                              record_of(path, faults, result).canonical_jsonl());
    line += ",\"stdout\":";
    util::json::append_string(line, cli_stdout(circuit, faults, result));
    line += "}";
    std::cout << line << "\n";
  }
  return 0;
}

/// The layers a campaign reaches only through the artifact cache, and the
/// analyze gate's two halves, each timed on its own: circuit build,
/// universe, the lint pass, and the implication engine + redundancy proof
/// that the gate's census builds a second time.
void layer_probe(const std::string& path) {
  const OpSpan op("probe");
  const flow::SpecFile file = flow::read_spec_file(path);
  std::optional<circuit::Circuit> circuit;
  {
    Span span("circuit.build");
    circuit = flow::circuit_from_name(file.circuit);
    span.count("nodes", static_cast<double>(circuit->gate_count()));
  }
  std::optional<fault::FaultList> faults;
  {
    Span span("fault_model.universe");
    faults = fault_model::universe(*circuit, model_of(file.spec));
    span.count("classes", static_cast<double>(faults->class_count()));
  }
  const flow::AnalyzeSpec& policy = file.spec.analyze;
  analyze::Options options;
  options.structure = *analyze::policy_from_name(policy.structure);
  options.dead_logic = *analyze::policy_from_name(policy.dead_logic);
  options.untestable = *analyze::policy_from_name(policy.untestable);
  options.testability = *analyze::policy_from_name(policy.testability);
  options.resistant_threshold = policy.resistant_threshold;
  {
    Span span("analyze.lint");
    const analyze::Report report = analyze::analyze(*circuit, options);
    span.count("diagnostics", static_cast<double>(report.diagnostics.size()));
  }
  Span span("analyze.engine");
  const circuit::CompiledCircuit compiled(*circuit);
  const analyze::ImplicationEngine engine(compiled);
  const analyze::RedundancyReport redundancy =
      analyze::identify_redundancies(engine);
  span.count("redundant_sites", static_cast<double>(redundancy.sites.size()));
}

int mode_flow(double seconds, const std::string& trace_path,
              const std::string& report_path, const std::string& path) {
  std::vector<std::vector<Event>> lanes(1);
  t_events = &lanes[0];
  Census census;
  std::size_t ops = 0;
  std::size_t mismatches = 0;
  std::string traced_report;
  const Clock::time_point start = Clock::now();
  while (ops < 20 || elapsed_s(start) < seconds) {
    // Untraced: the program's own path, one span around the whole call.
    std::string untraced_report;
    {
      const OpSpan op("op.untraced");
      const flow::SpecFile file = flow::read_spec_file(path);
      flow::validate_or_throw(file.spec);
      const circuit::Circuit circuit = flow::circuit_from_name(file.circuit);
      const fault::FaultList faults =
          fault_model::universe(circuit, model_of(file.spec));
      const flow::FlowResult result = flow::run(faults, file.spec);
      untraced_report = cli_stdout(circuit, faults, result);
    }
    // Traced: the same calls, one span per stage.
    std::optional<flow::SpecFile> file;
    std::optional<circuit::Circuit> circuit;
    std::optional<fault::FaultList> faults;
    std::optional<flow::FlowResult> result;
    {
      const OpSpan op("op");
      {
        Span span("flow.parse");
        file = flow::read_spec_file(path);
        flow::validate_or_throw(file->spec);
      }
      {
        Span span("circuit.build");
        circuit = flow::circuit_from_name(file->circuit);
        span.count("nodes", static_cast<double>(circuit->gate_count()));
      }
      {
        Span span("fault_model.universe");
        faults = fault_model::universe(*circuit, model_of(file->spec));
        span.count("classes", static_cast<double>(faults->class_count()));
      }
      result = compose(*faults, file->spec, nullptr);
      Span span("flow.report");
      traced_report = cli_stdout(*circuit, *faults, *result);
    }
    census.record(path, *faults, file->spec, *result);
    if (traced_report != untraced_report) ++mismatches;
    layer_probe(path);
    ++ops;
  }
  write_trace(trace_path, lanes);
  std::ofstream(report_path, std::ios::trunc) << traced_report;
  std::cout << "{\"ops\":" << ops << ",\"mismatches\":" << mismatches
            << "}\n";
  return mismatches == 0 ? 0 : 1;
}

/// One campaign of the traced composition: `lanes` threads claim specs
/// from a shared counter, exactly like run_batch's lanes, and commit each
/// record to a truncated result store.
std::vector<flow::BatchRecord> traced_campaign(
    const std::vector<std::string>& paths, std::size_t lanes,
    const std::string& store_path, std::vector<std::vector<Event>>& events,
    Census& census) {
  std::vector<flow::BatchRecord> records(paths.size());
  OpSpan campaign("campaign");
  flow::ArtifactCache cache;
  flow::ResultStore store(store_path, nullptr);
  std::atomic<std::size_t> next{0};
  std::mutex error_mutex;
  std::exception_ptr error;
  const std::uint64_t campaign_span = t_parent;
  const auto lane_main = [&](std::size_t lane) {
    t_events = &events[lane];
    t_lane = lane;
    t_parent = campaign_span;
    try {
      while (true) {
        const std::size_t i = next.fetch_add(1);
        if (i >= paths.size()) return;
        const Clock::time_point begin = Clock::now();
        std::optional<flow::SpecFile> file;
        std::shared_ptr<const flow::ArtifactCache::Artifacts> artifacts;
        std::optional<flow::FlowResult> result;
        flow::BatchRecord record;
        {
          const OpSpan op("op");
          {
            Span span("flow.parse");
            file = flow::read_spec_file(paths[i]);
            flow::validate_or_throw(file->spec);
          }
          {
            Span span("flow.cache_get");
            artifacts = cache.get(file->circuit, model_of(file->spec));
          }
          result = compose(*artifacts->faults, file->spec, artifacts->compiled);
          record = record_of(paths[i], *artifacts->faults, *result);
          record.wall_ms =
              std::chrono::duration<double, std::milli>(Clock::now() - begin)
                  .count();
          Span span("flow.store_append");
          store.append(record);
        }
        census.record(paths[i], *artifacts->faults, file->spec, *result);
        records[i] = std::move(record);
      }
    } catch (...) {
      const std::lock_guard<std::mutex> lock(error_mutex);
      if (error == nullptr) error = std::current_exception();
    }
  };
  std::vector<std::thread> threads;
  for (std::size_t lane = 1; lane < lanes; ++lane) {
    threads.emplace_back(lane_main, lane);
  }
  lane_main(0);
  for (std::thread& thread : threads) thread.join();
  t_events = &events[0];
  t_lane = 0;
  t_parent = campaign_span;
  if (error != nullptr) std::rethrow_exception(error);
  const flow::ArtifactCache::Stats stats = cache.stats();
  campaign.span().count("cache_hits", static_cast<double>(stats.hits));
  campaign.span().count("cache_misses", static_cast<double>(stats.misses));
  return records;
}

int mode_campaign(double seconds, std::size_t lanes,
                  const std::string& trace_path,
                  const std::vector<std::string>& paths) {
  std::vector<std::vector<Event>> events(lanes);
  t_events = &events[0];
  Census census;
  const std::string untraced_store = trace_path + ".batch.jsonl";
  const std::string traced_store = trace_path + ".traced.jsonl";
  std::size_t campaigns = 0;
  std::size_t mismatches = 0;
  const Clock::time_point start = Clock::now();
  while (campaigns < 5 || elapsed_s(start) < seconds) {
    flow::BatchResult untraced;
    {
      const OpSpan op("campaign.untraced");
      flow::BatchOptions options;
      options.num_workers = lanes;
      options.checkpoint = untraced_store;
      options.resume = false;
      untraced = flow::run_batch(paths, options);
    }
    const std::vector<flow::BatchRecord> traced =
        traced_campaign(paths, lanes, traced_store, events, census);
    for (std::size_t i = 0; i < paths.size(); ++i) {
      if (traced[i].canonical_jsonl() !=
          untraced.records[i].canonical_jsonl()) {
        ++mismatches;
      }
    }
    ++campaigns;
  }
  for (int rep = 0; rep < 5; ++rep) layer_probe(paths.front());
  write_trace(trace_path, events);
  std::cout << "{\"campaigns\":" << campaigns
            << ",\"mismatches\":" << mismatches << "}\n";
  return mismatches == 0 ? 0 : 1;
}

int mode_selftest() {
  // Two disjoint cones: o1 = NOT(a) and o2 = NOT(c). Point 0 (o1) is
  // strobed from pattern 0; point 1 (o2) from pattern `step`. By symmetry
  // half the collapsed classes sit in each cone.
  circuit::Circuit circuit("selftest");
  const circuit::GateId a = circuit.add_input("a");
  const circuit::GateId c = circuit.add_input("c");
  circuit.mark_output(circuit.add_gate(circuit::GateType::kNot, {a}, "o1"));
  circuit.mark_output(circuit.add_gate(circuit::GateType::kNot, {c}, "o2"));
  circuit.finalize();
  const fault::FaultList faults =
      fault_model::universe(circuit, fault_model::FaultModel::kStuckAt);
  const circuit::CompiledCircuit compiled(circuit);
  const analyze::ImplicationEngine engine(compiled);
  const std::size_t classes = faults.class_count();
  const std::vector<std::int64_t> never(classes, -1);
  const std::vector<std::int64_t> block0(classes, 5);

  struct Case {
    const char* name;
    std::size_t step;
    const std::vector<std::int64_t>* first;
    std::size_t class_blocks;
    std::size_t dead;
  };
  // 128 patterns = 2 blocks. o2 strobed from 64: in block 0 every o2-cone
  // class is dead (classes/2 steps), in block 1 nothing is.
  const Case cases[] = {
      {"undetected, o2 from block 1", 64, &never, 2 * classes, classes / 2},
      {"detected in block 0, o2 from block 1", 64, &block0, classes,
       classes / 2},
      {"o2 from mid-block 0", 32, &never, 2 * classes, 0},
  };
  bool ok = classes % 2 == 0 && classes > 0;
  for (const Case& test : cases) {
    const LiveSteps steps =
        live_steps(faults, engine,
                   fault::StrobeSchedule::progressive(2, test.step),
                   *test.first, 128);
    const bool pass =
        steps.class_blocks == test.class_blocks && steps.dead == test.dead;
    std::cout << (pass ? "ok   " : "FAIL ") << test.name << ": "
              << steps.dead << "/" << steps.class_blocks << " dead (want "
              << test.dead << "/" << test.class_blocks << ")\n";
    ok = ok && pass;
  }
  return ok ? 0 : 1;
}

int usage() {
  std::cerr << "usage: perfbench_probe parallelism | selftest\n"
               "       perfbench_probe check SPEC...\n"
               "       perfbench_probe flow SECONDS TRACE REPORT SPEC\n"
               "       perfbench_probe campaign SECONDS LANES TRACE SPEC...\n";
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  const std::vector<std::string> args(argv + 1, argv + argc);
  if (args.empty()) return usage();
  try {
    const std::string& mode = args[0];
    if (mode == "parallelism" && args.size() == 1) return mode_parallelism();
    if (mode == "selftest" && args.size() == 1) return mode_selftest();
    if (mode == "check" && args.size() >= 2) {
      return mode_check({args.begin() + 1, args.end()});
    }
    if (mode == "flow" && args.size() == 5) {
      return mode_flow(std::stod(args[1]), args[2], args[3], args[4]);
    }
    if (mode == "campaign" && args.size() >= 5) {
      return mode_campaign(std::stod(args[1]), std::stoul(args[2]), args[3],
                           {args.begin() + 4, args.end()});
    }
    return usage();
  } catch (const std::exception& e) {
    std::cerr << "perfbench_probe: " << e.what() << "\n";
    return 1;
  }
}
