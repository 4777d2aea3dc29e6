// Tests for the flow service: admission control, priority ordering,
// cancellation (queued and running), drain/shutdown semantics, store
// resume, batch equivalence, bounded-cache eviction under load, the wire
// protocol, and a full socket round trip.
#include "service/service.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <climits>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "circuit/bench_io.hpp"
#include "fault_model/universe.hpp"
#include "flow/batch.hpp"
#include "service/protocol.hpp"
#include "service/server.hpp"
#include "util/error.hpp"
#include "util/failpoint.hpp"
#include "util/json.hpp"

namespace lsiq::service {
namespace {

namespace fs = std::filesystem;

/// A tiny spec that runs in milliseconds (c17: 22 collapsed classes).
constexpr const char* kGoodSpec =
    "circuit = c17\n"
    "source = lfsr\n"
    "patterns = 64\n"
    "observe = full\n"
    "engine = ppsfp\n";

class ServiceTest : public ::testing::Test {
 protected:
  void SetUp() override {
    util::Failpoints::instance().clear();
    dir_ = fs::path(::testing::TempDir()) / "lsiq_service" /
           ::testing::UnitTest::GetInstance()->current_test_info()->name();
    fs::remove_all(dir_);
    fs::create_directories(dir_);
  }
  void TearDown() override { util::Failpoints::instance().clear(); }

  std::string write_spec(const std::string& name,
                         const std::string& text = kGoodSpec) {
    const fs::path path = dir_ / name;
    std::ofstream out(path);
    out << text;
    return path.string();
  }

  /// A spec over `circuit` (fast: 16 LFSR patterns, full observation).
  std::string write_circuit_spec(const std::string& circuit) {
    return write_spec(circuit + ".spec", "circuit = " + circuit +
                                            "\n"
                                            "source = lfsr\n"
                                            "patterns = 16\n"
                                            "observe = full\n"
                                            "engine = ppsfp\n"
                                            "chips = 0\n"
                                            "yield = 0.1\n"
                                            "n0 = 5\n");
  }

  std::string store_path() const { return (dir_ / "store.jsonl").string(); }

  /// Deterministic-test options: 1 lane (ordering is observable), no
  /// backoff sleeping.
  ServiceOptions lane1_options() {
    ServiceOptions options;
    options.num_workers = 1;
    options.store_path = store_path();
    options.spool_dir = dir_.string();
    options.retry.backoff_initial_ms = 0;
    return options;
  }

  /// Spin until job `id` reports kRunning (a submit was picked up).
  static void wait_until_running(FlowService& service, std::uint64_t id) {
    for (int i = 0; i < 2000; ++i) {
      const std::optional<JobInfo> info = service.status(id);
      ASSERT_TRUE(info.has_value());
      if (info->state == JobState::kRunning) return;
      if (info->state == JobState::kDone) return;  // too fast — fine
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    FAIL() << "job " << id << " never started running";
  }

  /// The store's record lines, in completion (append) order.
  std::vector<flow::BatchRecord> store_lines() const {
    std::vector<flow::BatchRecord> records;
    std::ifstream in(store_path());
    std::string line;
    while (std::getline(in, line)) {
      const std::optional<flow::BatchRecord> record =
          flow::BatchRecord::from_jsonl(line);
      if (record.has_value()) records.push_back(*record);
    }
    return records;
  }

  fs::path dir_;
};

// ---- basic lifecycle ----

TEST_F(ServiceTest, SubmitRunsToOkRecord) {
  const std::string spec = write_spec("a.spec");
  FlowService service(lane1_options());
  const std::uint64_t id = service.submit(spec);
  const JobInfo done = service.wait(id);
  EXPECT_EQ(done.state, JobState::kDone);
  EXPECT_EQ(done.record.status, "ok");
  EXPECT_EQ(done.record.error_code, ErrorCode::kOk);
  EXPECT_EQ(done.record.attempts, 1);
  EXPECT_EQ(done.record.spec, spec);
  EXPECT_GT(done.record.patterns, 0u);

  const ServiceStats stats = service.stats();
  EXPECT_EQ(stats.submitted, 1u);
  EXPECT_EQ(stats.completed, 1u);
  EXPECT_EQ(stats.done, 1u);
  EXPECT_EQ(stats.queued, 0u);

  // The record landed in the journal too.
  ASSERT_EQ(store_lines().size(), 1u);
  EXPECT_EQ(store_lines()[0].status, "ok");
}

TEST_F(ServiceTest, StatusAndWaitRejectUnknownJobs) {
  FlowService service(lane1_options());
  EXPECT_FALSE(service.status(99).has_value());
  EXPECT_FALSE(service.cancel(99));
  try {
    service.wait(99);
    FAIL() << "wait(99) should throw";
  } catch (const Error& e) {
    EXPECT_EQ(e.code(), ErrorCode::kNotFound);
  }
}

// ---- equivalence with the batch runner ----

TEST_F(ServiceTest, ServiceStoreIsCanonicallyEquivalentToBatch) {
  // The same specs through run_batch and through the daemon queue must
  // produce canonically identical result stores: same records, only the
  // volatile fields (wall_ms, resumed) may differ.
  const std::vector<std::string> specs = {
      write_spec("a.spec"),
      write_spec("b.spec",
                 "circuit = adder8\nsource = lfsr\npatterns = 32\n"
                 "observe = full\nengine = ppsfp\nchips = 0\n"
                 "yield = 0.1\nn0 = 5\n"),
      write_spec("c.spec",
                 "circuit = c17\nsource = lfsr\npatterns = 128\n"
                 "observe = full\nengine = ppsfp\n"),
  };

  flow::BatchOptions batch_options;
  batch_options.num_workers = 2;
  batch_options.checkpoint = (dir_ / "batch.jsonl").string();
  batch_options.retry.backoff_initial_ms = 0;
  flow::run_batch(specs, batch_options);

  {
    ServiceOptions options = lane1_options();
    options.num_workers = 2;
    FlowService service(options);
    for (const std::string& spec : specs) service.submit(spec);
    service.drain();
  }

  const std::map<std::string, flow::BatchRecord> batch_records =
      flow::load_result_store(batch_options.checkpoint);
  const std::map<std::string, flow::BatchRecord> service_records =
      flow::load_result_store(store_path());
  ASSERT_EQ(batch_records.size(), specs.size());
  ASSERT_EQ(service_records.size(), specs.size());
  for (const auto& [spec, record] : batch_records) {
    const auto it = service_records.find(spec);
    ASSERT_NE(it, service_records.end()) << spec;
    EXPECT_EQ(record.canonical_jsonl(), it->second.canonical_jsonl());
  }
}

// ---- priority ordering ----

TEST_F(ServiceTest, HigherPriorityRunsFirst) {
  // One lane; the first job sleeps at the lane boundary, so the next two
  // are both queued when it finishes — the higher priority one must win
  // even though it was submitted later. Store append order IS completion
  // order.
  util::Failpoints::instance().arm_from_string("service.job=sleep(150,1)");
  const std::string first = write_spec("first.spec");
  const std::string low = write_spec("low.spec");
  const std::string high = write_spec("high.spec");
  FlowService service(lane1_options());
  const std::uint64_t a = service.submit(first);
  wait_until_running(service, a);
  service.submit(low, /*priority=*/0);
  service.submit(high, /*priority=*/5);
  service.drain();

  const std::vector<flow::BatchRecord> lines = store_lines();
  ASSERT_EQ(lines.size(), 3u);
  EXPECT_EQ(lines[0].spec, first);
  EXPECT_EQ(lines[1].spec, high);
  EXPECT_EQ(lines[2].spec, low);
}

// ---- admission control ----

TEST_F(ServiceTest, FullQueueRefusesWithQueueFull) {
  util::Failpoints::instance().arm_from_string("service.job=sleep(200,1)");
  ServiceOptions options = lane1_options();
  options.max_queue = 2;
  FlowService service(options);
  const std::uint64_t a = service.submit(write_spec("a.spec"));
  wait_until_running(service, a);
  service.submit(write_spec("b.spec"));
  service.submit(write_spec("c.spec"));
  try {
    service.submit(write_spec("d.spec"));
    FAIL() << "submit beyond max_queue should throw";
  } catch (const Error& e) {
    EXPECT_EQ(e.code(), ErrorCode::kQueueFull);
    EXPECT_TRUE(e.transient());  // a polite client backs off and retries
  }
  EXPECT_EQ(service.stats().rejected, 1u);
  service.drain();
  // The admitted jobs all completed despite the refusal.
  EXPECT_EQ(service.stats().completed, 3u);
}

TEST_F(ServiceTest, DrainStopsAdmissionWithShutdownCode) {
  FlowService service(lane1_options());
  service.submit(write_spec("a.spec"));
  service.drain();
  EXPECT_TRUE(service.draining());
  try {
    service.submit(write_spec("b.spec"));
    FAIL() << "submit after drain should throw";
  } catch (const Error& e) {
    EXPECT_EQ(e.code(), ErrorCode::kShutdown);
    EXPECT_FALSE(e.transient());  // a draining service never re-opens
  }
}

// ---- cancellation ----

TEST_F(ServiceTest, CancelQueuedJobCommitsImmediateCancelledRecord) {
  util::Failpoints::instance().arm_from_string("service.job=sleep(200,1)");
  FlowService service(lane1_options());
  const std::uint64_t a = service.submit(write_spec("a.spec"));
  wait_until_running(service, a);
  const std::uint64_t b = service.submit(write_spec("b.spec"));
  EXPECT_TRUE(service.cancel(b));
  // The record exists NOW — no waiting on the lane.
  const std::optional<JobInfo> info = service.status(b);
  ASSERT_TRUE(info.has_value());
  EXPECT_EQ(info->state, JobState::kDone);
  EXPECT_EQ(info->record.status, "failed");
  EXPECT_EQ(info->record.error_code, ErrorCode::kCancelled);
  EXPECT_FALSE(info->record.transient);
  EXPECT_EQ(info->record.attempts, 0);  // never ran
  service.drain();
  EXPECT_EQ(service.stats().cancelled, 1u);
}

TEST_F(ServiceTest, CancelRunningJobUnwindsThroughCancelScope) {
  // The job sleeps 400ms at the "flow.grade" checkpoint INSIDE the run;
  // the cancel flag flips mid-sleep and the post-sleep poll throws
  // CancelledError through the retry boundary into a structured record.
  util::Failpoints::instance().arm_from_string("flow.grade=sleep(400,1)");
  FlowService service(lane1_options());
  const std::uint64_t id = service.submit(write_spec("a.spec"));
  wait_until_running(service, id);
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  EXPECT_TRUE(service.cancel(id));
  const JobInfo done = service.wait(id);
  EXPECT_EQ(done.record.status, "failed");
  EXPECT_EQ(done.record.error_code, ErrorCode::kCancelled);
  EXPECT_FALSE(done.record.transient);  // cancelled work is not retried
  EXPECT_EQ(done.record.attempts, 1);
}

TEST_F(ServiceTest, CancelDoneJobHasNoEffect) {
  FlowService service(lane1_options());
  const std::uint64_t id = service.submit(write_spec("a.spec"));
  service.wait(id);
  EXPECT_FALSE(service.cancel(id));
  EXPECT_EQ(service.status(id)->record.status, "ok");
}

TEST_F(ServiceTest, ShutdownCancelsQueuedJobs) {
  util::Failpoints::instance().arm_from_string("service.job=sleep(150,1)");
  FlowService service(lane1_options());
  const std::uint64_t a = service.submit(write_spec("a.spec"));
  wait_until_running(service, a);
  const std::uint64_t b = service.submit(write_spec("b.spec"));
  service.shutdown();
  // a finished (or was cancelled mid-run); b never ran.
  const std::optional<JobInfo> info = service.status(b);
  ASSERT_TRUE(info.has_value());
  EXPECT_EQ(info->state, JobState::kDone);
  EXPECT_EQ(info->record.error_code, ErrorCode::kCancelled);
  EXPECT_EQ(info->record.attempts, 0);
}

// ---- failure injection at the lane boundary ----

TEST_F(ServiceTest, ServiceJobFailpointBecomesStructuredRecord) {
  util::Failpoints::instance().arm_from_string("service.job=error(io,1)");
  FlowService service(lane1_options());
  const std::uint64_t id = service.submit(write_spec("a.spec"));
  const JobInfo done = service.wait(id);
  EXPECT_EQ(done.record.status, "failed");
  EXPECT_EQ(done.record.error_code, ErrorCode::kIo);
  EXPECT_TRUE(done.record.transient);
  // The lane survived: the next job runs normally.
  const std::uint64_t next = service.submit(write_spec("b.spec"));
  EXPECT_EQ(service.wait(next).record.status, "ok");
}

TEST_F(ServiceTest, TransientFlowFailureIsRetriedInsideTheJob) {
  // Same retry semantics as the batch runner: a fails-once transient
  // error inside the run is absorbed by the second attempt.
  util::Failpoints::instance().arm_from_string(
      "flow.run=error(transient,1)");
  FlowService service(lane1_options());
  const std::uint64_t id = service.submit(write_spec("a.spec"));
  const JobInfo done = service.wait(id);
  EXPECT_EQ(done.record.status, "ok");
  EXPECT_EQ(done.record.attempts, 2);
}

// ---- store resume ----

TEST_F(ServiceTest, RestartResumesUnchangedOkSpecsFromStore) {
  const std::string spec = write_spec("a.spec");
  flow::BatchRecord first_record;
  {
    FlowService service(lane1_options());
    first_record = service.wait(service.submit(spec)).record;
  }
  // "Restart": a fresh service on the same store. The unchanged spec
  // resolves instantly as a resumed record with identical canonical form.
  {
    FlowService service(lane1_options());
    const std::uint64_t id = service.submit(spec);
    const std::optional<JobInfo> info = service.status(id);
    ASSERT_TRUE(info.has_value());
    EXPECT_EQ(info->state, JobState::kDone);  // no queueing, no running
    EXPECT_TRUE(info->record.resumed);
    EXPECT_EQ(info->record.canonical_jsonl(),
              first_record.canonical_jsonl());
    EXPECT_EQ(service.stats().resumed, 1u);
  }
  // The journal now holds two records for the spec; last-wins loading
  // sees the resumed one.
  EXPECT_EQ(store_lines().size(), 2u);
  EXPECT_TRUE(flow::load_result_store(store_path()).at(spec).resumed);
}

TEST_F(ServiceTest, ChangedSpecIsNotResumed) {
  const std::string spec = write_spec("a.spec");
  {
    FlowService service(lane1_options());
    service.wait(service.submit(spec));
  }
  write_spec("a.spec",
             "circuit = c17\nsource = lfsr\npatterns = 32\n"
             "observe = full\nengine = ppsfp\n");
  {
    FlowService service(lane1_options());
    const JobInfo done = service.wait(service.submit(spec));
    EXPECT_FALSE(done.record.resumed);
    EXPECT_EQ(done.record.patterns, 32u);
    EXPECT_EQ(service.stats().resumed, 0u);
  }
}

TEST_F(ServiceTest, RestartAfterABenchEditRunsTheJobAgain) {
  // The journal's record keys on the netlist the spec reads: a service
  // restarted on the same journal after the .bench was rewritten runs the
  // job again instead of answering from the stale record.
  const fs::path bench = dir_ / "product.bench";
  const auto write_bench = [&](const std::string& text) {
    std::ofstream out(bench, std::ios::trunc);
    out << text;
  };
  write_bench("INPUT(a)\nINPUT(b)\nOUTPUT(y)\ny = AND(a, b)\n");
  const std::string spec = write_spec(
      "product.spec", "circuit = " + bench.string() +
                          "\nsource = lfsr\npatterns = 16\nobserve = full\n"
                          "engine = ppsfp\nchips = 0\nyield = 0.1\nn0 = 5\n");
  {
    FlowService service(lane1_options());
    const JobInfo done = service.wait(service.submit(spec));
    ASSERT_EQ(done.record.status, "ok") << done.record.error;
    EXPECT_EQ(done.record.classes, 4u);
  }
  write_bench(
      "INPUT(a)\nINPUT(b)\nINPUT(c)\nOUTPUT(y)\nOUTPUT(z)\n"
      "t = NAND(a, b)\ny = OR(t, c)\nz = XOR(a, c)\n");
  {
    FlowService service(lane1_options());
    const JobInfo done = service.wait(service.submit(spec));
    EXPECT_FALSE(done.record.resumed);
    ASSERT_EQ(done.record.status, "ok") << done.record.error;
    EXPECT_EQ(done.record.classes, 16u);
    EXPECT_EQ(service.stats().resumed, 0u);
  }
}

// ---- job lanes ----

TEST_F(ServiceTest, TwoJobLanesRunTwoAllCoreJobsAtOnce) {
  // A job lane is a thread of its own, not a share of the shared pool:
  // two jobs that each grade on every core (`threads = 0`) both run at
  // once on a 2-lane service, whatever the hardware. Both hold their
  // lanes in the "flow.grade" checkpoint's sleep while this test looks.
  util::Failpoints::instance().arm_from_string("flow.grade=sleep(500,2)");
  ServiceOptions options = lane1_options();
  options.num_workers = 2;
  FlowService service(options);
  const std::string text =
      "circuit = c17\nsource = lfsr\npatterns = 64\nobserve = full\n"
      "engine = ppsfp\nthreads = 0\n";
  const std::uint64_t a = service.submit(write_spec("a.spec", text));
  const std::uint64_t b = service.submit(write_spec("b.spec", text));
  bool both_running = false;
  for (int i = 0; i < 2000 && !both_running; ++i) {
    both_running = service.status(a)->state == JobState::kRunning &&
                   service.status(b)->state == JobState::kRunning;
    if (!both_running) {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
  }
  EXPECT_TRUE(both_running);
  EXPECT_EQ(service.wait(a).record.status, "ok");
  EXPECT_EQ(service.wait(b).record.status, "ok");
}

// ---- bounded cache under load (the daemon memory contract) ----

TEST_F(ServiceTest, HundredJobRunStaysUnderCacheBoundWithEvictions) {
  // 120 jobs cycling over 12 distinct products through a cache bounded
  // well below the sum of their costs: evictions must happen, the live
  // cost must stay under the bound, and every job must still be "ok"
  // (an evicted artifact rebuilds on demand).
  const std::vector<std::string> circuits = {
      "adder4",  "adder6", "adder8",  "parity8", "parity16", "mux8",
      "decoder4", "majority5", "comparator4", "alu4", "barrel8", "c17"};
  std::vector<std::string> specs;
  specs.reserve(circuits.size());
  std::size_t total_cost = 0;
  for (const std::string& circuit : circuits) {
    specs.push_back(write_circuit_spec(circuit));
    // Learn each artifact's cost the same way the cache charges it.
    flow::ArtifactCache probe;
    const auto artifacts =
        probe.get(circuit, fault_model::FaultModel::kStuckAt);
    total_cost += flow::ArtifactCache::cost_of(*artifacts);
  }
  // One node short of the full working set: all twelve entries can never
  // be live at once (eviction MUST fire), yet any single entry fits, so
  // cost <= bound is a real invariant (the MRU exemption never applies).
  const std::size_t bound = total_cost - 1;

  ServiceOptions options = lane1_options();
  options.num_workers = 2;
  options.cache_max_cost = bound;
  FlowService service(options);
  std::vector<std::uint64_t> ids;
  for (int i = 0; i < 120; ++i) {
    ids.push_back(service.submit(specs[i % specs.size()]));
  }
  service.drain();

  const ServiceStats stats = service.stats();
  EXPECT_EQ(stats.completed, 120u);
  EXPECT_GT(stats.cache.evictions, 0u);
  EXPECT_LE(stats.cache.cost, bound);
  EXPECT_EQ(stats.cache.max_cost, bound);
  EXPECT_EQ(stats.cache.hits + stats.cache.misses, 120u);
  for (const std::uint64_t id : ids) {
    EXPECT_EQ(service.status(id)->record.status, "ok");
  }
}

TEST_F(ServiceTest, EditedBenchBehindARunningServiceIsRebuilt) {
  // A long-lived service must not serve the old netlist (or its proof)
  // after the .bench a spec references is rewritten: the second job of
  // the same spec misses the cache and grades the new circuit.
  const fs::path bench = dir_ / "product.bench";
  const auto write_bench = [&](const std::string& text) {
    std::ofstream out(bench, std::ios::trunc);
    out << text;
  };
  const std::string small = "INPUT(a)\nINPUT(b)\nOUTPUT(y)\ny = AND(a, b)\n";
  const std::string large =
      "INPUT(a)\nINPUT(b)\nINPUT(c)\nOUTPUT(y)\nOUTPUT(z)\n"
      "t = NAND(a, b)\ny = OR(t, c)\nz = XOR(a, c)\n";
  const auto classes_of = [](const std::string& text) {
    return fault_model::universe(circuit::read_bench_string(text),
                                 fault_model::FaultModel::kStuckAt)
        .class_count();
  };
  ASSERT_NE(classes_of(small), classes_of(large));
  write_bench(small);
  const std::string spec = write_spec(
      "product.spec", "circuit = " + bench.string() +
                          "\nsource = lfsr\npatterns = 16\nobserve = full\n"
                          "engine = ppsfp\nchips = 0\nyield = 0.1\nn0 = 5\n");

  FlowService service(lane1_options());
  const JobInfo first = service.wait(service.submit(spec));
  ASSERT_EQ(first.record.status, "ok") << first.record.error;
  EXPECT_EQ(first.record.classes, classes_of(small));

  write_bench(large);
  const JobInfo second = service.wait(service.submit(spec));
  ASSERT_EQ(second.record.status, "ok") << second.record.error;
  EXPECT_EQ(second.record.classes, classes_of(large));
  const ServiceStats stats = service.stats();
  EXPECT_EQ(stats.cache.misses, 2u);
  EXPECT_EQ(stats.cache.hits, 0u);
  EXPECT_EQ(stats.cache.entries, 1u);
}

// ---- the wire protocol ----

TEST(ServiceProtocol, RequestRoundTrips) {
  Request request;
  request.op = "submit";
  request.spec = "specs/a \"quoted\".spec";
  request.priority = 7;
  request.deadline_ms = 1500;
  const std::optional<Request> parsed =
      parse_request(format_request(request));
  ASSERT_TRUE(parsed.has_value());
  EXPECT_EQ(parsed->op, "submit");
  EXPECT_EQ(parsed->spec, request.spec);
  EXPECT_EQ(parsed->priority, 7);
  EXPECT_EQ(parsed->deadline_ms, 1500);
  EXPECT_FALSE(parsed->has_job);

  Request job_request;
  job_request.op = "cancel";
  job_request.job = 42;
  job_request.has_job = true;
  const std::optional<Request> parsed_job =
      parse_request(format_request(job_request));
  ASSERT_TRUE(parsed_job.has_value());
  EXPECT_TRUE(parsed_job->has_job);
  EXPECT_EQ(parsed_job->job, 42u);
}

TEST(ServiceProtocol, MalformedLinesParseToNothing) {
  EXPECT_FALSE(parse_request("").has_value());
  EXPECT_FALSE(parse_request("not json").has_value());
  EXPECT_FALSE(parse_request("{\"spec\":\"x\"}").has_value());  // no op
  EXPECT_FALSE(parse_request("{\"op\":1}").has_value());  // op not string
}

TEST(ServiceProtocol, OutOfRangeIntegersAreMalformed) {
  // An integer field must be a finite integer in its type's range. Before
  // the range check, "job":-1 read as 2^64 - 1 and "priority":1e300 as
  // INT_MIN, both undefined double-to-integer casts.
  for (const char* line : {
           "{\"op\":\"status\",\"job\":-1}",
           "{\"op\":\"status\",\"job\":1.5}",
           "{\"op\":\"status\",\"job\":1e300}",
           "{\"op\":\"submit\",\"spec\":\"x\",\"priority\":1e300}",
           "{\"op\":\"submit\",\"spec\":\"x\",\"priority\":2147483648}",
           "{\"op\":\"submit\",\"spec\":\"x\",\"deadline_ms\":nan}",
           "{\"op\":\"submit\",\"spec\":\"x\",\"deadline_ms\":-inf}",
       }) {
    SCOPED_TRACE(line);
    EXPECT_FALSE(parse_request(line).has_value());
  }
  // The bounds themselves are in range.
  const std::optional<Request> edge = parse_request(
      "{\"op\":\"submit\",\"spec\":\"x\",\"priority\":-2147483648,"
      "\"deadline_ms\":2147483647,\"job\":0}");
  ASSERT_TRUE(edge.has_value());
  EXPECT_EQ(edge->priority, INT_MIN);
  EXPECT_EQ(edge->deadline_ms, INT_MAX);
  EXPECT_TRUE(edge->has_job);
  EXPECT_EQ(edge->job, 0u);
}

TEST(ServiceProtocol, NonJsonNumbersAreMalformed) {
  // A number must match JSON's grammar and be finite, or the request is
  // refused as unparseable.
  for (const char* line : {
           "{\"op\":\"status\",\"job\":0x10}",
           "{\"op\":\"status\",\"job\":+1}",
           "{\"op\":\"status\",\"job\":01}",
           "{\"op\":\"status\",\"job\":1.}",
           "{\"op\":\"submit\",\"spec\":\"x\",\"priority\":.5}",
           "{\"op\":\"submit\",\"spec\":\"x\",\"priority\":1e}",
           "{\"op\":\"submit\",\"spec\":\"x\",\"deadline_ms\":1e999}",
           "{\"op\":\"submit\",\"spec\":\"x\",\"deadline_ms\":infinity}",
           "{\"op\":\"ping\",\"extra\":nan}",
       }) {
    SCOPED_TRACE(line);
    EXPECT_FALSE(parse_request(line).has_value());
  }
  const std::optional<Request> fine = parse_request(
      "{\"op\":\"submit\",\"spec\":\"x\",\"priority\":-0,"
      "\"deadline_ms\":2.5e3,\"job\":0}");
  ASSERT_TRUE(fine.has_value());
  EXPECT_EQ(fine->priority, 0);
  EXPECT_EQ(fine->deadline_ms, 2500);
  EXPECT_EQ(fine->job, 0u);
}

TEST(ServiceProtocol, ErrorResponsesCarryTheTaxonomy) {
  namespace json = util::json;
  const std::string line =
      error_response(ErrorCode::kQueueFull, "queue is full");
  std::map<std::string, json::Value> values;
  ASSERT_TRUE(json::parse_flat_object(line, &values));
  using Kind = json::Value::Kind;
  EXPECT_FALSE(json::find(values, "ok", Kind::kBool)->boolean);
  EXPECT_EQ(json::find(values, "error_code", Kind::kString)->text,
            "queue_full");
  EXPECT_TRUE(json::find(values, "transient", Kind::kBool)->boolean);
}

// ---- socket round trip ----

/// Runs SocketServer::serve() on its own thread and joins it on every exit
/// path: when a test leaves early (a failed ASSERT, an exception) the
/// destructor stops the server first, so the failure is reported instead
/// of terminating on a joinable thread.
class ServingThread {
 public:
  explicit ServingThread(SocketServer& server)
      : server_(server), thread_([this] {
          try {
            server_.serve();
          } catch (const std::exception& error) {
            ADD_FAILURE() << "serve() threw: " << error.what();
          }
        }) {}
  ~ServingThread() {
    if (!thread_.joinable()) return;
    server_.stop();
    thread_.join();
  }
  ServingThread(const ServingThread&) = delete;
  ServingThread& operator=(const ServingThread&) = delete;

  /// Wait for serve() to return after a shutdown or drain request.
  void join() { thread_.join(); }

 private:
  SocketServer& server_;
  std::thread thread_;
};

TEST_F(ServiceTest, SocketServerRoundTrip) {
  const std::string socket = (dir_ / "flowd.sock").string();
  ServiceOptions options = lane1_options();
  FlowService service(options);

  namespace json = util::json;
  using Kind = json::Value::Kind;
  const auto parse = [](const std::string& line) {
    std::map<std::string, json::Value> values;
    EXPECT_TRUE(json::parse_flat_object(line, &values)) << line;
    return values;
  };

  auto server = std::make_unique<SocketServer>(service, socket);
  ServingThread serving(*server);

  {
    SocketClient client(socket);
    client.send_line("{\"op\":\"ping\"}");
    const auto pong = parse(client.read_line());
    EXPECT_TRUE(json::find(pong, "ok", Kind::kBool)->boolean);

    // Inline submit: the server spools the text and runs the file.
    Request submit;
    submit.op = "submit";
    submit.spec_text = kGoodSpec;
    client.send_line(format_request(submit));
    const auto submitted = parse(client.read_line());
    ASSERT_TRUE(json::find(submitted, "ok", Kind::kBool)->boolean);
    const auto id = static_cast<std::uint64_t>(
        json::find(submitted, "job", Kind::kNumber)->number);

    // Poll to done over the same connection, then fetch the record.
    while (true) {
      client.send_line("{\"op\":\"status\",\"job\":" + std::to_string(id) +
                       "}");
      const auto status = parse(client.read_line());
      if (json::find(status, "state", Kind::kString)->text == "done") break;
      std::this_thread::sleep_for(std::chrono::milliseconds(2));
    }
    client.send_line("{\"op\":\"result\",\"job\":" + std::to_string(id) +
                     "}");
    const auto result = parse(client.read_line());
    EXPECT_EQ(json::find(result, "status", Kind::kString)->text, "ok");
    EXPECT_GT(json::find(result, "patterns", Kind::kNumber)->number, 0.0);

    // stats carries the cache counters, the proofs built among them.
    client.send_line("{\"op\":\"stats\"}");
    const auto stats = parse(client.read_line());
    EXPECT_EQ(json::find(stats, "cache_misses", Kind::kNumber)->number, 1.0);
    EXPECT_EQ(json::find(stats, "cache_proofs", Kind::kNumber)->number, 1.0);

    // Unknown jobs are a structured refusal, not a dropped connection.
    client.send_line("{\"op\":\"result\",\"job\":999}");
    const auto missing = parse(client.read_line());
    EXPECT_FALSE(json::find(missing, "ok", Kind::kBool)->boolean);
    EXPECT_EQ(json::find(missing, "error_code", Kind::kString)->text,
              "not_found");

    // Malformed and unknown-op lines too.
    client.send_line("garbage");
    EXPECT_EQ(parse(client.read_line())
                  .at("error_code")
                  .text,
              "parse");
    client.send_line("{\"op\":\"frobnicate\"}");
    EXPECT_EQ(parse(client.read_line()).at("error_code").text, "parse");
    client.send_line("{\"op\":\"status\",\"job\":-1}");
    EXPECT_EQ(parse(client.read_line()).at("error_code").text, "parse");

    // list: header line with a count, then one line per job.
    client.send_line("{\"op\":\"list\"}");
    const auto header = parse(client.read_line());
    const auto count = static_cast<std::size_t>(
        json::find(header, "count", Kind::kNumber)->number);
    EXPECT_EQ(count, 1u);
    const auto row = parse(client.read_line());
    EXPECT_EQ(json::find(row, "state", Kind::kString)->text, "done");
  }

  // A second connection shuts the server down cleanly.
  {
    SocketClient client(socket);
    client.send_line("{\"op\":\"shutdown\"}");
    const auto bye = parse(client.read_line());
    EXPECT_TRUE(json::find(bye, "ok", Kind::kBool)->boolean);
  }
  serving.join();
  server.reset();
  EXPECT_FALSE(fs::exists(socket));  // the server unlinked its socket
}

TEST_F(ServiceTest, AcceptFailpointDropsConnectionNotDaemon) {
  const std::string socket = (dir_ / "flowd.sock").string();
  FlowService service(lane1_options());
  SocketServer server(service, socket);
  ServingThread serving(server);

  util::Failpoints::instance().arm_from_string(
      "service.accept=error(io,1)");
  {
    // First connection is dropped by the injected accept failure. When
    // the drop lands before the request is written, the write fails with
    // EPIPE instead of the read; either way the client sees an IoError.
    SocketClient client(socket);
    EXPECT_THROW(
        {
          client.send_line("{\"op\":\"ping\"}");
          (void)client.read_line();
        },
        IoError);
  }
  {
    // The daemon survived and serves the next client.
    SocketClient client(socket);
    client.send_line("{\"op\":\"ping\"}");
    EXPECT_NE(client.read_line().find("\"ok\":true"), std::string::npos);
    client.send_line("{\"op\":\"shutdown\"}");
    client.read_line();
  }
  serving.join();
}

// ---- multi-client hardening ----

TEST_F(ServiceTest, OverMaxConnectionsGetsStructuredQueueFullRefusal) {
  const std::string socket = (dir_ / "flowd.sock").string();
  FlowService service(lane1_options());
  SocketServerOptions server_options;
  server_options.max_connections = 1;
  SocketServer server(service, socket, server_options);
  ServingThread serving(server);

  {
    // The first client claims the only slot (the answered ping proves
    // its handler is attached) and then just sits there — exactly the
    // hung client that used to wedge the sequential accept loop.
    SocketClient holder(socket);
    holder.send_line("{\"op\":\"ping\"}");
    EXPECT_NE(holder.read_line().find("\"ok\":true"), std::string::npos);

    // The second client is refused with a parseable error line, not
    // left queueing behind the hung peer.
    SocketClient refused(socket);
    const std::string line = refused.read_line();
    EXPECT_NE(line.find("\"error_code\":\"queue_full\""), std::string::npos)
        << line;
    EXPECT_THROW(refused.read_line(), IoError);  // then EOF
  }

  // The slot is released on disconnect — but asynchronously (the
  // holder's handler has to notice the EOF first), so retry until the
  // next client is admitted rather than racing the release.
  for (int attempt = 0;; ++attempt) {
    ASSERT_LT(attempt, 2000) << "slot never released";
    SocketClient client(socket);
    std::string line;
    try {
      client.send_line("{\"op\":\"shutdown\"}");
      line = client.read_line();
    } catch (const IoError&) {
      // Refused and closed before the request line landed: the write
      // fails with a broken pipe, or the read sees EOF.
      continue;
    }
    if (line.find("\"error_code\":\"queue_full\"") != std::string::npos) {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
      continue;
    }
    EXPECT_NE(line.find("\"ok\":true"), std::string::npos) << line;
    break;
  }
  serving.join();
}

TEST_F(ServiceTest, IdleConnectionGetsStructuredDeadlineRefusal) {
  const std::string socket = (dir_ / "flowd.sock").string();
  FlowService service(lane1_options());
  SocketServerOptions server_options;
  server_options.idle_timeout_ms = 50;
  SocketServer server(service, socket, server_options);
  ServingThread serving(server);

  {
    // Connect and send nothing: the idle timer answers with a
    // structured deadline error and closes the connection.
    SocketClient idle(socket);
    const std::string line = idle.read_line();
    EXPECT_NE(line.find("\"error_code\":\"deadline\""), std::string::npos)
        << line;
    EXPECT_THROW(idle.read_line(), IoError);  // then EOF
  }

  // The timed-out connection freed its slot; the daemon still serves.
  {
    SocketClient client(socket);
    client.send_line("{\"op\":\"ping\"}");
    EXPECT_NE(client.read_line().find("\"ok\":true"), std::string::npos);
    client.send_line("{\"op\":\"shutdown\"}");
    client.read_line();
  }
  serving.join();
}

TEST_F(ServiceTest, AcceptFailpointDoesNotLeakAConnectionSlot) {
  const std::string socket = (dir_ / "flowd.sock").string();
  FlowService service(lane1_options());
  SocketServerOptions server_options;
  server_options.max_connections = 1;
  SocketServer server(service, socket, server_options);
  ServingThread serving(server);

  // The failpoint fires after accept() but before the slot claim; the
  // dropped connection must not consume the single slot.
  util::Failpoints::instance().arm_from_string(
      "service.accept=error(io,1)");
  {
    // The drop can land before the request is written (the send fails
    // with EPIPE) or after it (the read sees EOF); either way the dropped
    // client sees an IoError.
    SocketClient dropped(socket);
    EXPECT_THROW(
        {
          dropped.send_line("{\"op\":\"ping\"}");
          (void)dropped.read_line();
        },
        IoError);
  }
  {
    // With the slot intact, the next client is admitted, not refused
    // with queue_full.
    SocketClient client(socket);
    client.send_line("{\"op\":\"ping\"}");
    EXPECT_NE(client.read_line().find("\"ok\":true"), std::string::npos);
    client.send_line("{\"op\":\"shutdown\"}");
    client.read_line();
  }
  serving.join();
}

}  // namespace
}  // namespace lsiq::service
