// Tests for the hardened batch flow runner: crash isolation (N specs with
// K induced failures -> exactly N-K successes), the retry/deadline/
// checkpoint machinery, the JSONL record format, and the batch-wide
// artifact cache.
#include "flow/batch.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <bit>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "util/error.hpp"
#include "util/failpoint.hpp"
#include "util/hash.hpp"
#include "util/thread_pool.hpp"

namespace lsiq::flow {
namespace {

namespace fs = std::filesystem;

/// A tiny spec that runs in milliseconds (c17: 22 collapsed classes).
constexpr const char* kGoodSpec =
    "circuit = c17\n"
    "source = lfsr\n"
    "patterns = 64\n"
    "observe = full\n"
    "engine = ppsfp\n";

/// Per-test scratch directory + global-failpoint hygiene (the registry is
/// process-wide; a leaked arming would fault unrelated tests).
class BatchTest : public ::testing::Test {
 protected:
  void SetUp() override {
    util::Failpoints::instance().clear();
    dir_ = fs::path(::testing::TempDir()) / "lsiq_batch" /
           ::testing::UnitTest::GetInstance()->current_test_info()->name();
    fs::remove_all(dir_);
    fs::create_directories(dir_);
  }
  void TearDown() override { util::Failpoints::instance().clear(); }

  /// Write a spec file into the scratch dir and return its path.
  std::string write_spec(const std::string& name,
                         const std::string& text = kGoodSpec) {
    const fs::path path = dir_ / name;
    std::ofstream out(path);
    out << text;
    return path.string();
  }

  std::string checkpoint_path() const {
    return (dir_ / "results.jsonl").string();
  }

  /// Deterministic-test options: no backoff sleeping, no default workers.
  static BatchOptions fast_options() {
    BatchOptions options;
    options.num_workers = 2;
    options.retry.backoff_initial_ms = 0;
    return options;
  }

  fs::path dir_;
};

// ---- the record format ----

TEST_F(BatchTest, RecordRoundTripsThroughJsonl) {
  BatchRecord record;
  record.spec = "specs/weird \"name\"\t.spec";
  record.hash = 0x0123456789abcdefULL;
  record.status = "failed";
  record.error_code = ErrorCode::kIo;
  record.transient = true;
  record.attempts = 3;
  record.wall_ms = 12.5;
  record.resumed = true;
  record.patterns = 512;
  record.classes = 1328;
  record.coverage = 0.99948770491803274;
  record.dppm = 9.2596518863132236;
  record.error = "line1\nline2: \\ \"quoted\"";

  const std::optional<BatchRecord> parsed =
      BatchRecord::from_jsonl(record.to_jsonl());
  ASSERT_TRUE(parsed.has_value());
  EXPECT_EQ(parsed->spec, record.spec);
  EXPECT_EQ(parsed->hash, record.hash);
  EXPECT_EQ(parsed->status, record.status);
  EXPECT_EQ(parsed->error_code, record.error_code);
  EXPECT_EQ(parsed->transient, record.transient);
  EXPECT_EQ(parsed->attempts, record.attempts);
  EXPECT_DOUBLE_EQ(parsed->wall_ms, record.wall_ms);
  EXPECT_EQ(parsed->resumed, record.resumed);
  EXPECT_EQ(parsed->patterns, record.patterns);
  EXPECT_EQ(parsed->classes, record.classes);
  EXPECT_EQ(parsed->coverage, record.coverage);  // exact: %.17g round-trips
  EXPECT_EQ(parsed->dppm, record.dppm);
  EXPECT_EQ(parsed->error, record.error);

  // Reserializing the parsed record reproduces the line byte for byte —
  // resume rewrites carried records through exactly this cycle.
  EXPECT_EQ(parsed->to_jsonl(), record.to_jsonl());
}

TEST_F(BatchTest, CanonicalFormExcludesVolatileFields) {
  BatchRecord a;
  a.spec = "x.spec";
  a.status = "ok";
  a.attempts = 1;
  BatchRecord b = a;
  b.wall_ms = 999.0;   // differs run to run
  b.resumed = true;    // differs interrupted vs not
  EXPECT_NE(a.to_jsonl(), b.to_jsonl());
  EXPECT_EQ(a.canonical_jsonl(), b.canonical_jsonl());
}

TEST_F(BatchTest, TornAndForeignLinesParseToNothing) {
  BatchRecord record;
  record.spec = "x.spec";
  record.status = "ok";
  const std::string line = record.to_jsonl();
  // Every proper prefix of a valid line is torn (killed mid-write).
  for (const std::size_t length : {line.size() - 1, line.size() / 2,
                                   std::size_t{1}, std::size_t{0}}) {
    SCOPED_TRACE(length);
    EXPECT_FALSE(BatchRecord::from_jsonl(line.substr(0, length)).has_value());
  }
  EXPECT_FALSE(BatchRecord::from_jsonl("not json at all").has_value());
  EXPECT_FALSE(BatchRecord::from_jsonl("{\"spec\":\"x\"}").has_value());
  EXPECT_FALSE(
      BatchRecord::from_jsonl("{\"spec\":\"x\",\"status\":\"bogus\"}")
          .has_value());
}

TEST_F(BatchTest, OutOfRangeCountsAreTornLines) {
  // A count that is not a finite integer in its field's range is a
  // malformed line, not an undefined double-to-integer cast: before the
  // range check, "patterns":-1 read back as 2^64 - 1.
  BatchRecord record;
  record.spec = "x.spec";
  record.status = "ok";
  record.patterns = 5;
  record.classes = 7;
  const std::string line = record.to_jsonl();
  ASSERT_TRUE(BatchRecord::from_jsonl(line).has_value());
  const struct {
    const char* field;
    const char* value;
  } cases[] = {
      {"\"patterns\":5", "\"patterns\":-1"},
      {"\"patterns\":5", "\"patterns\":1e300"},
      {"\"patterns\":5", "\"patterns\":2.5"},
      {"\"classes\":7", "\"classes\":1e30"},
      {"\"classes\":7", "\"classes\":nan"},
      {"\"attempts\":0", "\"attempts\":-1"},
      {"\"attempts\":0", "\"attempts\":3000000000"},
      {"\"attempts\":0", "\"attempts\":inf"},
  };
  for (const auto& c : cases) {
    SCOPED_TRACE(c.value);
    std::string torn = line;
    const std::size_t at = torn.find(c.field);
    ASSERT_NE(at, std::string::npos);
    torn.replace(at, std::string(c.field).size(), c.value);
    EXPECT_FALSE(BatchRecord::from_jsonl(torn).has_value()) << torn;
  }
}

TEST_F(BatchTest, NonJsonNumbersAreTornLines) {
  // A number outside JSON's grammar, or one that is not finite, makes the
  // line malformed. Before the strict reader, a store line holding
  // "coverage":nan,"dppm":-inf parsed, and lsiq_flow --canon printed
  // those values back.
  BatchRecord record;
  record.spec = "x.spec";
  record.status = "ok";
  record.wall_ms = 16.0;
  record.coverage = 0.5;
  record.dppm = 1.0;
  const std::string line = record.to_jsonl();
  ASSERT_TRUE(BatchRecord::from_jsonl(line).has_value());
  const struct {
    const char* field;
    const char* value;
  } cases[] = {
      {"\"coverage\":0.5", "\"coverage\":nan"},
      {"\"coverage\":0.5", "\"coverage\":+0.5"},
      {"\"coverage\":0.5", "\"coverage\":.5"},
      {"\"coverage\":0.5", "\"coverage\":0.5e"},
      {"\"coverage\":0.5", "\"coverage\":0.5.1"},
      {"\"dppm\":1", "\"dppm\":-inf"},
      {"\"dppm\":1", "\"dppm\":01"},
      {"\"dppm\":1", "\"dppm\":1."},
      {"\"dppm\":1", "\"dppm\":1e999"},
      {"\"wall_ms\":16", "\"wall_ms\":0x10"},
      {"\"wall_ms\":16", "\"wall_ms\":infinity"},
      {"\"wall_ms\":16", "\"wall_ms\":-"},
  };
  for (const auto& c : cases) {
    SCOPED_TRACE(c.value);
    std::string torn = line;
    const std::size_t at = torn.find(c.field);
    ASSERT_NE(at, std::string::npos);
    torn.replace(at, std::string(c.field).size(), c.value);
    EXPECT_FALSE(BatchRecord::from_jsonl(torn).has_value()) << torn;
  }
}

TEST_F(BatchTest, FiniteDoublesReadBackExactly) {
  // Whatever format_double writes for a finite value is a JSON number
  // the strict reader takes back bit for bit.
  for (const double x : {0.0, -0.0, 0.1, -2.5, 12.5, 1e21, -3.25e-7,
                         0.99948770491803274, 1e-300, 4.9406564584124654e-324,
                         1.7976931348623157e308}) {
    SCOPED_TRACE(x);
    BatchRecord record;
    record.spec = "x.spec";
    record.status = "ok";
    record.wall_ms = x;
    record.coverage = x;
    record.dppm = -x;
    const std::optional<BatchRecord> parsed =
        BatchRecord::from_jsonl(record.to_jsonl());
    ASSERT_TRUE(parsed.has_value()) << record.to_jsonl();
    EXPECT_EQ(std::bit_cast<std::uint64_t>(parsed->wall_ms),
              std::bit_cast<std::uint64_t>(x));
    EXPECT_EQ(std::bit_cast<std::uint64_t>(parsed->coverage),
              std::bit_cast<std::uint64_t>(x));
    EXPECT_EQ(std::bit_cast<std::uint64_t>(parsed->dppm),
              std::bit_cast<std::uint64_t>(-x));
    EXPECT_EQ(parsed->to_jsonl(), record.to_jsonl());
  }
}

// ---- manifests ----

TEST_F(BatchTest, DirectoryManifestYieldsSortedSpecs) {
  write_spec("b.spec");
  write_spec("a.spec");
  write_spec("c.spec");
  write_spec("notes.txt", "not a spec\n");
  const std::vector<std::string> specs = read_manifest(dir_.string());
  ASSERT_EQ(specs.size(), 3u);
  EXPECT_EQ(fs::path(specs[0]).filename(), "a.spec");
  EXPECT_EQ(fs::path(specs[1]).filename(), "b.spec");
  EXPECT_EQ(fs::path(specs[2]).filename(), "c.spec");
}

TEST_F(BatchTest, ListManifestResolvesRelativeToItself) {
  write_spec("one.spec");
  write_spec("two.spec");
  const fs::path list = dir_ / "campaign.list";
  {
    std::ofstream out(list);
    out << "# a comment line\n"
        << "one.spec\n"
        << "  two.spec   # trailing comment\n"
        << "\n";
  }
  const std::vector<std::string> specs = read_manifest(list.string());
  ASSERT_EQ(specs.size(), 2u);
  EXPECT_EQ(specs[0], (dir_ / "one.spec").string());
  EXPECT_EQ(specs[1], (dir_ / "two.spec").string());
}

TEST_F(BatchTest, BadManifestsAreClassified) {
  try {
    read_manifest((dir_ / "missing.list").string());
    FAIL() << "expected IoError";
  } catch (const Error& e) {
    EXPECT_EQ(e.code(), ErrorCode::kIo);
  }
  try {
    read_manifest(dir_.string());  // directory with no .spec files
    FAIL() << "expected Error(kInvalidSpec)";
  } catch (const Error& e) {
    EXPECT_EQ(e.code(), ErrorCode::kInvalidSpec);
  }
}

// ---- crash isolation: N specs, K induced failures ----

TEST_F(BatchTest, InducedFailuresProduceExactlyNMinusKSuccesses) {
  // N = 6 specs, K = 3 failures of three different classes. The batch
  // must finish, produce 3 ok + 3 structured failure records, and
  // classify each failure with the right code.
  std::vector<std::string> specs;
  specs.push_back(write_spec("ok1.spec"));
  specs.push_back(write_spec("bad_parse.spec", "circuit = c17\nbogus = 1\n"));
  specs.push_back(write_spec("ok2.spec"));
  specs.push_back(
      write_spec("bad_circuit.spec", "circuit = warp9\nsource = lfsr\n"));
  specs.push_back((dir_ / "missing.spec").string());  // unreadable: io
  specs.push_back(write_spec("ok3.spec"));

  BatchOptions options = fast_options();
  options.retry.max_attempts = 2;
  const BatchResult result = run_batch(specs, options);

  ASSERT_EQ(result.records.size(), 6u);
  EXPECT_EQ(result.ok_count, 3u);
  EXPECT_EQ(result.failed_count, 3u);
  EXPECT_FALSE(result.all_ok());

  // Records are in manifest order regardless of completion order.
  for (std::size_t i = 0; i < specs.size(); ++i) {
    EXPECT_EQ(result.records[i].spec, specs[i]);
  }

  EXPECT_EQ(result.records[0].status, "ok");
  EXPECT_EQ(result.records[0].error_code, ErrorCode::kOk);
  EXPECT_EQ(result.records[0].attempts, 1);
  EXPECT_GT(result.records[0].patterns, 0u);
  EXPECT_GT(result.records[0].classes, 0u);
  EXPECT_GT(result.records[0].coverage, 0.5);

  EXPECT_EQ(result.records[1].status, "failed");
  EXPECT_EQ(result.records[1].error_code, ErrorCode::kParse);
  EXPECT_FALSE(result.records[1].transient);
  EXPECT_EQ(result.records[1].attempts, 1);  // permanent: no retry
  EXPECT_NE(result.records[1].error.find("bogus"), std::string::npos);

  EXPECT_EQ(result.records[3].status, "failed");
  EXPECT_EQ(result.records[3].error_code, ErrorCode::kInvalidSpec);
  EXPECT_EQ(result.records[3].attempts, 1);

  // The unreadable spec is an I/O failure: transient, so every attempt
  // of the retry budget is consumed before it is recorded as failed.
  EXPECT_EQ(result.records[4].status, "failed");
  EXPECT_EQ(result.records[4].error_code, ErrorCode::kIo);
  EXPECT_TRUE(result.records[4].transient);
  EXPECT_EQ(result.records[4].attempts, 2);
  EXPECT_EQ(result.records[4].hash, 0u);
}

TEST_F(BatchTest, FailpointFailuresAreIsolatedPerStage) {
  // Arm each flow stage in turn; a single-spec batch must end failed
  // with the injected classification, never throw.
  const std::string spec = write_spec("one.spec");
  for (const char* site :
       {"spec.read", "flow.run", "flow.patterns", "flow.grade"}) {
    SCOPED_TRACE(site);
    util::Failpoints::instance().clear();
    util::Failpoints::instance().arm_from_string(
        std::string(site) + "=error(invalid_spec)");
    const BatchResult result = run_batch({spec}, fast_options());
    ASSERT_EQ(result.records.size(), 1u);
    EXPECT_EQ(result.records[0].status, "failed");
    EXPECT_EQ(result.records[0].error_code, ErrorCode::kInvalidSpec);
    EXPECT_EQ(result.records[0].attempts, 1);
    EXPECT_NE(result.records[0].error.find(site), std::string::npos);
  }
}

// ---- retry ----

TEST_F(BatchTest, TransientFailureThatClearsEndsOkWithTwoAttempts) {
  // The canonical recovery: a transient failure on attempt 1 that clears
  // before attempt 2 must end ok with attempts == 2.
  const std::string spec = write_spec("one.spec");
  util::Failpoints::instance().arm_from_string(
      "flow.grade=error(transient,1)");
  const BatchResult result = run_batch({spec}, fast_options());
  ASSERT_EQ(result.records.size(), 1u);
  EXPECT_EQ(result.records[0].status, "ok");
  EXPECT_EQ(result.records[0].error_code, ErrorCode::kOk);
  EXPECT_EQ(result.records[0].attempts, 2);
  EXPECT_TRUE(result.records[0].error.empty());
}

TEST_F(BatchTest, RetryBudgetIsBounded) {
  const std::string spec = write_spec("one.spec");
  util::Failpoints::instance().arm_from_string("flow.grade=error(io)");
  BatchOptions options = fast_options();
  options.retry.max_attempts = 3;
  const BatchResult result = run_batch({spec}, options);
  EXPECT_EQ(result.records[0].status, "failed");
  EXPECT_EQ(result.records[0].error_code, ErrorCode::kIo);
  EXPECT_EQ(result.records[0].attempts, 3);
  EXPECT_EQ(util::Failpoints::instance().hit_count("flow.grade"), 3u);
}

TEST_F(BatchTest, PermanentFailuresNeverRetry) {
  const std::string spec = write_spec("one.spec");
  util::Failpoints::instance().arm_from_string("flow.grade=error(numeric)");
  BatchOptions options = fast_options();
  options.retry.max_attempts = 5;
  const BatchResult result = run_batch({spec}, options);
  EXPECT_EQ(result.records[0].status, "failed");
  EXPECT_EQ(result.records[0].error_code, ErrorCode::kNumeric);
  EXPECT_EQ(result.records[0].attempts, 1);
}

TEST_F(BatchTest, BackoffScheduleIsExponentialAndCapped) {
  RetryPolicy retry;
  retry.backoff_initial_ms = 100;
  EXPECT_EQ(retry.backoff_ms(1), 100);
  EXPECT_EQ(retry.backoff_ms(2), 400);
  EXPECT_EQ(retry.backoff_ms(3), 1600);
  EXPECT_EQ(retry.backoff_ms(4), 2000);  // capped
  EXPECT_EQ(retry.backoff_ms(9), 2000);
  retry.backoff_initial_ms = 0;
  EXPECT_EQ(retry.backoff_ms(1), 0);
}

// ---- deadline ----

TEST_F(BatchTest, WedgedSpecEndsAsADeadlineRecord) {
  // A sleeping failpoint inside the grading stage simulates a wedged
  // run; the per-spec watchdog must turn it into a structured
  // `deadline` record — permanent, so exactly one attempt.
  const std::string spec = write_spec("one.spec");
  util::Failpoints::instance().arm_from_string("flow.grade=sleep(200)");
  BatchOptions options = fast_options();
  options.deadline_ms = 20;
  const BatchResult result = run_batch({spec}, options);
  ASSERT_EQ(result.records.size(), 1u);
  EXPECT_EQ(result.records[0].status, "failed");
  EXPECT_EQ(result.records[0].error_code, ErrorCode::kDeadline);
  EXPECT_FALSE(result.records[0].transient);
  EXPECT_EQ(result.records[0].attempts, 1);
}

// ---- checkpoint / resume ----

TEST_F(BatchTest, CheckpointStreamsOneRecordPerSpec) {
  std::vector<std::string> specs = {write_spec("a.spec"),
                                    write_spec("b.spec")};
  BatchOptions options = fast_options();
  options.checkpoint = checkpoint_path();
  std::ostringstream live;
  options.stream = &live;
  const BatchResult result = run_batch(specs, options);
  EXPECT_EQ(result.ok_count, 2u);

  // Both sinks carry the same two parseable records.
  for (const std::string& text :
       {live.str(), [&] {
          std::ifstream in(checkpoint_path());
          std::ostringstream content;
          content << in.rdbuf();
          return content.str();
        }()}) {
    std::istringstream in(text);
    std::string line;
    std::size_t lines = 0;
    while (std::getline(in, line)) {
      ++lines;
      EXPECT_TRUE(BatchRecord::from_jsonl(line).has_value()) << line;
    }
    EXPECT_EQ(lines, 2u);
  }
}

TEST_F(BatchTest, KilledBatchResumesToBitIdenticalResults) {
  // Reference: an uninterrupted run over 4 specs (one failing).
  std::vector<std::string> specs = {
      write_spec("a.spec"), write_spec("b.spec"),
      write_spec("bad.spec", "circuit = c17\nbogus = 1\n"),
      write_spec("d.spec")};
  BatchOptions options = fast_options();
  options.checkpoint = checkpoint_path();
  const BatchResult reference = run_batch(specs, options);
  EXPECT_EQ(reference.ok_count, 3u);
  EXPECT_EQ(reference.resumed_count, 0u);

  // Simulate a kill mid-batch: truncate the store to one complete record
  // plus one torn half-line.
  std::vector<std::string> lines;
  {
    std::ifstream in(checkpoint_path());
    std::string line;
    while (std::getline(in, line)) lines.push_back(line);
  }
  ASSERT_EQ(lines.size(), 4u);
  {
    std::ofstream out(checkpoint_path(), std::ios::trunc);
    out << lines[0] << "\n" << lines[1].substr(0, lines[1].size() / 2);
  }

  // Resume: the surviving ok record is carried, everything else reruns,
  // and the canonical result set is byte-identical to the reference.
  const BatchResult resumed = run_batch(specs, options);
  EXPECT_EQ(resumed.ok_count, 3u);
  EXPECT_EQ(resumed.failed_count, 1u);
  EXPECT_EQ(resumed.resumed_count, 1u);
  EXPECT_EQ(resumed.canonical(), reference.canonical());

  // The rewritten checkpoint also resumes cleanly: run again, everything
  // ok is carried, failures re-attempted, same canonical bytes.
  const BatchResult again = run_batch(specs, options);
  EXPECT_EQ(again.resumed_count, 3u);
  EXPECT_EQ(again.canonical(), reference.canonical());
}

TEST_F(BatchTest, CrashBeforeRecordCommitThenResume) {
  // Arm the "batch.record" site: the failure escapes the per-spec
  // boundary (it is the simulated kill — the record is lost before the
  // store commits it), so run_batch itself must throw.
  std::vector<std::string> specs = {write_spec("a.spec"),
                                    write_spec("b.spec")};
  BatchOptions options = fast_options();
  options.num_workers = 1;  // deterministic: die on the first record
  options.checkpoint = checkpoint_path();
  util::Failpoints::instance().arm_from_string("batch.record=error(io,1)");
  EXPECT_THROW(run_batch(specs, options), IoError);

  // The dead batch left a valid (possibly empty) JSONL prefix; resuming
  // with the failpoint cleared converges to the full result set.
  util::Failpoints::instance().clear();
  const BatchResult resumed = run_batch(specs, options);
  EXPECT_EQ(resumed.ok_count, 2u);

  BatchOptions fresh = fast_options();
  const BatchResult reference = run_batch(specs, fresh);
  EXPECT_EQ(resumed.canonical(), reference.canonical());
}

TEST_F(BatchTest, EditedSpecInvalidatesItsCheckpointRecord) {
  const std::string spec = write_spec("a.spec");
  BatchOptions options = fast_options();
  options.checkpoint = checkpoint_path();
  const BatchResult first = run_batch({spec}, options);
  EXPECT_EQ(first.ok_count, 1u);

  // Same path, different content: the carried record's hash no longer
  // matches, so the spec reruns with the new content.
  write_spec("a.spec",
             "circuit = c17\nsource = lfsr\npatterns = 32\n"
             "observe = full\nengine = ppsfp\n");
  const BatchResult second = run_batch({spec}, options);
  EXPECT_EQ(second.resumed_count, 0u);
  EXPECT_EQ(second.ok_count, 1u);
  EXPECT_EQ(second.records[0].patterns, 32u);
}

TEST_F(BatchTest, EditedBenchForcesARerun) {
  // The record keys on the netlist the spec reads, not only on the spec's
  // own bytes: rewriting the .bench under an unchanged spec reruns it.
  const fs::path bench = dir_ / "product.bench";
  const auto write_bench = [&](const std::string& text) {
    std::ofstream out(bench, std::ios::trunc);
    out << text;
  };
  write_bench("INPUT(a)\nINPUT(b)\nOUTPUT(y)\ny = AND(a, b)\n");
  const std::string spec = write_spec(
      "product.spec", "circuit = " + bench.string() +
                          "\nsource = lfsr\npatterns = 16\nobserve = full\n"
                          "engine = ppsfp\n");
  BatchOptions options = fast_options();
  options.checkpoint = checkpoint_path();
  const BatchResult first = run_batch({spec}, options);
  ASSERT_EQ(first.ok_count, 1u) << first.records[0].error;
  EXPECT_EQ(first.records[0].classes, 4u);

  write_bench(
      "INPUT(a)\nINPUT(b)\nINPUT(c)\nOUTPUT(y)\nOUTPUT(z)\n"
      "t = NAND(a, b)\ny = OR(t, c)\nz = XOR(a, c)\n");
  const BatchResult second = run_batch({spec}, options);
  EXPECT_EQ(second.resumed_count, 0u);
  ASSERT_EQ(second.ok_count, 1u) << second.records[0].error;
  EXPECT_EQ(second.records[0].classes, 16u);
}

TEST_F(BatchTest, EditedPatternFileForcesARerun) {
  const fs::path patterns = dir_ / "program.pat";
  const auto write_patterns = [&](const std::string& rows) {
    std::ofstream out(patterns, std::ios::trunc);
    out << "# lsiq patterns inputs=5\n" << rows;
  };
  write_patterns("01101\n11100\n");
  const std::string spec = write_spec(
      "file.spec", "circuit = c17\nsource = file\npattern_file = " +
                       patterns.string() +
                       "\nobserve = full\nengine = ppsfp\n");
  BatchOptions options = fast_options();
  options.checkpoint = checkpoint_path();
  const BatchResult first = run_batch({spec}, options);
  ASSERT_EQ(first.ok_count, 1u) << first.records[0].error;
  EXPECT_EQ(first.records[0].patterns, 2u);

  write_patterns("01101\n11100\n00011\n");
  const BatchResult second = run_batch({spec}, options);
  EXPECT_EQ(second.resumed_count, 0u);
  ASSERT_EQ(second.ok_count, 1u) << second.records[0].error;
  EXPECT_EQ(second.records[0].patterns, 3u);
}

TEST_F(BatchTest, UnchangedInputsStillResume) {
  const fs::path bench = dir_ / "product.bench";
  const fs::path patterns = dir_ / "program.pat";
  {
    std::ofstream out(bench);
    out << "INPUT(a)\nINPUT(b)\nOUTPUT(y)\ny = AND(a, b)\n";
  }
  {
    std::ofstream out(patterns);
    out << "# lsiq patterns inputs=2\n01\n11\n";
  }
  const std::string spec = write_spec(
      "product.spec", "circuit = " + bench.string() +
                          "\nsource = file\npattern_file = " +
                          patterns.string() +
                          "\nobserve = full\nengine = ppsfp\n");
  BatchOptions options = fast_options();
  options.checkpoint = checkpoint_path();
  const BatchResult first = run_batch({spec}, options);
  ASSERT_EQ(first.ok_count, 1u) << first.records[0].error;
  const BatchResult second = run_batch({spec}, options);
  EXPECT_EQ(second.resumed_count, 1u);
  EXPECT_EQ(second.canonical(), first.canonical());
}

TEST_F(BatchTest, SpecsThatReadNoFileHashTheirOwnBytes) {
  // A generator spec, and a spec that fails to parse, keep the hash of
  // their own bytes, so records of such specs stay resumable across the
  // change that folded the files a spec reads into its hash.
  const std::string unparsable = "circuit = c17\nno_such_key = 1\n";
  EXPECT_EQ(hash_spec_file(write_spec("gen.spec")), util::fnv1a(kGoodSpec));
  EXPECT_EQ(hash_spec_file(write_spec("bad.spec", unparsable)),
            util::fnv1a(unparsable));
  // A spec that names a file it cannot read is never resumable.
  EXPECT_EQ(hash_spec_file(write_spec(
                "missing.spec",
                "circuit = " + (dir_ / "missing.bench").string() + "\n")),
            0u);
}

TEST_F(BatchTest, NoResumeRerunsEverything) {
  const std::string spec = write_spec("a.spec");
  BatchOptions options = fast_options();
  options.checkpoint = checkpoint_path();
  run_batch({spec}, options);
  options.resume = false;
  const BatchResult result = run_batch({spec}, options);
  EXPECT_EQ(result.resumed_count, 0u);
  EXPECT_EQ(result.ok_count, 1u);
}

TEST_F(BatchTest, UnwritableCheckpointIsABatchLevelIoError) {
  const std::string spec = write_spec("a.spec");
  BatchOptions options = fast_options();
  options.checkpoint = (dir_ / "no_such_dir" / "results.jsonl").string();
  EXPECT_THROW(run_batch({spec}, options), IoError);
}

// ---- artifact cache ----

TEST_F(BatchTest, ArtifactsAreSharedAcrossSpecs) {
  // Three specs over c17 stuck-at, one over c17 transition: the cache
  // must build twice and reuse twice — and sharing must not change the
  // graded numbers (same records as a cold cache).
  std::vector<std::string> specs = {
      write_spec("a.spec"), write_spec("b.spec"),
      write_spec("t.spec",
                 "circuit = c17\nfault_model = transition\nsource = lfsr\n"
                 "patterns = 64\nobserve = full\nengine = ppsfp\n"),
      write_spec("c.spec")};
  BatchOptions options = fast_options();
  options.num_workers = 1;  // deterministic hit/miss split
  const BatchResult warm = run_batch(specs, options);
  EXPECT_EQ(warm.ok_count, 4u);
  EXPECT_EQ(warm.cache_misses, 2u);
  EXPECT_EQ(warm.cache_hits, 2u);

  // A fresh cache (new run_batch call) grades identically.
  const BatchResult cold = run_batch(specs, options);
  EXPECT_EQ(cold.canonical(), warm.canonical());
}

TEST_F(BatchTest, TwoSweepsProveEachCircuitOnce) {
  // The transition-coverage sweep (mult16: 5 stuck-at and 6 transition
  // specs) and the BIST-aliasing sweep (mult8: 9 stuck-at specs) as one
  // batch on 2 lanes: three universes over two circuits, so the analyze
  // gate proves exactly two circuits however the lanes interleave.
  const std::string sweeps = std::string(LSIQ_SOURCE_DIR) +
                             "/tools/specs/sweeps/";
  std::vector<std::string> specs =
      read_manifest(sweeps + "transition_coverage.list");
  const std::vector<std::string> bist =
      read_manifest(sweeps + "bist_aliasing.list");
  specs.insert(specs.end(), bist.begin(), bist.end());
  ASSERT_EQ(specs.size(), 20u);
  const BatchResult result = run_batch(specs, fast_options());
  EXPECT_EQ(result.ok_count, 20u);
  EXPECT_EQ(result.cache_proofs, 2u);
  EXPECT_EQ(result.cache_misses, 3u);
  EXPECT_EQ(result.cache_hits, 17u);
  EXPECT_NE(result.summary().find("; 2 circuit proofs built"),
            std::string::npos)
      << result.summary();
}

TEST_F(BatchTest, CacheEvictsLeastRecentlyUsedUnderCostBound) {
  // Learn the real cost of three products first (costs are circuit
  // sizes — pinning literals here would break on generator changes),
  // then bound a fresh cache one node below their sum so the third
  // insertion MUST evict exactly the least-recently-used entry.
  const auto model = fault_model::FaultModel::kStuckAt;
  ArtifactCache probe;
  const std::size_t cost_a =
      ArtifactCache::cost_of(*probe.get("c17", model));
  const std::size_t cost_b =
      ArtifactCache::cost_of(*probe.get("adder8", model));
  const std::size_t cost_c =
      ArtifactCache::cost_of(*probe.get("parity8", model));

  ArtifactCache cache(cost_a + cost_b + cost_c - 1);
  cache.get("c17", model);      // t1
  cache.get("adder8", model);   // t2
  cache.get("parity8", model);  // t3 — evicts c17, the LRU
  ArtifactCache::Stats stats = cache.stats();
  EXPECT_EQ(stats.misses, 3u);
  EXPECT_EQ(stats.evictions, 1u);
  EXPECT_EQ(stats.entries, 2u);
  EXPECT_EQ(stats.cost, cost_b + cost_c);

  // adder8 is still cached (a hit refreshes its recency) ...
  cache.get("adder8", model);  // t4
  EXPECT_EQ(cache.stats().hits, 1u);

  // ... so re-adding c17 evicts parity8 (t3), not adder8 (t4): recency
  // is use order, not insertion order.
  const auto rebuilt = cache.get("c17", model);  // t5
  ASSERT_NE(rebuilt, nullptr);
  EXPECT_NE(rebuilt->compiled, nullptr);  // rebuilt entries are whole
  stats = cache.stats();
  EXPECT_EQ(stats.misses, 4u);
  EXPECT_EQ(stats.evictions, 2u);
  EXPECT_EQ(stats.entries, 2u);
  EXPECT_EQ(stats.cost, cost_a + cost_b);
  EXPECT_LE(stats.cost, stats.max_cost);
}

TEST_F(BatchTest, EvictedArtifactHandlesStayValid) {
  // Eviction only stops the cache from handing an entry out; a job
  // holding the shared handle keeps grading against it safely.
  const auto model = fault_model::FaultModel::kStuckAt;
  ArtifactCache cache;
  const std::shared_ptr<const ArtifactCache::Artifacts> held =
      cache.get("c17", model);
  cache.get("adder8", model);
  cache.set_max_cost(1);  // tighter bound evicts immediately ...
  EXPECT_EQ(cache.stats().entries, 1u);
  EXPECT_GE(cache.stats().evictions, 1u);
  // ... but the held handle is untouched.
  EXPECT_NE(held->bundle, nullptr);
  EXPECT_NE(held->faults, nullptr);
  EXPECT_GT(held->compiled->node_count(), 0u);
}

TEST_F(BatchTest, MostRecentEntryIsNeverEvicted) {
  // A bound smaller than any single artifact degrades to "cache nothing
  // else": the newest entry always survives, so oversized products still
  // build and run instead of thrashing to an empty cache.
  const auto model = fault_model::FaultModel::kStuckAt;
  ArtifactCache cache(1);
  cache.get("c17", model);
  EXPECT_EQ(cache.stats().entries, 1u);
  EXPECT_EQ(cache.stats().evictions, 0u);  // sole entry is the MRU
  cache.get("adder8", model);
  const ArtifactCache::Stats stats = cache.stats();
  EXPECT_EQ(stats.entries, 1u);      // adder8 displaced c17 ...
  EXPECT_EQ(stats.evictions, 1u);    // ... by evicting it
  EXPECT_GT(stats.cost, stats.max_cost);  // documented MRU exemption
}

TEST_F(BatchTest, BoundedCacheDoesNotChangeBatchResults) {
  // Determinism across hit/evict/rebuild: a batch thrashing a one-node
  // cache (every artifact rebuilt repeatedly) grades byte-identically
  // to the same batch with an unbounded cache.
  const std::vector<std::string> specs = {
      write_spec("a.spec"),
      write_spec("b.spec",
                 "circuit = adder8\nsource = lfsr\npatterns = 64\n"
                 "observe = full\nengine = ppsfp\n"),
      write_spec("c.spec")};  // c17 again: a rebuild after eviction
  BatchOptions unbounded = fast_options();
  unbounded.num_workers = 1;
  BatchOptions bounded = unbounded;
  bounded.cache_max_cost = 1;
  const BatchResult plain = run_batch(specs, unbounded);
  const BatchResult thrashed = run_batch(specs, bounded);
  EXPECT_EQ(plain.ok_count, 3u);
  EXPECT_EQ(thrashed.ok_count, 3u);
  EXPECT_EQ(plain.canonical(), thrashed.canonical());
  // The bound really did change cache behavior (no silent no-op).
  EXPECT_EQ(plain.cache_misses, 2u);
  EXPECT_EQ(thrashed.cache_misses, 3u);
}

TEST_F(BatchTest, CheckOnlyLintsWithoutGrading) {
  // A netlist with an unused input, run through the check-only batch:
  // the default warn policy yields an "ok" record with zero patterns
  // (nothing was graded), the error policy a permanent "lint" failure.
  const fs::path bench = dir_ / "spare.bench";
  {
    std::ofstream out(bench);
    out << "INPUT(a)\nINPUT(spare)\nOUTPUT(y)\ny = NOT(a)\n";
  }
  const std::string warn_spec = write_spec(
      "warn.spec",
      "circuit = " + bench.string() + "\nsource = lfsr\npatterns = 64\n");
  const std::string error_spec = write_spec(
      "error.spec", "circuit = " + bench.string() +
                        "\nsource = lfsr\npatterns = 64\n"
                        "analyze_dead_logic = error\n");
  const std::string clean_spec = write_spec("clean.spec");

  BatchOptions options = fast_options();
  options.check_only = true;
  const BatchResult result =
      run_batch({warn_spec, error_spec, clean_spec}, options);
  ASSERT_EQ(result.records.size(), 3u);
  EXPECT_EQ(result.ok_count, 2u);
  EXPECT_EQ(result.failed_count, 1u);

  const BatchRecord& warn = result.records[0];
  EXPECT_EQ(warn.status, "ok");
  EXPECT_EQ(warn.patterns, 0u);  // dry run: nothing materialized
  EXPECT_GT(warn.classes, 0u);

  const BatchRecord& lint = result.records[1];
  EXPECT_EQ(lint.status, "failed");
  EXPECT_EQ(lint.error_code, ErrorCode::kLint);
  EXPECT_FALSE(lint.transient);
  EXPECT_EQ(lint.attempts, 1);  // permanent: no retry
  EXPECT_NE(lint.error.find("unused_input"), std::string::npos)
      << lint.error;

  // The same manifest WITHOUT check_only grades the warn spec for real.
  const BatchResult graded = run_batch({warn_spec}, fast_options());
  ASSERT_EQ(graded.records.size(), 1u);
  EXPECT_EQ(graded.records[0].status, "ok");
  EXPECT_EQ(graded.records[0].patterns, 64u);
}

TEST_F(BatchTest, TwoLaneBatchOfAllCoreSpecsStaysWithinTheHardware) {
  // Two batch lanes whose specs each grade on every core (`threads = 0`,
  // as every committed sweep spec says) share the process's one pool, so
  // the batch never runs more threads at once than the hardware has. A
  // sampler thread counts this process's threads throughout; its first
  // reading (itself, the caller, any thread already running) is the
  // baseline.
  const fs::path tasks("/proc/self/task");
  if (!fs::is_directory(tasks)) GTEST_SKIP() << "no /proc/self/task";
  const auto thread_count = [&] {
    std::size_t count = 0;
    for ([[maybe_unused]] const fs::directory_entry& entry :
         fs::directory_iterator(tasks)) {
      ++count;
    }
    return count;
  };
  std::vector<std::string> specs;
  for (int i = 1; i <= 4; ++i) {
    specs.push_back(write_spec(
        "s" + std::to_string(i) + ".spec",
        "circuit = mult16\nsource = lfsr\npatterns = 512\nlfsr_seed = " +
            std::to_string(i) +
            "\nobserve = progressive\nstrobe_step = 24\nengine = ppsfp\n"
            "threads = 0\n"));
  }
  std::atomic<bool> stop{false};
  std::atomic<std::size_t> baseline{0};
  std::size_t peak = 0;
  std::thread sampler([&] {
    std::size_t high = thread_count();
    baseline = high;
    while (!stop) high = std::max(high, thread_count());
    peak = high;
  });
  while (baseline == 0) std::this_thread::yield();
  const BatchResult result = run_batch(specs, fast_options());
  stop = true;
  sampler.join();
  EXPECT_TRUE(result.all_ok());
  // The threads that ran lanes: the caller plus every thread started
  // during the batch.
  EXPECT_LE(peak - baseline + 1, util::resolve_worker_count(0))
      << "peak " << peak << ", baseline " << baseline;
}

TEST_F(BatchTest, ConcurrencyDoesNotChangeResults) {
  std::vector<std::string> specs;
  for (int i = 0; i < 6; ++i) {
    specs.push_back(write_spec("s" + std::to_string(i) + ".spec"));
  }
  BatchOptions serial = fast_options();
  serial.num_workers = 1;
  BatchOptions wide = fast_options();
  wide.num_workers = 4;
  EXPECT_EQ(run_batch(specs, serial).canonical(),
            run_batch(specs, wide).canonical());
}

}  // namespace
}  // namespace lsiq::flow
