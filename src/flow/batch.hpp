// Hardened batch flow runner: many specs, one process, no single point of
// failure.
//
// `lsiq_flow` runs exactly one spec; a coverage campaign (a fault-model
// sweep, a MISR width study, a pattern-source shoot-out) is hundreds. This
// module turns a MANIFEST — a directory of .spec files or a list file —
// into a result set, executing specs concurrently on util::run_lanes and
// streaming one JSON-lines record per spec to a result store that doubles
// as a checkpoint. A spec that grades on `threads` lanes nests its lanes
// in its batch lane's; both share the process's one pool, so a batch
// never runs more threads at once than the hardware has.
//
// Robustness is the contract, in five layers:
//
//   * Crash isolation — every spec runs inside its own catch-everything
//     boundary; one throwing spec produces one structured failure record
//     and never takes the batch down.
//   * Error taxonomy — failures carry the stable ErrorCode of
//     util/error.hpp, split transient vs permanent (is_transient), so a
//     record is machine-triageable without parsing what() strings.
//   * Bounded retry — transient failures (I/O hiccups, resource
//     exhaustion) are retried up to RetryPolicy::max_attempts with
//     exponential backoff; permanent failures fail fast on attempt 1.
//   * Deadline watchdog — BatchOptions::deadline_ms installs a
//     cooperative util::DeadlineScope per spec; the grading engines poll
//     it every 64-pattern block, so a wedged run ends as a structured
//     `deadline` record instead of hanging the batch.
//   * Checkpoint / resume — the JSONL store is re-read on the next run of
//     the same manifest: records marked "ok" whose inputs are unchanged
//     (a content hash of the spec file, of the .bench it names and of its
//     pattern file) are carried over, failures are re-attempted, and a
//     torn trailing line (killed mid-write) is tolerated. A killed batch
//     resumed from its checkpoint converges to the same canonical result
//     set as an uninterrupted run.
//
// Specs share an ArtifactCache (flow/artifacts.hpp). Each circuit
// content key (a generator selector, or a .bench path plus the hash of
// its bytes) gets one CircuitBundle: the built circuit, its compiled view
// and the analyze gate's implication-prover proof, proved lazily once.
// The collapsed fault universe of each fault model hangs off it. So N
// specs over one product build, compile and prove it once instead of N
// times, and an edited .bench is rebuilt, never served stale.
//
// Failure injection for tests and CI rides on util/failpoint.hpp: the
// sites "spec.read", "flow.run", "flow.patterns", "flow.grade" and
// "batch.record" can be armed via LSIQ_FAILPOINTS to fault any stage
// deterministically (see tests/test_batch.cpp).
#pragma once

#include <cstdint>
#include <fstream>
#include <iosfwd>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "flow/artifacts.hpp"
#include "util/error.hpp"

namespace lsiq::flow {

/// Bounded retry with exponential backoff, applied ONLY to failures whose
/// ErrorCode classifies transient (is_transient in util/error.hpp).
struct RetryPolicy {
  /// Total tries per spec, first attempt included. 1 = never retry.
  int max_attempts = 3;
  /// Delay before retry k (1-based) is
  /// min(backoff_initial_ms * kBackoffMultiplier^(k-1), kBackoffMaxMs).
  /// 0 disables sleeping (deterministic tests).
  int backoff_initial_ms = 100;
  static constexpr double kBackoffMultiplier = 4.0;
  static constexpr int kBackoffMaxMs = 2000;

  /// The delay (ms) to sleep after failed attempt `attempt` (1-based).
  [[nodiscard]] int backoff_ms(int attempt) const;
};

/// Everything run_batch needs besides the spec list.
struct BatchOptions {
  /// Concurrent spec runners (util::resolve_worker_count convention:
  /// 0 = one per hardware thread), run as util::run_lanes lanes. Specs
  /// are independent; each grades on its own `threads` lanes, nested in
  /// its runner's, and all of them share the process's one pool.
  std::size_t num_workers = 0;

  RetryPolicy retry;

  /// Per-spec cooperative deadline in milliseconds; 0 = none. Overruns
  /// end the spec with ErrorCode::kDeadline (permanent — no retry).
  int deadline_ms = 0;

  /// JSONL result store that doubles as the checkpoint. Empty = keep
  /// results in memory only (no resume).
  std::string checkpoint;

  /// Re-use "ok" records from an existing checkpoint whose content hash
  /// (hash_spec_file) still matches; false reruns everything.
  bool resume = true;

  /// Live JSONL stream (the CLI passes stdout); records are written in
  /// completion order. Null = none. Stream write failures are the
  /// caller's to detect (std::ostream state); CHECKPOINT write failures
  /// abort the batch with IoError — a result store that drops records is
  /// not a result store.
  std::ostream* stream = nullptr;

  /// Lint-only dry run (`lsiq_flow --check --batch`): every spec is
  /// parsed, validated, resolved against its circuit and pushed through
  /// the flow::check_detailed analyze gate, but nothing is graded. A gate
  /// refusal is a "failed" record with error_code "lint" (permanent, no
  /// retry); ok records carry the universe's class count with zero
  /// patterns.
  bool check_only = false;

  /// ArtifactCache cost bound (see ArtifactCache::set_max_cost) for the
  /// batch's cache; 0 = unbounded, the right default for one-shot batches
  /// that touch a handful of products. The long-lived flow service sets a
  /// real bound so memory stays flat across thousands of jobs.
  std::size_t cache_max_cost = 0;
};

/// One spec's outcome — one JSONL line in the result store.
struct BatchRecord {
  std::string spec;          ///< path as listed in the manifest
  std::uint64_t hash = 0;    ///< hash_spec_file of the spec (0: unread)
  std::string status;        ///< "ok" | "failed"
  ErrorCode error_code = ErrorCode::kOk;
  bool transient = false;    ///< is_transient(error_code)
  int attempts = 0;          ///< tries consumed (retries included)
  double wall_ms = 0.0;      ///< total wall clock, backoff included
  bool resumed = false;      ///< carried over from the checkpoint

  // -- "ok" summary --
  std::size_t patterns = 0;      ///< materialized program length
  std::size_t classes = 0;       ///< collapsed fault classes graded
  double coverage = 0.0;         ///< final coverage under the observation
  double dppm = 0.0;             ///< DPPM at the delivered coverage

  std::string error;         ///< "failed": sanitized what() text

  /// One JSONL line (stable key order, '\n' not included).
  [[nodiscard]] std::string to_jsonl() const;

  /// to_jsonl minus the volatile fields (wall_ms, resumed): the form in
  /// which two runs of the same manifest are comparable byte-for-byte.
  [[nodiscard]] std::string canonical_jsonl() const;

  /// Parse a store line; nullopt for a torn or foreign line (resume
  /// tolerates those rather than refusing the whole checkpoint).
  static std::optional<BatchRecord> from_jsonl(const std::string& line);
};

/// The JSONL result store / checkpoint writer. Thread-safe; every append
/// is flushed (the durability point). kTruncate is the batch convention —
/// the store is rebuilt from carried-over plus fresh records each run.
/// kAppend is the flow-service convention: the daemon's store is an
/// append-only journal that survives daemon restarts, and readers apply
/// last-record-per-spec semantics (load_result_store).
class ResultStore {
 public:
  enum class Mode { kTruncate, kAppend };

  /// Opens `path` (empty = no file); `stream` additionally receives every
  /// line (the CLI passes stdout). Throws IoError when the file cannot be
  /// opened.
  ResultStore(const std::string& path, std::ostream* stream,
              Mode mode = Mode::kTruncate);

  /// Commit one record: append + flush. A store write failure throws
  /// IoError — a result store that drops records is worse than no store.
  void append(const BatchRecord& record);

 private:
  std::string path_;
  std::ostream* stream_;
  std::optional<std::ofstream> file_;
  std::mutex mutex_;
};

/// Last record per spec from an existing store; unparsable (torn) lines
/// are skipped, so a store killed mid-write still loads. Missing file =
/// empty map (first run).
std::map<std::string, BatchRecord> load_result_store(const std::string& path);

/// FNV-1a over the bytes of the spec file and of every file a run of it
/// reads: the .bench its `circuit` names (read as resolve_circuit reads
/// it) and, for `source = file`, its `pattern_file`. A spec that names
/// only a generator, or that fails to parse (its run can only fail),
/// hashes its own bytes alone. 0 when the spec or a file it names cannot
/// be read (a record hashed 0 is never treated as resumable).
std::uint64_t hash_spec_file(const std::string& path);

/// The one resume rule of run_batch and the flow service: a stored
/// record stands in for running the spec at `path` again when it is "ok"
/// and its nonzero hash equals hash_spec_file(path).
bool resumable(const BatchRecord& record, const std::string& path);

/// The crash-isolation + retry boundary around ONE spec: run it under the
/// options' deadline, retry transient failures per options.retry, and
/// NEVER throw — every failure becomes a structured record. This is the
/// shared unit of work of run_batch and the flow service's job lanes.
BatchRecord run_spec_with_retry(const std::string& path, ArtifactCache& cache,
                                const BatchOptions& options);

/// The whole batch's outcome. records is in MANIFEST order regardless of
/// completion order, so two runs of one manifest are directly comparable.
struct BatchResult {
  std::vector<BatchRecord> records;
  std::size_t ok_count = 0;
  std::size_t failed_count = 0;
  std::size_t resumed_count = 0;
  std::size_t cache_hits = 0;
  std::size_t cache_misses = 0;
  std::size_t cache_proofs = 0;  ///< circuits the analyze gate proved

  [[nodiscard]] bool all_ok() const noexcept { return failed_count == 0; }

  /// Canonical serialization: canonical_jsonl of every record in manifest
  /// order, one per line. Two runs of the same manifest (interrupted or
  /// not) must produce identical canonical() bytes — the checkpoint
  /// correctness contract tests/test_batch.cpp pins.
  [[nodiscard]] std::string canonical() const;

  /// Human summary ("12 ok, 2 failed (1 transient), 8 resumed, ...").
  [[nodiscard]] std::string summary() const;
};

/// Expand a manifest into spec paths: a DIRECTORY yields every *.spec in
/// it, sorted by name; a LIST FILE yields one path per non-comment line,
/// relative entries resolved against the list file's directory. Throws
/// IoError when the manifest cannot be read and Error(kInvalidSpec) when
/// it names no specs (an empty campaign is a mistake, not a success).
std::vector<std::string> read_manifest(const std::string& path);

/// Run every spec and return the full result set. Individual spec
/// failures NEVER throw — they are records. Throws only for batch-level
/// faults: an unwritable checkpoint (IoError) or a failure injected at
/// the "batch.record" site (how the tests simulate a killed batch).
BatchResult run_batch(const std::vector<std::string>& specs,
                      const BatchOptions& options = {});

/// read_manifest + run_batch.
BatchResult run_manifest(const std::string& manifest,
                         const BatchOptions& options = {});

}  // namespace lsiq::flow
