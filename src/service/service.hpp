// Flow-as-a-service: the in-process core of the `lsiq_flowd` daemon.
//
// FlowService is the whole daemon minus the socket: an async job queue in
// front of the same per-spec unit of work the batch runner uses
// (flow::run_spec_with_retry), executed by N job lanes. A job lane is a
// plain thread that loops over the queue for the service's lifetime, not
// a share of finite work; each job grades on its spec's `threads` lanes
// through util::run_lanes, so the daemon runs its job lanes plus the
// process's one shared pool. Transport (src/service/server.hpp) is a thin
// layer on top, so every queue/cancel/evict behavior is testable
// in-process without a socket.
//
// The contracts, in the order they bite:
//
//   * Admission control — the queue is BOUNDED (ServiceOptions::
//     max_queue). A submit against a full queue throws
//     Error(kQueueFull) — transient by taxonomy, so a polite client
//     backs off and retries. A submit after drain()/shutdown() throws
//     Error(kShutdown) — permanent, the service never re-opens.
//   * Priority — higher `priority` runs first; ties run in submission
//     order. Priorities order the QUEUE only; running jobs are never
//     preempted.
//   * Cancellation — cancel() on a QUEUED job commits a structured
//     kCancelled record immediately (attempts 0, the job never ran); on
//     a RUNNING job it flips the job's cancel flag, which the worker's
//     util::CancelScope turns into a kCancelled record at the run's next
//     cooperative checkpoint. Both shapes land in the result store like
//     any other failure.
//   * Deadlines — a per-job deadline_ms (default from options) rides the
//     same BatchOptions watchdog the batch runner uses; overruns become
//     kDeadline records.
//   * Crash isolation — run_spec_with_retry never throws, and the
//     "service.job" failpoint at the lane boundary converts injected
//     errors into structured failure records; a poisoned job cannot take
//     a lane down.
//   * Durability — every completed record is appended to the JSONL
//     result store (flow::ResultStore, kAppend mode: the store is a
//     journal that survives daemon restarts; readers apply
//     last-record-per-spec). On submit, an unchanged-ok record from the
//     store satisfies the job instantly (resumed=true) — the daemon
//     equivalent of batch --resume, through the same flow::resumable
//     rule, so a .bench or pattern file edited under an unchanged spec
//     runs the job again.
//   * Bounded memory — the shared ArtifactCache is cost-bounded
//     (cache_max_cost) so a daemon that has seen thousands of products
//     holds only the hot set; stats() exposes hits/misses/evictions, the
//     live cost and the redundancy proofs built.
//   * Fresh inputs — the cache keys a .bench netlist on its bytes, so a
//     netlist edited behind the daemon is rebuilt (and re-proved) on the
//     next job that names it.
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "flow/batch.hpp"

namespace lsiq::service {

struct ServiceOptions {
  /// Job lanes (util::resolve_worker_count convention; 0 = one per
  /// hardware thread), each a thread that runs one job at a time.
  std::size_t num_workers = 2;

  /// Admission bound: maximum QUEUED (not yet running) jobs. A submit
  /// beyond this throws Error(kQueueFull).
  std::size_t max_queue = 256;

  /// ArtifactCache cost bound (ArtifactCache::set_max_cost units:
  /// compiled node count). 0 = unbounded.
  std::size_t cache_max_cost = 0;

  /// JSONL result store, opened in APPEND mode; empty = no store (results
  /// live in memory only and nothing is resumable).
  std::string store_path;

  /// Satisfy a submit from an unchanged-ok store record instead of
  /// re-running it.
  bool resume = true;

  /// Directory where inline-submitted specs are spooled as
  /// `inline-<job>.spec` files; empty = current directory.
  std::string spool_dir;

  /// Per-job defaults, overridable per submit.
  flow::RetryPolicy retry;
  int default_deadline_ms = 0;
};

enum class JobState { kQueued, kRunning, kDone };

[[nodiscard]] const char* job_state_name(JobState state) noexcept;

/// A point-in-time snapshot of one job (status/list responses).
struct JobInfo {
  std::uint64_t id = 0;
  std::string spec;
  int priority = 0;
  JobState state = JobState::kQueued;
  bool resumed = false;
  /// Valid when state == kDone.
  flow::BatchRecord record;
};

/// A point-in-time snapshot of the whole service (the `stats` request).
struct ServiceStats {
  std::size_t queued = 0;
  std::size_t running = 0;
  std::size_t done = 0;
  std::size_t submitted = 0;   ///< admitted submits (resumed included)
  std::size_t completed = 0;   ///< records committed (cancelled included)
  std::size_t cancelled = 0;   ///< cancel() calls that took effect
  std::size_t rejected = 0;    ///< submits refused (queue_full + shutdown)
  std::size_t resumed = 0;     ///< submits satisfied from the store
  bool draining = false;
  flow::ArtifactCache::Stats cache;
};

class FlowService {
 public:
  explicit FlowService(ServiceOptions options);

  /// shutdown() + join. Queued jobs die as kCancelled records.
  ~FlowService();

  FlowService(const FlowService&) = delete;
  FlowService& operator=(const FlowService&) = delete;

  /// Admit one spec file. priority orders the queue (higher first);
  /// deadline_ms < 0 means options.default_deadline_ms. Returns the job
  /// id. Throws Error(kQueueFull) when the queue is at max_queue and
  /// Error(kShutdown) once draining.
  std::uint64_t submit(const std::string& spec_path, int priority = 0,
                       int deadline_ms = -1);

  /// Admit an inline spec: the text is spooled to
  /// `<spool_dir>/inline-<job>.spec` and the job runs that file (so the
  /// record's spec path names a real, re-runnable file). Throws IoError
  /// when the spool file cannot be written, plus everything submit()
  /// throws.
  std::uint64_t submit_inline(const std::string& spec_text, int priority = 0,
                              int deadline_ms = -1);

  /// Snapshot one job; nullopt for an unknown id.
  [[nodiscard]] std::optional<JobInfo> status(std::uint64_t id) const;

  /// Snapshot every job, in submission order.
  [[nodiscard]] std::vector<JobInfo> list() const;

  /// Request cancellation. Queued: the job completes NOW as a kCancelled
  /// record. Running: the job's flag is set and the record arrives when
  /// the run unwinds. Returns false (no effect) for done/unknown jobs.
  bool cancel(std::uint64_t id);

  [[nodiscard]] ServiceStats stats() const;

  /// Block until job `id` is done; returns its final snapshot. Throws
  /// Error(kNotFound) for an unknown id.
  JobInfo wait(std::uint64_t id);

  /// Stop admission (kShutdown from here on) and block until every
  /// admitted job has completed. Idempotent. Workers stay alive — call
  /// shutdown() (or destroy the service) to stop them.
  void drain();

  /// Stop admission, cancel every queued job (immediate kCancelled
  /// records), flag every running job, and join the job lanes.
  /// Idempotent.
  void shutdown();

  [[nodiscard]] bool draining() const;

 private:
  struct Job {
    std::uint64_t id = 0;
    std::string spec;
    int priority = 0;
    int deadline_ms = 0;
    JobState state = JobState::kQueued;
    bool resumed = false;
    std::atomic<bool> cancel{false};
    flow::BatchRecord record;
  };

  /// Admission (caller holds mutex_ via the public entry points).
  std::uint64_t submit_locked(std::unique_lock<std::mutex>& lock,
                              const std::string& spec_path, int priority,
                              int deadline_ms);

  /// Commit a job's final record: state/store/counters/wakeups. Caller
  /// holds mutex_.
  void finish_locked(Job& job, flow::BatchRecord record);

  [[nodiscard]] JobInfo snapshot_locked(const Job& job) const;

  void worker_loop();

  ServiceOptions options_;
  flow::ArtifactCache cache_;
  std::unique_ptr<flow::ResultStore> store_;
  /// Last record per spec from the store at startup (resume source).
  std::map<std::string, flow::BatchRecord> resume_records_;

  mutable std::mutex mutex_;
  std::condition_variable work_ready_;   ///< workers: queue or stop
  std::condition_variable job_done_;     ///< waiters: a job completed
  std::map<std::uint64_t, std::unique_ptr<Job>> jobs_;
  /// Queue order: (-priority, id) → job id. Higher priority first, FIFO
  /// within a priority.
  std::map<std::pair<int, std::uint64_t>, std::uint64_t> queue_;
  std::uint64_t next_id_ = 1;
  std::size_t running_count_ = 0;
  bool draining_ = false;
  bool stopping_ = false;

  std::size_t submitted_ = 0;
  std::size_t completed_ = 0;
  std::size_t cancelled_ = 0;
  std::size_t rejected_ = 0;
  std::size_t resumed_ = 0;

  /// The job lanes; each exits when stopping_ is set and the queue is
  /// empty.
  std::vector<std::thread> lanes_;
};

}  // namespace lsiq::service
