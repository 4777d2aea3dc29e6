// A persistent worker pool for data-parallel simulation loops.
//
// The multi-threaded fault simulator dispatches one job per block of
// patterns; spawning threads per block would dominate the work at small
// block counts, so the pool keeps its workers alive across jobs and wakes
// them with a generation counter. Jobs are "lane" shaped: run(fn) executes
// fn(lane) once per worker, and the caller blocks until every lane has
// finished. Partitioning work across lanes is the caller's business — the
// fault simulator gives each lane a strided slice of the live-fault list
// (and its own propagator, so lanes never share mutable state).
#pragma once

#include <condition_variable>
#include <cstdint>
#include <exception>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

namespace lsiq::util {

/// The one place the shared worker-count convention is resolved:
/// 0 = one worker per hardware thread (at least 1), n = exactly n workers.
/// Every knob that documents that convention (ThreadPool's constructor,
/// fault::simulate_ppsfp_mt, bist::BistConfig::num_threads, and the
/// spec's one lane knob flow::EngineSpec::num_threads, `threads` in a
/// spec file) resolves through this function, so "0 means all cores"
/// cannot drift between subsystems.
[[nodiscard]] std::size_t resolve_worker_count(std::size_t requested) noexcept;

class ThreadPool {
 public:
  /// Start `thread_count` workers; 0 means std::thread::hardware_concurrency
  /// (at least 1).
  explicit ThreadPool(std::size_t thread_count = 0);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// Number of worker lanes.
  [[nodiscard]] std::size_t size() const noexcept { return workers_.size(); }

  /// Execute fn(lane) on every worker, lane in [0, size()), and wait for all
  /// of them. The first exception a lane throws is rethrown here after the
  /// job completes.
  void run(const std::function<void(std::size_t)>& fn);

 private:
  void worker_loop(std::size_t lane);

  std::mutex mutex_;
  std::condition_variable work_ready_;
  std::condition_variable job_done_;
  std::vector<std::thread> workers_;
  const std::function<void(std::size_t)>* job_ = nullptr;
  std::uint64_t generation_ = 0;
  std::size_t remaining_ = 0;
  std::exception_ptr first_error_;
  bool stopping_ = false;
};

}  // namespace lsiq::util
