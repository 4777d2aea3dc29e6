#include "service/service.hpp"

#include <filesystem>
#include <fstream>
#include <iostream>
#include <utility>

#include "util/deadline.hpp"
#include "util/failpoint.hpp"
#include "util/thread_pool.hpp"

namespace lsiq::service {

namespace {

/// A structured failure record for a job that never reached (or never
/// returned from) run_spec_with_retry: a cancelled queued job, or an
/// error injected at the "service.job" lane boundary.
flow::BatchRecord failure_record(const std::string& spec, ErrorCode code,
                                 const std::string& message, int attempts) {
  flow::BatchRecord record;
  record.spec = spec;
  record.hash = flow::hash_spec_file(spec);
  record.status = "failed";
  record.error_code = code;
  record.transient = is_transient(code);
  record.attempts = attempts;
  record.error = message;
  return record;
}

}  // namespace

const char* job_state_name(JobState state) noexcept {
  switch (state) {
    case JobState::kQueued: return "queued";
    case JobState::kRunning: return "running";
    case JobState::kDone: return "done";
  }
  return "unknown";
}

FlowService::FlowService(ServiceOptions options)
    : options_(std::move(options)), cache_(options_.cache_max_cost) {
  if (!options_.store_path.empty()) {
    if (options_.resume) {
      resume_records_ = flow::load_result_store(options_.store_path);
    }
    store_ = std::make_unique<flow::ResultStore>(
        options_.store_path, nullptr, flow::ResultStore::Mode::kAppend);
  }
  const std::size_t lanes = util::resolve_worker_count(options_.num_workers);
  lanes_.reserve(lanes);
  for (std::size_t lane = 0; lane < lanes; ++lane) {
    lanes_.emplace_back([this] {
      try {
        worker_loop();
      } catch (const std::exception& e) {
        // Lanes are designed not to throw; a stray exception here ends
        // this lane only. The daemon stays up — jobs the other lanes can
        // still serve, they should.
        std::cerr << "lsiq_flowd: job lane error: " << e.what() << "\n";
      }
    });
  }
}

FlowService::~FlowService() { shutdown(); }

std::uint64_t FlowService::submit(const std::string& spec_path, int priority,
                                  int deadline_ms) {
  std::unique_lock<std::mutex> lock(mutex_);
  return submit_locked(lock, spec_path, priority, deadline_ms);
}

std::uint64_t FlowService::submit_inline(const std::string& spec_text,
                                         int priority, int deadline_ms) {
  namespace fs = std::filesystem;
  std::unique_lock<std::mutex> lock(mutex_);
  // Admission is checked BEFORE spooling so a refused submit leaves no
  // file behind; submit_locked re-checks under the same lock.
  if (draining_ || stopping_) {
    ++rejected_;
    throw Error("flow service is draining; submission refused",
                ErrorCode::kShutdown);
  }
  if (queue_.size() >= options_.max_queue) {
    ++rejected_;
    throw Error("flow service job queue is full", ErrorCode::kQueueFull);
  }
  const fs::path dir(options_.spool_dir.empty() ? "." : options_.spool_dir);
  const std::string path =
      (dir / ("inline-" + std::to_string(next_id_) + ".spec")).string();
  {
    std::ofstream out(path, std::ios::trunc);
    out << spec_text;
    if (!out) {
      throw IoError("cannot spool inline spec: " + path);
    }
  }
  return submit_locked(lock, path, priority, deadline_ms);
}

std::uint64_t FlowService::submit_locked(std::unique_lock<std::mutex>& lock,
                                         const std::string& spec_path,
                                         int priority, int deadline_ms) {
  (void)lock;
  if (draining_ || stopping_) {
    ++rejected_;
    throw Error("flow service is draining; submission refused",
                ErrorCode::kShutdown);
  }
  if (queue_.size() >= options_.max_queue) {
    ++rejected_;
    throw Error("flow service job queue is full", ErrorCode::kQueueFull);
  }
  const std::uint64_t id = next_id_++;
  auto job = std::make_unique<Job>();
  job->id = id;
  job->spec = spec_path;
  job->priority = priority;
  job->deadline_ms =
      deadline_ms >= 0 ? deadline_ms : options_.default_deadline_ms;
  Job& slot = *jobs_.emplace(id, std::move(job)).first->second;
  ++submitted_;

  // Resume: an unchanged-ok record from the store satisfies the job
  // without running it — the daemon twin of `--batch --resume`.
  if (options_.resume) {
    const auto it = resume_records_.find(spec_path);
    if (it != resume_records_.end() &&
        flow::resumable(it->second, spec_path)) {
      ++resumed_;
      slot.resumed = true;
      finish_locked(slot, it->second);
      return id;
    }
  }

  queue_.emplace(std::make_pair(-priority, id), id);
  work_ready_.notify_one();
  return id;
}

void FlowService::finish_locked(Job& job, flow::BatchRecord record) {
  record.resumed = job.resumed;
  job.record = std::move(record);
  job.state = JobState::kDone;
  ++completed_;
  if (store_ != nullptr) {
    try {
      store_->append(job.record);
    } catch (const std::exception& e) {
      // The batch runner aborts on a store write failure; a daemon has
      // nothing to abort INTO, so it degrades to in-memory results and
      // says so once per failure.
      std::cerr << "lsiq_flowd: result store write failed: " << e.what()
                << "\n";
    }
  }
  job_done_.notify_all();
}

JobInfo FlowService::snapshot_locked(const Job& job) const {
  JobInfo info;
  info.id = job.id;
  info.spec = job.spec;
  info.priority = job.priority;
  info.state = job.state;
  info.resumed = job.resumed;
  if (job.state == JobState::kDone) info.record = job.record;
  return info;
}

std::optional<JobInfo> FlowService::status(std::uint64_t id) const {
  const std::lock_guard<std::mutex> lock(mutex_);
  const auto it = jobs_.find(id);
  if (it == jobs_.end()) return std::nullopt;
  return snapshot_locked(*it->second);
}

std::vector<JobInfo> FlowService::list() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  std::vector<JobInfo> jobs;
  jobs.reserve(jobs_.size());
  for (const auto& [id, job] : jobs_) {
    jobs.push_back(snapshot_locked(*job));
  }
  return jobs;
}

bool FlowService::cancel(std::uint64_t id) {
  const std::lock_guard<std::mutex> lock(mutex_);
  const auto it = jobs_.find(id);
  if (it == jobs_.end()) return false;
  Job& job = *it->second;
  if (job.state == JobState::kQueued) {
    queue_.erase(std::make_pair(-job.priority, job.id));
    ++cancelled_;
    finish_locked(job, failure_record(job.spec, ErrorCode::kCancelled,
                                      "cancelled before start",
                                      /*attempts=*/0));
    return true;
  }
  if (job.state == JobState::kRunning) {
    ++cancelled_;
    job.cancel.store(true, std::memory_order_relaxed);
    return true;
  }
  return false;  // already done: nothing to cancel
}

ServiceStats FlowService::stats() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  ServiceStats stats;
  stats.queued = queue_.size();
  stats.running = running_count_;
  stats.done = completed_;
  stats.submitted = submitted_;
  stats.completed = completed_;
  stats.cancelled = cancelled_;
  stats.rejected = rejected_;
  stats.resumed = resumed_;
  stats.draining = draining_ || stopping_;
  stats.cache = cache_.stats();
  return stats;
}

JobInfo FlowService::wait(std::uint64_t id) {
  std::unique_lock<std::mutex> lock(mutex_);
  const auto it = jobs_.find(id);
  if (it == jobs_.end()) {
    throw Error("no job with id " + std::to_string(id), ErrorCode::kNotFound);
  }
  Job& job = *it->second;
  job_done_.wait(lock, [&] { return job.state == JobState::kDone; });
  return snapshot_locked(job);
}

void FlowService::drain() {
  std::unique_lock<std::mutex> lock(mutex_);
  draining_ = true;
  job_done_.wait(lock,
                 [&] { return queue_.empty() && running_count_ == 0; });
}

void FlowService::shutdown() {
  {
    const std::lock_guard<std::mutex> lock(mutex_);
    draining_ = true;
    while (!queue_.empty()) {
      const auto it = queue_.begin();
      Job& job = *jobs_.at(it->second);
      queue_.erase(it);
      ++cancelled_;
      finish_locked(job, failure_record(job.spec, ErrorCode::kCancelled,
                                        "cancelled by shutdown",
                                        /*attempts=*/0));
    }
    for (auto& [id, job] : jobs_) {
      if (job->state == JobState::kRunning) {
        job->cancel.store(true, std::memory_order_relaxed);
      }
    }
    stopping_ = true;
    work_ready_.notify_all();
  }
  for (std::thread& lane : lanes_) {
    if (lane.joinable()) lane.join();
  }
}

bool FlowService::draining() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  return draining_ || stopping_;
}

void FlowService::worker_loop() {
  while (true) {
    std::unique_lock<std::mutex> lock(mutex_);
    work_ready_.wait(lock, [&] { return stopping_ || !queue_.empty(); });
    if (queue_.empty()) {
      if (stopping_) return;
      continue;
    }
    const auto it = queue_.begin();
    Job& job = *jobs_.at(it->second);
    queue_.erase(it);
    job.state = JobState::kRunning;
    ++running_count_;
    flow::BatchOptions job_options;
    job_options.retry = options_.retry;
    job_options.deadline_ms = job.deadline_ms;
    lock.unlock();

    // The per-job isolation boundary. run_spec_with_retry never throws;
    // the catches convert a "service.job" injection (or a cancel that
    // lands at that checkpoint) into a structured record, so nothing a
    // job does can take the lane down.
    flow::BatchRecord record;
    try {
      const util::CancelScope cancel_scope(job.cancel);
      LSIQ_FAILPOINT("service.job");
      record = flow::run_spec_with_retry(job.spec, cache_, job_options);
    } catch (const Error& e) {
      record = failure_record(job.spec, e.code(), e.what(), /*attempts=*/1);
    } catch (const std::exception& e) {
      record = failure_record(job.spec, ErrorCode::kUnknown, e.what(),
                              /*attempts=*/1);
    } catch (...) {
      record = failure_record(job.spec, ErrorCode::kUnknown,
                              "non-standard exception", /*attempts=*/1);
    }

    lock.lock();
    --running_count_;
    finish_locked(job, std::move(record));
  }
}

}  // namespace lsiq::service
