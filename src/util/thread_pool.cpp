#include "util/thread_pool.hpp"

#include <algorithm>
#include <condition_variable>
#include <exception>
#include <mutex>
#include <thread>
#include <vector>

namespace lsiq::util {

namespace {

/// One run_lanes call with more than one lane, alive on its caller's
/// stack until every lane has finished.
struct Call {
  const std::function<void(std::size_t)>& fn;
  std::size_t lanes;
  std::size_t next = 0;      ///< lowest unclaimed lane
  std::size_t finished = 0;  ///< lanes that have returned or thrown
  std::exception_ptr first_error{};
  std::condition_variable done{};
};

class Pool {
 public:
  explicit Pool(std::size_t workers) {
    workers_.reserve(workers);
    for (std::size_t i = 0; i < workers; ++i) {
      workers_.emplace_back([this] { work(); });
    }
  }

  Pool(const Pool&) = delete;
  Pool& operator=(const Pool&) = delete;

  ~Pool() {
    {
      const std::lock_guard<std::mutex> lock(mutex_);
      stopping_ = true;
    }
    ready_.notify_all();
    for (std::thread& worker : workers_) worker.join();
  }

  void run(Call& call) {
    std::unique_lock<std::mutex> lock(mutex_);
    open_.push_back(&call);
    // Wake a worker for each lane it could take besides the caller's.
    for (std::size_t i = 1; i < call.lanes && i <= workers_.size(); ++i) {
      ready_.notify_one();
    }
    while (call.next < call.lanes) run_lane(call, lock);
    call.done.wait(lock, [&] { return call.finished == call.lanes; });
  }

 private:
  /// Claim the next lane of `call` (a call whose last lane is claimed
  /// leaves the open list), run it with mutex_ released, and count it
  /// finished.
  void run_lane(Call& call, std::unique_lock<std::mutex>& lock) {
    const std::size_t lane = call.next++;
    if (call.next == call.lanes) {
      open_.erase(std::find(open_.begin(), open_.end(), &call));
    }
    lock.unlock();
    std::exception_ptr error;
    try {
      call.fn(lane);
    } catch (...) {
      error = std::current_exception();
    }
    lock.lock();
    if (call.first_error == nullptr) call.first_error = error;
    // Notified under the lock: the caller cannot return, and destroy
    // `call`, before this thread lets go of it.
    if (++call.finished == call.lanes) call.done.notify_one();
  }

  void work() {
    std::unique_lock<std::mutex> lock(mutex_);
    while (true) {
      ready_.wait(lock, [&] { return stopping_ || !open_.empty(); });
      // Each caller runs its own unclaimed lanes, so a stopping worker
      // leaves none behind.
      if (stopping_) return;
      run_lane(*open_.front(), lock);
    }
  }

  std::mutex mutex_;
  std::condition_variable ready_;
  std::vector<Call*> open_;  ///< calls with unclaimed lanes, oldest first
  bool stopping_ = false;
  std::vector<std::thread> workers_;
};

}  // namespace

std::size_t resolve_worker_count(std::size_t requested) noexcept {
  if (requested != 0) return requested;
  return std::max<std::size_t>(1, std::thread::hardware_concurrency());
}

void run_lanes(std::size_t lanes, const std::function<void(std::size_t)>& fn) {
  lanes = resolve_worker_count(lanes);
  if (lanes == 1) {
    fn(0);
    return;
  }
  // Started by the first call with more than one lane; the workers are
  // joined when static objects are destroyed at exit.
  static Pool pool(resolve_worker_count(0) - 1);
  Call call{fn, lanes};
  pool.run(call);
  if (call.first_error != nullptr) std::rethrow_exception(call.first_error);
}

}  // namespace lsiq::util
