// Cooperative per-thread deadline watchdog.
//
// C++ offers no safe way to kill a wedged computation from outside, so the
// batch runner's per-spec deadline is COOPERATIVE: the thread that runs a
// spec installs a DeadlineScope, and long-running loops poll poll_deadline()
// at natural checkpoints — every failpoint site (util/failpoint.hpp) and
// every 64-pattern block of the grading engines. When the deadline has
// passed, the poll throws DeadlineExceeded (ErrorCode::kDeadline,
// classified permanent), which unwinds the run cleanly through the same
// error path as any other failure.
//
// The disabled fast path is one thread-local pointer load — cheap enough
// for per-block polling; the clock is only read while a scope is active.
// Scopes nest: an inner scope may only tighten the deadline (the effective
// deadline is the minimum), and destruction restores the outer one.
//
// Cancellation rides the same rail: a CancelScope installs an external
// std::atomic<bool> flag, and the same poll that checks the clock checks
// every flag on the scope stack — when one is set the poll throws
// CancelledError (ErrorCode::kCancelled). This is how the flow service
// (src/service/) cancels a RUNNING job: the job lane installs a
// CancelScope around the whole attempt loop, a `cancel` request flips the
// job's flag, and the run unwinds at its next checkpoint through the same
// structured error path a deadline overrun takes.
#pragma once

#include <atomic>
#include <chrono>

namespace lsiq::util {

namespace detail {
struct DeadlineFrame {
  std::chrono::steady_clock::time_point deadline;
  /// Optional external cancellation flag; every frame on the stack is
  /// checked, so an outer CancelScope stays live under inner
  /// DeadlineScopes (the batch retry loop nests exactly that way).
  const std::atomic<bool>* cancel = nullptr;
  const DeadlineFrame* outer;
};
// constinit: the initializer is the constant nullptr, so other
// translation units read the variable directly rather than through the
// thread-local wrapper call, which UBSan builds flag as a null load.
extern constinit thread_local const DeadlineFrame* tl_deadline;
/// Checks every cancel flag on the scope stack (throws CancelledError),
/// then reads the clock and throws DeadlineExceeded when the effective
/// deadline passed.
void poll_deadline_slow();
}  // namespace detail

/// RAII: installs `now + budget` as this thread's deadline (clamped to the
/// enclosing scope's deadline, if any) for the scope's lifetime.
class DeadlineScope {
 public:
  explicit DeadlineScope(std::chrono::milliseconds budget);
  ~DeadlineScope();

  DeadlineScope(const DeadlineScope&) = delete;
  DeadlineScope& operator=(const DeadlineScope&) = delete;

 private:
  detail::DeadlineFrame frame_;
};

/// RAII: installs an external cancellation flag for the scope's lifetime.
/// poll_deadline() throws lsiq::CancelledError once the flag reads true;
/// the flag's owner (the flow service's job table) must outlive the scope.
/// Carries no deadline of its own — an enclosing DeadlineScope, if any,
/// stays effective.
class CancelScope {
 public:
  explicit CancelScope(const std::atomic<bool>& flag);
  ~CancelScope();

  CancelScope(const CancelScope&) = delete;
  CancelScope& operator=(const CancelScope&) = delete;

 private:
  detail::DeadlineFrame frame_;
};

/// True while a DeadlineScope is active on this thread.
[[nodiscard]] inline bool deadline_active() noexcept {
  return detail::tl_deadline != nullptr;
}

/// Checkpoint: throws lsiq::DeadlineExceeded if this thread's deadline has
/// passed; a no-op (one pointer load) when no scope is active.
inline void poll_deadline() {
  if (detail::tl_deadline != nullptr) detail::poll_deadline_slow();
}

}  // namespace lsiq::util
