#include "util/deadline.hpp"

#include <algorithm>

#include "util/error.hpp"

namespace lsiq::util {

namespace detail {

constinit thread_local const DeadlineFrame* tl_deadline = nullptr;

void poll_deadline_slow() {
  const DeadlineFrame* top = tl_deadline;
  if (top == nullptr) return;
  // Cancellation first: it is the more specific verdict, and checking the
  // flags costs no clock read. Every frame is checked — an outer
  // CancelScope must stay visible under nested DeadlineScopes.
  for (const DeadlineFrame* frame = top; frame != nullptr;
       frame = frame->outer) {
    if (frame->cancel != nullptr &&
        frame->cancel->load(std::memory_order_relaxed)) {
      throw CancelledError("cancelled");
    }
  }
  if (std::chrono::steady_clock::now() >= top->deadline) {
    throw DeadlineExceeded("deadline exceeded");
  }
}

}  // namespace detail

DeadlineScope::DeadlineScope(std::chrono::milliseconds budget) {
  frame_.deadline = std::chrono::steady_clock::now() + budget;
  if (detail::tl_deadline != nullptr) {
    // Nesting may only tighten: an inner scope cannot outlive its outer
    // budget, or a wedged inner stage would mask the outer watchdog.
    frame_.deadline = std::min(frame_.deadline,
                               detail::tl_deadline->deadline);
  }
  frame_.outer = detail::tl_deadline;
  detail::tl_deadline = &frame_;
}

DeadlineScope::~DeadlineScope() { detail::tl_deadline = frame_.outer; }

CancelScope::CancelScope(const std::atomic<bool>& flag) {
  // No deadline of its own: inherit the enclosing scope's, or never.
  frame_.deadline = detail::tl_deadline != nullptr
                        ? detail::tl_deadline->deadline
                        : std::chrono::steady_clock::time_point::max();
  frame_.cancel = &flag;
  frame_.outer = detail::tl_deadline;
  detail::tl_deadline = &frame_;
}

CancelScope::~CancelScope() { detail::tl_deadline = frame_.outer; }

}  // namespace lsiq::util
