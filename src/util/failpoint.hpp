// Deterministic fault injection: named failpoints at flow checkpoints.
//
// Robustness code is only as good as its tests, and real failures (full
// disks, wedged engines, torn files) are miserable to reproduce. A
// failpoint is a named site — `LSIQ_FAILPOINT("flow.grade")` — that does
// nothing in production and, when ARMED, injects a failure on demand:
// throw a classified lsiq error, sleep (to trip a deadline watchdog), or
// both, a bounded number of times. The batch test suite arms sites through
// the API; end-to-end harnesses (CI) arm them through the LSIQ_FAILPOINTS
// environment variable without touching the binary:
//
//     LSIQ_FAILPOINTS='flow.grade=error(transient,1);spec.read=error(io)'
//
//     config := entry (';' entry)*
//     entry  := site '=' action
//     action := 'error(' code [',' times] ')'   throw; code is an
//                                               error_code_name
//             | 'sleep(' millis [',' times] ')' delay, then continue
//             | 'off'                           disarm the site
//
// `times` bounds how many hits fire (omitted = every hit) — `error(
// transient,1)` is the canonical "fails once, then recovers" failure that
// retry logic must turn into success. Every site is also a cooperative
// cancellation checkpoint: hit() polls util::poll_deadline() even when
// the registry is empty.
//
// Sites installed today: "spec.read" (flow spec-file reading),
// "flow.run" (entry of flow::run), "flow.patterns" (pattern
// materialization), "flow.grade" (before grading), "batch.record"
// (before a batch result record is committed), "service.accept" (a flow
// service connection was accepted; injected errors drop the connection)
// and "service.job" (a flow service job lane picked up a job; injected
// errors become structured failure records).
#pragma once

#include <atomic>
#include <cstdint>
#include <mutex>
#include <string>
#include <unordered_map>

#include "util/deadline.hpp"
#include "util/error.hpp"

namespace lsiq::util {

/// What an armed site does when hit.
struct FailpointAction {
  /// Throw an error of `code` after the (optional) sleep.
  bool throws = false;
  ErrorCode code = ErrorCode::kUnknown;
  /// Milliseconds to sleep before throwing / returning.
  int sleep_ms = 0;
  /// How many hits fire this action; negative = unlimited. Counts down as
  /// hits fire; a site with 0 remaining stays registered but inert.
  int times = -1;
};

class Failpoints {
 public:
  /// The process-wide registry (sites are global names).
  static Failpoints& instance();

  /// Arm `site` with `action` (replacing any previous arming).
  void arm(const std::string& site, FailpointAction action);

  /// Disarm one site / every site. clear() also resets hit counts.
  void disarm(const std::string& site);
  void clear();

  /// Arm sites from a config string (grammar in the header comment).
  /// Returns the number of entries applied; throws lsiq::ParseError on a
  /// malformed config — a mistyped injection plan must fail loudly, not
  /// silently test nothing.
  std::size_t arm_from_string(const std::string& config);

  /// arm_from_string(getenv("LSIQ_FAILPOINTS")); 0 when unset or empty.
  std::size_t arm_from_env();

  /// The injection site: polls the deadline watchdog, then fires the
  /// armed action, if any. Prefer the LSIQ_FAILPOINT macro at call sites.
  void hit(const char* site);

  /// Hits observed at `site` since the last clear(). Only counted while
  /// at least one site is armed (the disarmed fast path skips the lock).
  [[nodiscard]] std::uint64_t hit_count(const std::string& site) const;

  /// True when `site` is armed with a live (times != 0) action.
  [[nodiscard]] bool armed(const std::string& site) const;

 private:
  Failpoints() = default;

  mutable std::mutex mutex_;
  /// Disarmed fast path: hit() returns after one relaxed load when false.
  std::atomic<bool> any_armed_{false};
  std::unordered_map<std::string, FailpointAction> actions_;
  std::unordered_map<std::string, std::uint64_t> hits_;
};

}  // namespace lsiq::util

/// Mark a named injection site. Expands to one relaxed atomic load when no
/// failpoint is armed and no deadline scope is active on this thread.
#define LSIQ_FAILPOINT(site) ::lsiq::util::Failpoints::instance().hit(site)
