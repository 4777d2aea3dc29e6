// Tests for util::run_lanes and the process-wide pool behind it: every
// lane runs exactly once at any lane count, the exception contract (a
// throw inside a lane surfaces in the caller as a normal exception, first
// one wins, never std::terminate, never poisons a later call), nested
// calls that finish without adding threads, and a caller that runs only
// its own call's lanes.
#include "util/thread_pool.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <latch>
#include <mutex>
#include <set>
#include <stdexcept>
#include <thread>
#include <vector>

#include "circuit/generators.hpp"
#include "fault/fault_list.hpp"
#include "fault/fault_sim.hpp"
#include "sim/parallel_sim.hpp"
#include "util/error.hpp"

namespace lsiq::util {
namespace {

TEST(ResolveWorkerCount, ExplicitCountsPassThrough) {
  EXPECT_EQ(resolve_worker_count(1), 1u);
  EXPECT_EQ(resolve_worker_count(2), 2u);
  EXPECT_EQ(resolve_worker_count(17), 17u);
}

TEST(ResolveWorkerCount, ZeroMeansOnePerHardwareThread) {
  const std::size_t resolved = resolve_worker_count(0);
  EXPECT_GE(resolved, 1u);  // never zero, even if hw concurrency is unknown
  // run_lanes follows the same convention: its lane count IS the
  // resolved count, by construction.
  std::atomic<std::size_t> ran{0};
  run_lanes(0, [&](std::size_t) { ++ran; });
  EXPECT_EQ(ran.load(), resolved);
}

TEST(ThreadPool, RunsEveryLaneExactlyOnce) {
  for (const std::size_t lanes : {1u, 2u, 4u, 13u}) {
    std::vector<std::atomic<int>> hits(lanes);
    run_lanes(lanes, [&](std::size_t lane) { ++hits[lane]; });
    for (const auto& h : hits) EXPECT_EQ(h.load(), 1) << lanes << " lanes";
  }
}

TEST(ThreadPool, ZeroMeansHardwareConcurrency) {
  const std::size_t hardware = resolve_worker_count(0);
  std::vector<std::atomic<int>> hits(hardware);
  run_lanes(0, [&](std::size_t lane) {
    ASSERT_LT(lane, hardware);
    ++hits[lane];
  });
  for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(ThreadPool, ExceptionPropagatesToCaller) {
  EXPECT_THROW(run_lanes(3,
                         [](std::size_t lane) {
                           if (lane == 1) {
                             throw std::runtime_error("lane 1 failed");
                           }
                         }),
               std::runtime_error);
  // One lane runs inline, and its throw reaches the caller the same way.
  EXPECT_THROW(
      run_lanes(1, [](std::size_t) { throw std::runtime_error("inline"); }),
      std::runtime_error);
}

TEST(ThreadPool, FirstExceptionWinsWhenEveryLaneThrows) {
  try {
    run_lanes(4, [](std::size_t lane) {
      throw std::runtime_error("lane " + std::to_string(lane));
    });
    FAIL() << "run_lanes must rethrow";
  } catch (const std::runtime_error& e) {
    // Exactly one of the lane messages, intact — not a mangled mixture.
    const std::string what = e.what();
    EXPECT_EQ(what.rfind("lane ", 0), 0u) << what;
  }
}

TEST(ThreadPool, PoolIsReusableAfterAnException) {
  EXPECT_THROW(
      run_lanes(2, [](std::size_t) { throw std::logic_error("boom"); }),
      std::logic_error);
  // The failed call must not leak its exception into the next one.
  std::atomic<int> ran{0};
  EXPECT_NO_THROW(run_lanes(2, [&](std::size_t) { ++ran; }));
  EXPECT_EQ(ran.load(), 2);
  // And a second failure is reported afresh.
  EXPECT_THROW(
      run_lanes(2, [](std::size_t) { throw std::logic_error("again"); }),
      std::logic_error);
}

TEST(ThreadPool, NonThrowingLanesCompleteWhenOneThrows) {
  std::vector<std::atomic<int>> hits(4);
  EXPECT_THROW(run_lanes(4,
                         [&](std::size_t lane) {
                           ++hits[lane];
                           if (lane == 0) throw std::runtime_error("lane 0");
                         }),
               std::runtime_error);
  // run_lanes waits for every lane before rethrowing, so all lanes ran.
  for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(ThreadPool, ThrowFromGradingLanePropagates) {
  // The PPSFP-MT shape: each lane owns a Propagator and grades faults.
  // Calling detect_word without begin_block violates the propagator's
  // contract; the resulting ContractViolation must travel from whichever
  // thread runs the lane to the caller instead of terminating the
  // process.
  const circuit::Circuit c = circuit::make_c17();
  const fault::FaultList faults = fault::FaultList::full_universe(c);
  auto compiled = std::make_shared<const circuit::CompiledCircuit>(c);

  constexpr std::size_t kLanes = 2;
  std::vector<fault::Propagator> propagators;
  propagators.reserve(kLanes);
  for (std::size_t t = 0; t < kLanes; ++t) {
    propagators.emplace_back(compiled);
  }
  const std::vector<std::uint64_t> good(compiled->node_count(), 0);
  EXPECT_THROW(run_lanes(kLanes,
                         [&](std::size_t lane) {
                           // Deliberately skip begin_block: stale-sync
                           // contract.
                           (void)propagators[lane].detect_word(
                               faults.representatives().front(), good);
                         }),
               ContractViolation);
}

TEST(ThreadPool, NestedCallsFinishOnAtMostTheHardwareThreads) {
  // The batch shape: outer lanes each grade on more lanes than the
  // hardware has. The calls must finish (a caller can run all of its own
  // lanes), every inner lane must run once, and no more threads than the
  // hardware has may ever run a lane.
  const std::size_t hardware = resolve_worker_count(0);
  const std::size_t outer = hardware + 1;
  const std::size_t inner = hardware + 3;
  std::vector<std::atomic<int>> hits(outer * inner);
  std::mutex mutex;
  std::set<std::thread::id> threads;
  const auto note_thread = [&] {
    const std::lock_guard<std::mutex> lock(mutex);
    threads.insert(std::this_thread::get_id());
  };
  run_lanes(outer, [&](std::size_t o) {
    note_thread();
    run_lanes(inner, [&](std::size_t i) {
      note_thread();
      ++hits[o * inner + i];
      // Long enough that idle workers get a chance to help.
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    });
  });
  for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
  EXPECT_LE(threads.size(), hardware);
}

TEST(ThreadPool, CallerRunsOnlyItsOwnLanes) {
  // Two callers from outside the pool run at once. A caller's thread may
  // carry a deadline or cancel scope of its own, so no lane of one call
  // may ever run on the other caller's thread. Both threads stay alive
  // until both calls are done, so their ids cannot be reused.
  constexpr std::size_t kLanes = 16;
  std::latch started(2);
  std::latch finished(2);
  std::thread::id caller[2];
  std::vector<std::thread::id> ran[2] = {
      std::vector<std::thread::id>(kLanes),
      std::vector<std::thread::id>(kLanes)};
  const auto call = [&](int who) {
    caller[who] = std::this_thread::get_id();
    started.arrive_and_wait();
    run_lanes(kLanes, [&](std::size_t lane) {
      ran[who][lane] = std::this_thread::get_id();
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    });
    finished.arrive_and_wait();
  };
  std::thread first(call, 0);
  std::thread second(call, 1);
  first.join();
  second.join();
  for (std::size_t lane = 0; lane < kLanes; ++lane) {
    EXPECT_NE(ran[0][lane], caller[1]) << "lane " << lane;
    EXPECT_NE(ran[1][lane], caller[0]) << "lane " << lane;
  }
}

}  // namespace
}  // namespace lsiq::util
