// The one worker pool of the process, and the lanes that run on it.
//
// Data-parallel loops here are "lane" shaped: run_lanes(n, fn) executes
// fn(lane) once for every lane in [0, n) and returns when all n have run.
// Partitioning work across lanes is the caller's business — the block
// driver gives each lane a strided share of the regions of a block (and
// its own propagator, so lanes never share mutable state), the batch
// runner's lanes claim spec indices from a shared counter.
//
// A lane is a share of the caller's work, not a thread. Behind every call
// stands one process-wide pool of hardware threads - 1 workers, started
// the first time a call asks for more than one lane:
//
//   * The calling thread runs the unclaimed lanes of its own call. It
//     never takes another call's lanes, so whatever the caller installed
//     on its thread (a per-spec util::DeadlineScope, a service job's
//     util::CancelScope) never rides into someone else's work.
//   * Any idle worker takes any unclaimed lane, oldest call first.
//   * A lane may itself call run_lanes (a batch lane grading its spec on
//     `threads` lanes). The nested call cannot deadlock, since its caller
//     can run every lane of it alone, and it adds no threads.
//
// So lanes run on at most the pool's workers plus the threads that call
// run_lanes from outside it: resolve_worker_count(0) threads in a batch
// or a one-shot run, whose one outside caller is the main thread, and a
// daemon's job lanes plus the workers. Results never depend on which
// thread runs which lane.
#pragma once

#include <cstddef>
#include <functional>

namespace lsiq::util {

/// The one place the shared worker-count convention is resolved:
/// 0 = one worker per hardware thread (at least 1), n = exactly n workers.
/// Every knob that documents that convention (run_lanes,
/// fault::simulate_ppsfp_mt, bist::BistConfig::num_threads, the spec's
/// one lane knob flow::EngineSpec::num_threads, `threads` in a spec file,
/// and the batch and daemon `--jobs`) resolves through this function, so
/// "0 means all cores" cannot drift between subsystems.
[[nodiscard]] std::size_t resolve_worker_count(std::size_t requested) noexcept;

/// Run fn(lane) once for every lane in [0, resolve_worker_count(lanes))
/// and return when every lane has finished. One lane runs inline on the
/// calling thread; more share it with the process-wide pool (see the file
/// comment). When lanes throw, every lane still runs, and the first
/// exception is rethrown here.
void run_lanes(std::size_t lanes, const std::function<void(std::size_t)>& fn);

}  // namespace lsiq::util
