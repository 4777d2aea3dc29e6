// The one PPSFP block driver (PPSFP: parallel-pattern single-fault
// propagation). Every block-by-block grade of a range of collapsed fault
// classes runs through drive_blocks, and the graders differ only in what
// they record per class:
//
//   * grade_class_range records first detection and drops detected
//     classes;
//   * FaultDictionary::build records each block's word in the class's row;
//   * transition compaction (tpg::reverse_order_compact) records the last
//     detection;
//   * bist::BistSession folds each class's MISR signature difference.
//
// The driver owns everything they share: one good-machine simulation per
// 64-pattern block, the live class list grouped by fanout-free region
// (CompiledCircuit::region_root) in non-increasing root level, the strobe
// masks and the wake skip of a non-full schedule, the transition launch
// window, the per-block deadline and cancel poll, and the lanes. Per
// block and region, each awake class gets its site word (the lanes in
// which its effect reaches the root, Propagator::site_word), and a region
// whose site words are not all 0 gets one stem sweep with its root
// inverted (Propagator::stem_word); a class's detect word is site AND
// stem. Under a non-full schedule every sweep of a block ends at the
// highest level of any point strobed in it, found once per block. Each
// lane owns a Propagator synced to the block and takes a strided share
// of the regions; each block's lanes run in one util::run_lanes call, on
// the calling thread and the process's shared pool.
#pragma once

#include <algorithm>
#include <cstdint>
#include <memory>
#include <vector>

#include "circuit/compiled.hpp"
#include "fault/fault_list.hpp"
#include "fault/fault_sim.hpp"
#include "fault/strobe.hpp"
#include "fault_model/transition.hpp"
#include "sim/parallel_sim.hpp"
#include "sim/pattern.hpp"
#include "util/deadline.hpp"
#include "util/error.hpp"
#include "util/thread_pool.hpp"

namespace lsiq::fault {

/// Per-block strobe lane masks of a schedule, one word per observed point,
/// or nullptr when the schedule is full (or absent) and masking can be
/// skipped entirely.
class ScheduleMasks {
 public:
  ScheduleMasks(const StrobeSchedule* schedule, std::size_t point_count)
      : schedule_(schedule != nullptr && !schedule->is_full() ? schedule
                                                              : nullptr) {
    if (schedule != nullptr) {
      LSIQ_EXPECT(schedule->point_count() == point_count,
                  "strobe schedule must cover every observed point");
    }
    if (schedule_ != nullptr) {
      masks_.resize(point_count);
    }
  }

  /// Masks for one block; nullptr means "everything strobed".
  const std::vector<std::uint64_t>* for_block(std::size_t block) {
    if (schedule_ == nullptr) return nullptr;
    for (std::size_t i = 0; i < masks_.size(); ++i) {
      masks_[i] = schedule_->lane_mask(i, block);
    }
    return &masks_;
  }

 private:
  const StrobeSchedule* schedule_;
  std::vector<std::uint64_t> masks_;
};

/// Defaults of a drive_blocks consumer; a consumer hides what differs and
/// adds
///
///   void visit(std::uint32_t cls, std::size_t block, std::uint64_t word,
///              const std::vector<std::uint64_t>& point_words);
///
/// which a lane calls once per (live class, block) with the class's detect
/// word: strobe-masked, launch-gated for a transition universe, and
/// limited to the block's populated lanes. A class asleep in the block
/// (see fault_sim.hpp) gets word 0 without a sweep. visit() writes only
/// the slots of the class it is handed, so the result bytes do not depend
/// on the lane count or on thread interleaving.
struct BlockConsumer {
  /// Drop a class from the live list after the first block in which its
  /// word is nonzero (fault dropping). The drop fold runs serially, in
  /// live-list order, after the block's lanes.
  static constexpr bool kDrops = false;
  /// Hand visit() the per-point words of the sweep its word came from:
  /// the region root's (see Propagator::stem_word), or a flip-flop D-pin
  /// branch's own capture. They are the class's own at the lanes set in
  /// the word, and meaningless elsewhere. Otherwise visit() sees an empty
  /// vector.
  static constexpr bool kPointWords = false;
  /// Called on the calling thread once per block, before the lanes, with
  /// the block's good-machine values.
  void on_block(std::size_t /*block*/,
                const std::vector<std::uint64_t>& /*good*/) {}
};

/// Drive classes [class_begin, class_end) of `faults` over every block of
/// `patterns` through `consumer`, on util::resolve_worker_count(num_threads)
/// lanes, one util::run_lanes call per block. `schedule`, when given,
/// must cover every observed point; `compiled` must be a non-null
/// compiled view of faults.circuit(). A dropping consumer stops once
/// every class has dropped.
template <class Consumer>
void drive_blocks(const FaultList& faults, const sim::PatternSet& patterns,
                  const StrobeSchedule* schedule,
                  const std::shared_ptr<const circuit::CompiledCircuit>&
                      compiled,
                  std::size_t num_threads, std::size_t class_begin,
                  std::size_t class_end, Consumer& consumer) {
  LSIQ_EXPECT(compiled != nullptr, "drive_blocks: compiled view required");
  const circuit::Circuit& circuit = faults.circuit();
  LSIQ_EXPECT(compiled->node_count() == circuit.gate_count(),
              "drive_blocks: compiled view does not match the circuit");
  LSIQ_EXPECT(patterns.input_count() == circuit.pattern_inputs().size(),
              "drive_blocks: pattern width does not match circuit");
  LSIQ_EXPECT(class_begin <= class_end && class_end <= faults.class_count(),
              "drive_blocks: class range out of bounds");
  const std::vector<circuit::GateId>& observed_points =
      compiled->observed_points();
  ScheduleMasks strobe_masks(schedule, observed_points.size());
  // Once per drive, and only when some point starts late: under full
  // observation every class is awake from pattern 0.
  std::vector<std::size_t> wake;
  if (schedule != nullptr && !schedule->is_full()) {
    wake = wake_patterns(faults, *compiled, *schedule);
  }
  sim::ParallelSimulator good_sim(compiled);
  const bool transition =
      faults.model() == fault_model::FaultModel::kTransition;
  // One launch window, advanced on the calling thread between blocks and
  // read-only inside a block, so the gating each lane applies is a pure
  // function of the block index.
  fault_model::TwoPatternWindow window(
      transition ? compiled->node_count() : 0);

  // Live list in sweep order, compacted in place as classes drop, and cut
  // into runs of one region root each: the whole run reads its stem word
  // off one sweep. Runs come in non-increasing root level, then root id,
  // with ties in class order, and a lane's strided share keeps that order,
  // so each sweep exactly overwrites what the lane's previous one dirtied.
  // Flip-flop D-pin branches have no region (kNoGate) and close the list
  // as one run that needs no sweep.
  const auto& reps = faults.representatives();
  std::vector<circuit::GateId> root(class_end - class_begin);
  for (std::size_t i = 0; i < root.size(); ++i) {
    root[i] = fault_region(*compiled, reps[class_begin + i]);
  }
  const auto root_of = [&](std::uint32_t cls) {
    return root[cls - class_begin];
  };
  std::vector<std::uint32_t> live(class_end - class_begin);
  for (std::size_t i = 0; i < live.size(); ++i) {
    live[i] = static_cast<std::uint32_t>(class_begin + i);
  }
  std::stable_sort(live.begin(), live.end(),
                   [&](std::uint32_t a, std::uint32_t b) {
                     const circuit::GateId ra = root_of(a);
                     const circuit::GateId rb = root_of(b);
                     const std::uint32_t la =
                         ra == circuit::kNoGate ? 0 : compiled->level(ra);
                     const std::uint32_t lb =
                         rb == circuit::kNoGate ? 0 : compiled->level(rb);
                     return la != lb ? la > lb : ra < rb;
                   });
  std::vector<std::uint64_t> words(live.size(), 0);
  // Run r spans live[runs[r], runs[r + 1]).
  std::vector<std::uint32_t> runs;
  const auto cut_runs = [&] {
    runs.clear();
    for (std::size_t i = 0; i < live.size(); ++i) {
      if (i == 0 || root_of(live[i]) != root_of(live[i - 1])) {
        runs.push_back(static_cast<std::uint32_t>(i));
      }
    }
    runs.push_back(static_cast<std::uint32_t>(live.size()));
  };
  cut_runs();

  // Strided runs balance far better than contiguous chunks, whose sweep
  // cost varies with root level.
  const std::size_t lanes = util::resolve_worker_count(num_threads);
  std::vector<Propagator> propagators;
  propagators.reserve(lanes);
  for (std::size_t t = 0; t < lanes; ++t) {
    propagators.emplace_back(compiled);
  }
  std::vector<std::vector<std::uint64_t>> point_words(lanes);

  for (std::size_t b = 0; b < patterns.block_count(); ++b) {
    if (Consumer::kDrops && live.empty()) break;
    // Cooperative watchdog checkpoint on the calling thread, once per
    // 64-pattern block (free when no deadline is active).
    util::poll_deadline();
    good_sim.simulate_block(patterns.block_words(b));
    const std::vector<std::uint64_t>& good = good_sim.values();
    const std::uint64_t mask = patterns.block_mask(b);
    const std::vector<std::uint64_t>* point_masks = strobe_masks.for_block(b);
    // No gate above the highest point strobed in this block feeds a
    // compared point, so every stem sweep of the block ends there.
    std::size_t through_level = circuit::CompiledCircuit::kTopLevel;
    if (point_masks != nullptr) {
      through_level = 0;
      for (std::size_t i = 0; i < observed_points.size(); ++i) {
        if ((*point_masks)[i] != 0) {
          through_level = std::max<std::size_t>(
              through_level, compiled->level(observed_points[i]));
        }
      }
    }
    const std::size_t block_end = (b + 1) * 64;
    consumer.on_block(b, good);
    const auto awake = [&](std::uint32_t cls) {
      return wake.empty() || wake[cls] < block_end;
    };

    const std::size_t live_count = live.size();
    const std::size_t run_count = runs.size() - 1;
    const auto lane_body = [&](std::size_t lane) {
      if (lane >= run_count) return;
      Propagator& propagator = propagators[lane];
      propagator.begin_block(good);
      std::vector<std::uint64_t>* points =
          Consumer::kPointWords ? &point_words[lane] : nullptr;
      for (std::size_t r = lane; r < run_count; r += lanes) {
        const std::size_t begin = runs[r];
        const std::size_t end = runs[r + 1];
        const circuit::GateId run_root = root_of(live[begin]);
        if (run_root == circuit::kNoGate) {
          // Each D-pin branch resolves at its own scan capture.
          for (std::size_t i = begin; i < end; ++i) {
            const std::uint32_t cls = live[i];
            std::uint64_t word = 0;
            if (awake(cls)) {
              word = (transition ? propagator.detect_word_transition(
                                       reps[cls], good, window, point_masks,
                                       points)
                                 : propagator.detect_word_resim(
                                       reps[cls], good, point_masks,
                                       points)) &
                     mask;
            }
            words[i] = word;
            consumer.visit(cls, b, word, point_words[lane]);
          }
          continue;
        }
        std::uint64_t reached = 0;
        for (std::size_t i = begin; i < end; ++i) {
          const std::uint32_t cls = live[i];
          std::uint64_t word = 0;
          if (awake(cls)) {
            const Fault& rep = reps[cls];
            word = propagator.site_word(rep, good) & mask;
            if (transition && word != 0) {
              word &= window.launch_mask(fault_line(*compiled, rep),
                                         rep.stuck_at_one, good.data());
            }
          }
          words[i] = word;
          reached |= word;
        }
        const std::uint64_t observed =
            reached == 0
                ? 0
                : propagator.stem_word(run_root, good, point_masks, points,
                                       through_level);
        for (std::size_t i = begin; i < end; ++i) {
          words[i] &= observed;
          consumer.visit(live[i], b, words[i], point_words[lane]);
        }
      }
    };
    util::run_lanes(lanes, lane_body);

    if (Consumer::kDrops) {
      std::size_t kept = 0;
      for (std::size_t i = 0; i < live_count; ++i) {
        if (words[i] == 0) live[kept++] = live[i];
      }
      if (kept != live_count) {
        live.resize(kept);
        cut_runs();
      }
    }
    if (transition) window.advance(good);
  }
}

}  // namespace lsiq::fault
