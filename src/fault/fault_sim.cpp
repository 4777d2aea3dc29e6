#include "fault/fault_sim.hpp"

#include <algorithm>
#include <bit>
#include <cassert>

#include "fault/block_driver.hpp"
#include "sim/parallel_sim.hpp"
#include "util/deadline.hpp"
#include "util/error.hpp"

namespace lsiq::fault {

using circuit::Circuit;
using circuit::CompiledCircuit;
using circuit::Gate;
using circuit::GateId;
using circuit::GateType;

// ---- Propagator ----
//
// Both kernels share the work_ scratch: a copy of the current block's
// good-machine words (begin_block), locally overwritten with the faulty
// machine while one fault is in flight. Keeping the scratch clean between
// calls is what lets gate evaluation read a single value array with no
// per-operand bookkeeping. All topology reads go through the compiled CSR
// arrays.

namespace {

/// Validate a shared compiled view before member initializers touch it.
std::shared_ptr<const CompiledCircuit> require_compiled(
    std::shared_ptr<const CompiledCircuit> compiled, const char* who) {
  if (compiled == nullptr) {
    throw ContractViolation(std::string(who) +
                            " requires a compiled circuit");
  }
  return compiled;
}

}  // namespace

Propagator::Propagator(const Circuit& circuit)
    : Propagator(std::make_shared<const CompiledCircuit>(circuit)) {}

Propagator::Propagator(std::shared_ptr<const CompiledCircuit> compiled)
    : compiled_(require_compiled(std::move(compiled), "Propagator")),
      queued_(compiled_->node_count(), 0),
      buckets_(compiled_->depth() + 1),
      work_(compiled_->node_count(), 0) {
  touched_.reserve(compiled_->node_count());
}

void Propagator::schedule_fanout(GateId id) {
  const CompiledCircuit& c = *compiled_;
  const GateId* readers = c.fanout(id);
  const std::size_t count = c.fanout_count(id);
  for (std::size_t i = 0; i < count; ++i) {
    const GateId reader = readers[i];
    if (c.type(reader) == GateType::kDff) continue;  // capture boundary
    if (queued_[reader] != 0) continue;
    queued_[reader] = 1;
    const std::size_t level = c.level(reader);
    buckets_[level].push_back(reader);
    max_level_ = std::max(max_level_, level);
  }
}

void Propagator::begin_block(const std::vector<std::uint64_t>& good) {
  const std::size_t n = compiled_->node_count();
  LSIQ_EXPECT(good.size() == n || good.size() == n + 1,
              "begin_block: good values must cover every gate");
  // A ParallelSimulator buffer carries its block epoch in the trailing
  // word; remember it so the detect paths can catch a buffer that was
  // re-simulated after this sync. Hand-built n-word buffers have no
  // stamp and opt out of the check (stamp_ = 0 is never a real epoch).
  stamp_ = good.size() == n + 1 ? good[n] : 0;
  work_.assign(good.begin(), good.begin() + static_cast<std::ptrdiff_t>(n));
  dirty_level_ = compiled_->depth() + 1;  // nothing written yet
  block_synced_ = true;
}

void Propagator::check_sync(const std::vector<std::uint64_t>& good,
                            const char* who) const {
  LSIQ_EXPECT(block_synced_, std::string(who) +
                                 ": begin_block must follow every new "
                                 "good-machine block");
  const std::size_t n = compiled_->node_count();
  if (stamp_ != 0 && good.size() == n + 1) {
    assert(good[n] == stamp_ &&
           "stale begin_block sync: buffer re-simulated since");
    LSIQ_EXPECT(good[n] == stamp_,
                std::string(who) +
                    ": stale sync — the good-value buffer was re-simulated "
                    "after begin_block; call begin_block again for the new "
                    "block");
  }
}

/// Restore the good view over the resimulation dirty suffix, so the wave
/// kernel can interleave with detect_word_resim on one scratch.
void Propagator::sweep_clean(const std::uint64_t* good) {
  const CompiledCircuit& c = *compiled_;
  if (dirty_level_ > c.depth()) return;
  const auto& order = c.eval_order();
  for (std::size_t i = c.eval_level_begin(dirty_level_); i < order.size();
       ++i) {
    work_[order[i]] = good[order[i]];
  }
  dirty_level_ = c.depth() + 1;
}

std::uint64_t Propagator::capture_word(
    const Fault& fault, const std::uint64_t* good,
    const std::vector<std::uint64_t>* point_masks) const {
  // The flip-flop's pseudo primary output index is kept per gate by the
  // compiled view (no flip_flops() scan).
  const CompiledCircuit& c = *compiled_;
  const std::uint32_t point = c.point_index(fault.gate);
  LSIQ_EXPECT(point != CompiledCircuit::kNoPoint,
              "capture_word: DFF gate has no scan-capture point");
  const std::uint64_t sv_word = fault.stuck_at_one ? ~0ULL : 0ULL;
  const std::uint64_t diff = sv_word ^ good[c.fanin(fault.gate)[0]];
  return point_masks == nullptr ? diff : diff & (*point_masks)[point];
}

std::uint64_t Propagator::site_value(const Fault& fault,
                                     const std::uint64_t* good) const {
  const CompiledCircuit& c = *compiled_;
  const std::uint64_t sv_word = fault.stuck_at_one ? ~0ULL : 0ULL;
  if (is_stem(fault)) return sv_word;
  LSIQ_EXPECT(fault.pin >= 0 &&
                  static_cast<std::size_t>(fault.pin) <
                      c.fanin_count(fault.gate),
              "site_value: fault pin out of range");
  return c.eval_word_with_pin(fault.gate, good, fault.pin, sv_word);
}

std::uint64_t Propagator::detect_word(
    const Fault& fault, const std::vector<std::uint64_t>& good_values,
    const std::vector<std::uint64_t>* point_masks) {
  check_sync(good_values, "detect_word");
  const CompiledCircuit& c = *compiled_;
  const std::uint64_t* good = good_values.data();
  if (fault_region(c, fault) == circuit::kNoGate) {
    return capture_word(fault, good, point_masks);
  }
  const GateId site = fault.gate;
  const std::uint64_t faulty_site = site_value(fault, good);
  if ((faulty_site ^ good[site]) == 0) {
    return 0;  // fault effect never appears at the site in this block
  }

  sweep_clean(good);
  std::uint64_t* work = work_.data();
  work[site] = faulty_site;
  touched_.push_back(site);
  const std::size_t site_level = c.level(site);
  max_level_ = site_level;
  schedule_fanout(site);

  // Level-ordered wave; every scheduled gate has level > its scheduler.
  // Untouched operands read their good value straight from work, so
  // evaluation needs no faulty/good merge.
  for (std::size_t level = site_level; level <= max_level_; ++level) {
    auto& bucket = buckets_[level];
    for (std::size_t i = 0; i < bucket.size(); ++i) {
      const GateId id = bucket[i];
      queued_[id] = 0;
      const std::uint64_t value = c.eval_word(id, work);
      if (value != work[id]) {
        // A gate is evaluated at most once per wave, so work[id] still
        // holds the good value and the difference is a real fault effect.
        work[id] = value;
        touched_.push_back(id);
        schedule_fanout(id);
      }
    }
    bucket.clear();
  }

  // Observation: untouched points satisfy work == good, contributing 0.
  std::uint64_t detect = 0;
  const auto& points = c.observed_points();
  if (point_masks == nullptr) {
    for (std::size_t i = 0; i < points.size(); ++i) {
      detect |= work[points[i]] ^ good[points[i]];
    }
  } else {
    for (std::size_t i = 0; i < points.size(); ++i) {
      detect |= (work[points[i]] ^ good[points[i]]) & (*point_masks)[i];
    }
  }

  // Restore the good view for the next fault.
  for (const GateId id : touched_) {
    work[id] = good[id];
  }
  touched_.clear();
  return detect;
}

std::uint64_t Propagator::site_word(
    const Fault& fault, const std::vector<std::uint64_t>& good_values) const {
  const CompiledCircuit& c = *compiled_;
  const std::uint64_t* good = good_values.data();
  GateId gate = fault.gate;
  std::uint64_t diff = site_value(fault, good) ^ good[gate];
  for (std::int32_t pin = c.reader_pin(gate); diff != 0 && pin >= 0;
       pin = c.reader_pin(gate)) {
    const GateId reader = c.fanout(gate)[0];
    diff = c.eval_word_with_pin(reader, good, pin, good[gate] ^ diff) ^
           good[reader];
    gate = reader;
  }
  return diff;
}

std::uint64_t Propagator::stem_word(
    GateId root, const std::vector<std::uint64_t>& good_values,
    const std::vector<std::uint64_t>* point_masks,
    std::vector<std::uint64_t>* point_words, std::size_t through_level) {
  check_sync(good_values, "stem_word");
  const CompiledCircuit& c = *compiled_;
  const std::uint64_t* good = good_values.data();
  const auto& points = c.observed_points();

  // One flat sweep over the level-sorted suffix recomputes the machine
  // with the root inverted: gates off the root's cone re-derive their good
  // values, gates on it their changed ones. Starting at min(root level,
  // dirty level) also overwrites everything the previous sweep left
  // behind, which is a no-op start when roots arrive sorted by
  // non-increasing level. Every gate a sweep leaves stale sits at or above
  // the root's level, so the next sweep or sweep_clean reaches it.
  const std::size_t root_level = c.level(root);
  const std::size_t start_level = std::min(root_level, dirty_level_);
  std::uint64_t* work = work_.data();
  work[root] = ~good[root];
  c.eval_suffix(start_level, work, root, through_level);
  dirty_level_ = root_level;

  // Observation: untouched points satisfy work == good, so the diff is 0
  // without any reached-set bookkeeping.
  std::uint64_t detect = 0;
  if (point_masks == nullptr) {
    for (std::size_t i = 0; i < points.size(); ++i) {
      detect |= work[points[i]] ^ good[points[i]];
    }
  } else {
    for (std::size_t i = 0; i < points.size(); ++i) {
      detect |= (work[points[i]] ^ good[points[i]]) & (*point_masks)[i];
    }
  }
  if (point_words != nullptr) {
    point_words->resize(points.size());
    for (std::size_t i = 0; i < points.size(); ++i) {
      (*point_words)[i] = (work[points[i]] ^ good[points[i]]) &
                          (point_masks == nullptr ? ~0ULL : (*point_masks)[i]);
    }
  }
  // A source root (input or flip-flop) is never re-evaluated by any later
  // sweep, so its inverted value must be cleared by hand, after
  // observation has seen it; an evaluable root is overwritten once the
  // next sweep reaches it.
  const GateType type = c.type(root);
  if (type == GateType::kInput || type == GateType::kDff) {
    work[root] = good[root];
  }
  return detect;
}

std::uint64_t Propagator::detect_word_resim(
    const Fault& fault, const std::vector<std::uint64_t>& good_values,
    const std::vector<std::uint64_t>* point_masks,
    std::vector<std::uint64_t>* point_words) {
  check_sync(good_values, "detect_word_resim");
  const CompiledCircuit& c = *compiled_;
  const GateId root = fault_region(c, fault);
  if (root == circuit::kNoGate) {
    // The whole difference lands on the flip-flop's pseudo primary output.
    const std::uint64_t word =
        capture_word(fault, good_values.data(), point_masks);
    if (point_words != nullptr) {
      point_words->assign(c.observed_points().size(), 0);
      (*point_words)[c.point_index(fault.gate)] = word;
    }
    return word;
  }
  const std::uint64_t site = site_word(fault, good_values);
  if (site == 0) {
    if (point_words != nullptr) {
      point_words->assign(c.observed_points().size(), 0);
    }
    return 0;
  }
  const std::uint64_t detect =
      site & stem_word(root, good_values, point_masks, point_words);
  if (point_words != nullptr) {
    for (std::uint64_t& word : *point_words) word &= site;
  }
  return detect;
}

std::uint64_t Propagator::detect_word_transition(
    const Fault& fault, const std::vector<std::uint64_t>& good,
    const fault_model::TwoPatternWindow& window,
    const std::vector<std::uint64_t>* point_masks,
    std::vector<std::uint64_t>* point_words) {
  check_sync(good, "detect_word_transition");
  const std::uint64_t launch = window.launch_mask(
      fault_line(*compiled_, fault), fault.stuck_at_one, good.data());
  if (launch == 0) return 0;  // no lane launched: capture cannot matter
  return detect_word_resim(fault, good, point_masks, point_words) & launch;
}

namespace {

/// Full faulty-machine simulation of one block (every gate re-evaluated).
/// Independent of the event-driven path on purpose: it is the oracle the
/// fast engines are validated against, so it deliberately walks the plain
/// Circuit container rather than the compiled view.
std::vector<std::uint64_t> simulate_faulty_block_full(
    const Circuit& circuit, const Fault& fault,
    const std::vector<std::uint64_t>& input_words) {
  const std::uint64_t sv_word = fault.stuck_at_one ? ~0ULL : 0ULL;
  std::vector<std::uint64_t> values(circuit.gate_count(), 0);

  const auto& inputs = circuit.pattern_inputs();
  for (std::size_t i = 0; i < inputs.size(); ++i) {
    values[inputs[i]] = input_words[i];
  }
  if (is_stem(fault)) {
    const GateType t = circuit.gate(fault.gate).type;
    if (t == GateType::kInput || t == GateType::kDff) {
      values[fault.gate] = sv_word;
    }
  }
  for (const GateId id : circuit.topological_order()) {
    const Gate& g = circuit.gate(id);
    if (g.type == GateType::kInput || g.type == GateType::kDff) continue;
    if (!is_stem(fault) && id == fault.gate &&
        g.type != GateType::kDff) {
      values[id] = sim::eval_gate_word_with_pin(circuit, id, values,
                                                fault.pin, sv_word);
    } else {
      values[id] = sim::eval_gate_word(circuit, id, values);
    }
    if (is_stem(fault) && id == fault.gate) {
      values[id] = sv_word;
    }
  }
  return values;
}

std::uint64_t observe_difference(const Circuit& circuit, const Fault& fault,
                                 const std::vector<std::uint64_t>& faulty,
                                 const std::vector<std::uint64_t>& good,
                                 const std::vector<std::uint64_t>*
                                     point_masks) {
  const std::uint64_t sv_word = fault.stuck_at_one ? ~0ULL : 0ULL;
  const auto& points = circuit.observed_points();
  const std::size_t num_po = circuit.primary_outputs().size();
  const bool dff_pin_fault =
      !is_stem(fault) && circuit.gate(fault.gate).type == GateType::kDff;

  std::uint64_t detect = 0;
  for (std::size_t i = 0; i < points.size(); ++i) {
    std::uint64_t faulty_value = faulty[points[i]];
    if (dff_pin_fault && i >= num_po &&
        circuit.flip_flops()[i - num_po] == fault.gate) {
      faulty_value = sv_word;  // the faulted scan capture sees the stuck value
    }
    std::uint64_t diff = faulty_value ^ good[points[i]];
    if (point_masks != nullptr) {
      diff &= (*point_masks)[i];
    }
    detect |= diff;
  }
  return detect;
}

}  // namespace

void FaultSimResult::finalize(const FaultList& faults) {
  covered_faults = 0;
  detected_classes = 0;
  for (std::size_t c = 0; c < first_detection.size(); ++c) {
    if (first_detection[c] >= 0) {
      ++detected_classes;
      covered_faults += faults.class_size(c);
    }
  }
  coverage = static_cast<double>(covered_faults) /
             static_cast<double>(faults.fault_count());
}

CoverageCurve FaultSimResult::curve(const FaultList& faults,
                                    std::size_t pattern_count) const {
  std::vector<std::size_t> weights(faults.class_count());
  for (std::size_t c = 0; c < weights.size(); ++c) {
    weights[c] = faults.class_size(c);
  }
  return CoverageCurve::from_first_detection(
      first_detection, weights, faults.fault_count(), pattern_count);
}

std::vector<std::size_t> wake_patterns(const FaultList& faults,
                                       const CompiledCircuit& compiled,
                                       const StrobeSchedule& schedule) {
  const auto& points = compiled.observed_points();
  LSIQ_EXPECT(schedule.point_count() == points.size(),
              "strobe schedule must cover every observed point");
  LSIQ_EXPECT(compiled.node_count() == faults.circuit().gate_count(),
              "wake_patterns: compiled view does not match the circuit");

  // Per gate: the earliest start over the points its value can reach.
  // Every point stays strobed once started, so this one scalar is when
  // the gate's cone first becomes visible to the tester.
  std::vector<std::size_t> gate_wake(compiled.node_count(), kNeverWakes);
  for (std::size_t i = 0; i < points.size(); ++i) {
    gate_wake[points[i]] = std::min(gate_wake[points[i]], schedule.start(i));
  }
  // Readers sit at strictly higher levels, so a reverse pass over the
  // level-sorted evaluation order, then the sources, sees every reader
  // final before the gates feeding it. A flip-flop reader is a capture
  // boundary: what it captures is observed at the gate on its D pin,
  // which is itself a point and seeded above.
  const auto fold_readers = [&](GateId id) {
    const GateId* readers = compiled.fanout(id);
    for (std::size_t i = 0; i < compiled.fanout_count(id); ++i) {
      if (compiled.type(readers[i]) == GateType::kDff) continue;
      gate_wake[id] = std::min(gate_wake[id], gate_wake[readers[i]]);
    }
  };
  const auto& order = compiled.eval_order();
  for (auto it = order.rbegin(); it != order.rend(); ++it) {
    fold_readers(*it);
  }
  for (GateId id = 0; id < compiled.node_count(); ++id) {
    const GateType type = compiled.type(id);
    if (type == GateType::kInput || type == GateType::kDff) fold_readers(id);
  }

  // A fault first shows at its gate's output, except a flip-flop D-pin
  // branch, which only its own scan capture sees (capture_word).
  std::vector<std::size_t> wake(faults.class_count());
  for (std::size_t c = 0; c < wake.size(); ++c) {
    const Fault& rep = faults.representatives()[c];
    wake[c] = !is_stem(rep) && compiled.type(rep.gate) == GateType::kDff
                  ? schedule.start(compiled.point_index(rep.gate))
                  : gate_wake[rep.gate];
  }
  return wake;
}

FaultSimResult simulate_serial(const FaultList& faults,
                               const sim::PatternSet& patterns,
                               const StrobeSchedule* schedule) {
  const Circuit& circuit = faults.circuit();
  LSIQ_EXPECT(patterns.input_count() == circuit.pattern_inputs().size(),
              "simulate_serial: pattern width does not match circuit");
  ScheduleMasks strobe_masks(schedule, circuit.observed_points().size());
  const bool transition =
      faults.model() == fault_model::FaultModel::kTransition;

  // Good-machine simulation, one pass, values retained per block.
  sim::ParallelSimulator good_sim(circuit);
  std::vector<std::vector<std::uint64_t>> good_blocks;
  good_blocks.reserve(patterns.block_count());
  for (std::size_t b = 0; b < patterns.block_count(); ++b) {
    good_sim.simulate_block(patterns.block_words(b));
    good_blocks.push_back(good_sim.values());
  }

  // Reference launch word for a transition fault: bit p = the fault line's
  // good value at pattern p-1, matched against the pre-transition value.
  // Kept independent of fault_model::TwoPatternWindow on purpose — the
  // serial engine is the oracle the fast engines' window bookkeeping is
  // cross-checked against.
  const auto launch_word = [&](const Fault& fault, std::size_t b) {
    const GateId line = fault_line(circuit, fault);
    const std::uint64_t previous =
        (good_blocks[b][line] << 1) |
        (b > 0 ? good_blocks[b - 1][line] >> 63 : 0);
    std::uint64_t launch = fault.stuck_at_one ? previous : ~previous;
    if (b == 0) launch &= ~1ULL;  // the first pattern has no launch
    return launch;
  };

  FaultSimResult result;
  result.first_detection.assign(faults.class_count(), -1);
  for (std::size_t c = 0; c < faults.class_count(); ++c) {
    // Cooperative watchdog checkpoint (free when no deadline is active).
    util::poll_deadline();
    const Fault& fault = faults.representatives()[c];
    for (std::size_t b = 0; b < patterns.block_count(); ++b) {
      const std::vector<std::uint64_t> faulty = simulate_faulty_block_full(
          circuit, fault, patterns.block_words(b));
      std::uint64_t detect =
          observe_difference(circuit, fault, faulty, good_blocks[b],
                             strobe_masks.for_block(b)) &
          patterns.block_mask(b);
      if (transition) detect &= launch_word(fault, b);
      if (detect != 0) {
        result.first_detection[c] =
            static_cast<std::int64_t>(b * 64 + std::countr_zero(detect));
        break;
      }
    }
  }
  result.finalize(faults);
  return result;
}

std::uint64_t detect_word_for_fault(
    const Circuit& circuit, const Fault& fault,
    const std::vector<std::uint64_t>& good_values,
    const std::vector<std::uint64_t>* point_masks) {
  Propagator propagator(circuit);
  propagator.begin_block(good_values);
  return propagator.detect_word(fault, good_values, point_masks);
}

namespace {

/// First-detection grading: record the first detecting pattern and drop
/// the class.
struct FirstDetection : BlockConsumer {
  static constexpr bool kDrops = true;
  std::vector<std::int64_t>& first_detection;

  void visit(std::uint32_t cls, std::size_t block, std::uint64_t word,
             const std::vector<std::uint64_t>& /*point_words*/) {
    if (word != 0) {
      first_detection[cls] =
          static_cast<std::int64_t>(block * 64 + std::countr_zero(word));
    }
  }
};

}  // namespace

void grade_class_range(
    const FaultList& faults, const sim::PatternSet& patterns,
    const StrobeSchedule* schedule,
    const std::shared_ptr<const CompiledCircuit>& compiled,
    std::size_t num_threads, std::size_t class_begin, std::size_t class_end,
    std::vector<std::int64_t>& first_detection) {
  LSIQ_EXPECT(first_detection.size() == faults.class_count(),
              "grade_class_range: first_detection must cover every class");
  FirstDetection consumer{{}, first_detection};
  drive_blocks(faults, patterns, schedule, compiled, num_threads, class_begin,
               class_end, consumer);
}

namespace {

/// Whole-range grade behind simulate_ppsfp and simulate_ppsfp_mt. One
/// compiled view serves the good-machine simulator and every propagator;
/// a caller-supplied view skips recompilation entirely.
FaultSimResult grade_all(const FaultList& faults,
                         const sim::PatternSet& patterns,
                         const StrobeSchedule* schedule,
                         std::shared_ptr<const CompiledCircuit> compiled,
                         std::size_t num_threads) {
  if (compiled == nullptr) {
    compiled = std::make_shared<const CompiledCircuit>(faults.circuit());
  }
  FaultSimResult result;
  result.first_detection.assign(faults.class_count(), -1);
  grade_class_range(faults, patterns, schedule, compiled, num_threads, 0,
                    faults.class_count(), result.first_detection);
  result.finalize(faults);
  return result;
}

}  // namespace

FaultSimResult simulate_ppsfp(
    const FaultList& faults, const sim::PatternSet& patterns,
    const StrobeSchedule* schedule,
    std::shared_ptr<const CompiledCircuit> compiled, std::size_t width) {
  LSIQ_EXPECT(width == 1, "simulate_ppsfp: width must be 1");
  return grade_all(faults, patterns, schedule, std::move(compiled), 1);
}

FaultSimResult simulate_ppsfp_mt(
    const FaultList& faults, const sim::PatternSet& patterns,
    const StrobeSchedule* schedule, std::size_t num_threads,
    std::shared_ptr<const CompiledCircuit> compiled) {
  return grade_all(faults, patterns, schedule, std::move(compiled),
                   num_threads);
}

}  // namespace lsiq::fault
