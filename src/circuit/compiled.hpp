// Flat, cache-friendly compilation of a finalized Circuit.
//
// The Circuit container is built for construction and inspection: each Gate
// owns its name and heap-allocated fanin/fanout vectors, so hot simulation
// loops that walk it chase a pointer per pin and a bounds-checked accessor
// per gate. CompiledCircuit freezes the same topology into CSR arrays —
// one contiguous pin array with per-gate offsets, packed type/level
// records, the evaluation order with sources stripped, the observed-point
// index of every gate, and its fanout-free region — which is what the
// parallel-pattern simulator and the PPSFP propagator index in their inner
// loops.
//
// Gate ids are unchanged: arrays are indexed by GateId exactly as Circuit
// is, so values buffers move between the two representations freely.
#pragma once

#include <cstdint>
#include <vector>

#include "circuit/netlist.hpp"

namespace lsiq::circuit {

class CompiledCircuit {
 public:
  /// point_index() value for gates that are not observed.
  static constexpr std::uint32_t kNoPoint = 0xffffffffu;

  /// One step of the evaluation program: dest = op(values[a], values[b]).
  /// For single-operand and generic steps, `b` mirrors `a`.
  struct EvalStep {
    GateId a;
    GateId b;
    GateId dest;
  };

  /// Operation of a run of consecutive EvalSteps. The two-input kinds are
  /// the overwhelming majority in practice and evaluate in tight
  /// dispatch-free loops; everything else (constants, wide gates) takes
  /// the generic per-gate path.
  enum class RunKind : std::uint8_t {
    kAnd2, kNand2, kOr2, kNor2, kXor2, kXnor2, kBuf1, kNot1, kGeneric,
  };

  /// A maximal run of same-kind steps within one level.
  struct EvalRun {
    std::uint32_t begin;  ///< first step index
    std::uint32_t end;    ///< one past the last step index
    RunKind kind;
  };

  /// Compile a finalized circuit. The Circuit must outlive the compiled
  /// view (gate names and construction metadata are not copied).
  explicit CompiledCircuit(const Circuit& circuit);

  [[nodiscard]] std::size_t node_count() const noexcept {
    return type_.size();
  }
  /// Maximum level over all gates.
  [[nodiscard]] std::size_t depth() const noexcept { return depth_; }

  [[nodiscard]] GateType type(GateId id) const noexcept {
    return static_cast<GateType>(type_[id]);
  }
  [[nodiscard]] std::uint32_t level(GateId id) const noexcept {
    return level_[id];
  }

  // ---- CSR topology ----

  [[nodiscard]] std::size_t fanin_count(GateId id) const noexcept {
    return fanin_offset_[id + 1] - fanin_offset_[id];
  }
  /// Pointer to the first fanin of `id` inside the shared pin array.
  [[nodiscard]] const GateId* fanin(GateId id) const noexcept {
    return fanin_.data() + fanin_offset_[id];
  }

  [[nodiscard]] std::size_t fanout_count(GateId id) const noexcept {
    return fanout_offset_[id + 1] - fanout_offset_[id];
  }
  [[nodiscard]] const GateId* fanout(GateId id) const noexcept {
    return fanout_.data() + fanout_offset_[id];
  }

  // ---- precomputed views ----

  /// Topological order restricted to gates the simulator evaluates:
  /// everything except kInput and kDff sources (constants included).
  /// Sorted by level, so the slice from eval_level_begin(L) to the end is
  /// exactly the gates at level >= L — the suffix the resimulation fault
  /// kernel sweeps.
  [[nodiscard]] const std::vector<GateId>& eval_order() const noexcept {
    return eval_order_;
  }

  /// Index into eval_order() of the first gate at level >= `level`
  /// (eval_order().size() when no such gate exists).
  [[nodiscard]] std::size_t eval_level_begin(std::size_t level) const noexcept {
    return level > depth_ ? eval_order_.size() : eval_level_begin_[level];
  }

  /// through_level value of eval_suffix that sweeps to the top level.
  static constexpr std::size_t kTopLevel = static_cast<std::size_t>(-1);

  /// Evaluate every gate at level >= `from_level` and <= `through_level`
  /// into `values` (dense, node_count() words) through the run-structured
  /// program — the hot levelized sweep shared by good-machine simulation
  /// (from_level = 0) and suffix resimulation. `skip`, when not kNoGate,
  /// names one gate whose value is left untouched (an injected fault
  /// site). By default the sweep runs to the top of the circuit; a lower
  /// `through_level` leaves every gate above it as it was, which suits a
  /// caller that reads no gate above that level.
  void eval_suffix(std::size_t from_level, std::uint64_t* values,
                   GateId skip = kNoGate,
                   std::size_t through_level = kTopLevel) const;
  [[nodiscard]] const std::vector<GateId>& pattern_inputs() const noexcept {
    return pattern_inputs_;
  }
  [[nodiscard]] const std::vector<GateId>& observed_points() const noexcept {
    return observed_points_;
  }

  /// Observed-point index of a gate, kNoPoint when unobserved. For a kDff
  /// gate this is the index of its pseudo primary output (the scan capture
  /// of its D input) — the O(1) replacement for scanning flip_flops().
  /// When a gate drives several observed points, the first index is
  /// returned; detection logic only needs *an* index with the right mask
  /// for DFF captures, and iterates the full point list otherwise.
  [[nodiscard]] std::uint32_t point_index(GateId id) const noexcept {
    return point_index_of_[id];
  }

  // ---- fanout-free regions ----
  //
  // A gate is a region root when it is an observed point or does not drive
  // exactly one fanin pin (fanout lists repeat a reader once per pin, so a
  // driver read on two pins of one gate is a root, and so is a gate with no
  // reader). Every other gate, sources included, drives one pin of one
  // combinational reader and belongs to that reader's region, so the only
  // path out of a region runs through its root: what a fault inside it
  // does to the rest of the circuit is what inverting the root does, in
  // exactly the lanes where the fault's effect reaches the root.

  /// Root of the fanout-free region holding `id` (`id` itself for a root).
  [[nodiscard]] GateId region_root(GateId id) const noexcept {
    return region_root_[id];
  }
  /// For a non-root gate, the fanin pin it drives on its one reader,
  /// fanout(id)[0]; -1 for a root.
  [[nodiscard]] std::int32_t reader_pin(GateId id) const noexcept {
    return reader_pin_[id];
  }

  /// The circuit this view was compiled from.
  [[nodiscard]] const Circuit& source() const noexcept { return *source_; }

  // ---- word-parallel gate evaluation over the flat arrays ----

  /// Evaluate gate `id` over the dense per-gate word array `values`.
  /// Not valid for kInput/kDff sources.
  [[nodiscard]] std::uint64_t eval_word(GateId id,
                                        const std::uint64_t* values) const {
    const std::uint32_t begin = fanin_offset_[id];
    const std::uint32_t end = fanin_offset_[id + 1];
    const GateId* pins = fanin_.data();
    switch (static_cast<GateType>(type_[id])) {
      case GateType::kConst0:
        return 0;
      case GateType::kConst1:
        return ~std::uint64_t{0};
      case GateType::kBuf:
        return values[pins[begin]];
      case GateType::kNot:
        return ~values[pins[begin]];
      case GateType::kAnd:
      case GateType::kNand: {
        std::uint64_t acc = values[pins[begin]];
        for (std::uint32_t i = begin + 1; i < end; ++i) acc &= values[pins[i]];
        return type_[id] == static_cast<std::uint8_t>(GateType::kNand) ? ~acc
                                                                       : acc;
      }
      case GateType::kOr:
      case GateType::kNor: {
        std::uint64_t acc = values[pins[begin]];
        for (std::uint32_t i = begin + 1; i < end; ++i) acc |= values[pins[i]];
        return type_[id] == static_cast<std::uint8_t>(GateType::kNor) ? ~acc
                                                                      : acc;
      }
      case GateType::kXor:
      case GateType::kXnor: {
        std::uint64_t acc = values[pins[begin]];
        for (std::uint32_t i = begin + 1; i < end; ++i) acc ^= values[pins[i]];
        return type_[id] == static_cast<std::uint8_t>(GateType::kXnor) ? ~acc
                                                                       : acc;
      }
      case GateType::kInput:
      case GateType::kDff:
        break;
    }
    return 0;  // unreachable for well-formed calls; sources are assigned
  }

  /// Same, but the fanin at `pin` reads `forced` instead of its driver
  /// value — word-parallel injection of an input-pin (branch) stuck-at.
  [[nodiscard]] std::uint64_t eval_word_with_pin(GateId id,
                                                 const std::uint64_t* values,
                                                 std::int32_t pin,
                                                 std::uint64_t forced) const {
    const std::uint32_t begin = fanin_offset_[id];
    const std::uint32_t end = fanin_offset_[id + 1];
    const GateId* pins = fanin_.data();
    const auto operand = [&](std::uint32_t i) {
      return static_cast<std::int32_t>(i - begin) == pin ? forced
                                                         : values[pins[i]];
    };
    switch (static_cast<GateType>(type_[id])) {
      case GateType::kConst0:
        return 0;
      case GateType::kConst1:
        return ~std::uint64_t{0};
      case GateType::kBuf:
        return operand(begin);
      case GateType::kNot:
        return ~operand(begin);
      case GateType::kAnd:
      case GateType::kNand: {
        std::uint64_t acc = operand(begin);
        for (std::uint32_t i = begin + 1; i < end; ++i) acc &= operand(i);
        return type_[id] == static_cast<std::uint8_t>(GateType::kNand) ? ~acc
                                                                       : acc;
      }
      case GateType::kOr:
      case GateType::kNor: {
        std::uint64_t acc = operand(begin);
        for (std::uint32_t i = begin + 1; i < end; ++i) acc |= operand(i);
        return type_[id] == static_cast<std::uint8_t>(GateType::kNor) ? ~acc
                                                                      : acc;
      }
      case GateType::kXor:
      case GateType::kXnor: {
        std::uint64_t acc = operand(begin);
        for (std::uint32_t i = begin + 1; i < end; ++i) acc ^= operand(i);
        return type_[id] == static_cast<std::uint8_t>(GateType::kXnor) ? ~acc
                                                                       : acc;
      }
      case GateType::kInput:
      case GateType::kDff:
        break;
    }
    return 0;  // unreachable for well-formed calls; sources are assigned
  }

 private:
  const Circuit* source_;
  std::vector<std::uint8_t> type_;
  std::vector<std::uint32_t> level_;
  std::vector<std::uint32_t> fanin_offset_;   ///< size node_count()+1
  std::vector<GateId> fanin_;
  std::vector<std::uint32_t> fanout_offset_;  ///< size node_count()+1
  std::vector<GateId> fanout_;
  void build_program();
  void build_regions();

  std::vector<GateId> eval_order_;
  std::vector<std::uint32_t> eval_level_begin_;  ///< size depth()+2
  std::vector<EvalStep> steps_;     ///< aligned 1:1 with eval_order_
  std::vector<EvalRun> runs_;
  std::vector<std::uint32_t> run_level_begin_;   ///< size depth()+2
  std::vector<GateId> pattern_inputs_;
  std::vector<GateId> observed_points_;
  std::vector<std::uint32_t> point_index_of_;
  std::vector<GateId> region_root_;
  std::vector<std::int32_t> reader_pin_;
  std::size_t depth_ = 0;
};

}  // namespace lsiq::circuit
