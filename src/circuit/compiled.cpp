#include "circuit/compiled.hpp"

#include <algorithm>

#include "util/error.hpp"

namespace lsiq::circuit {

CompiledCircuit::CompiledCircuit(const Circuit& circuit) : source_(&circuit) {
  LSIQ_EXPECT(circuit.finalized(),
              "CompiledCircuit requires a finalized circuit");
  const std::size_t n = circuit.gate_count();

  type_.resize(n);
  level_.resize(n);
  fanin_offset_.resize(n + 1, 0);
  fanout_offset_.resize(n + 1, 0);
  point_index_of_.assign(n, kNoPoint);

  std::size_t pin_total = 0;
  std::size_t fanout_total = 0;
  for (GateId id = 0; id < n; ++id) {
    const Gate& g = circuit.gate(id);
    type_[id] = static_cast<std::uint8_t>(g.type);
    level_[id] = g.level;
    depth_ = std::max<std::size_t>(depth_, g.level);
    pin_total += g.fanin.size();
    fanout_total += g.fanout.size();
  }

  fanin_.reserve(pin_total);
  fanout_.reserve(fanout_total);
  for (GateId id = 0; id < n; ++id) {
    const Gate& g = circuit.gate(id);
    fanin_offset_[id] = static_cast<std::uint32_t>(fanin_.size());
    fanin_.insert(fanin_.end(), g.fanin.begin(), g.fanin.end());
    fanout_offset_[id] = static_cast<std::uint32_t>(fanout_.size());
    fanout_.insert(fanout_.end(), g.fanout.begin(), g.fanout.end());
  }
  fanin_offset_[n] = static_cast<std::uint32_t>(fanin_.size());
  fanout_offset_[n] = static_cast<std::uint32_t>(fanout_.size());

  eval_order_.reserve(n);
  for (const GateId id : circuit.topological_order()) {
    const GateType t = static_cast<GateType>(type_[id]);
    if (t == GateType::kInput || t == GateType::kDff) continue;
    eval_order_.push_back(id);
  }
  // Stable-sort by level (level order is a topological order, so evaluation
  // semantics are unchanged) and record per-level suffix boundaries. Within
  // a level, order is free — sorting by gate kind turns the evaluation
  // program into long single-operation runs with no per-gate dispatch.
  std::stable_sort(eval_order_.begin(), eval_order_.end(),
                   [this](GateId a, GateId b) {
                     if (level_[a] != level_[b]) return level_[a] < level_[b];
                     if (type_[a] != type_[b]) return type_[a] < type_[b];
                     return fanin_count(a) < fanin_count(b);
                   });
  eval_level_begin_.assign(depth_ + 2,
                           static_cast<std::uint32_t>(eval_order_.size()));
  for (std::size_t i = eval_order_.size(); i > 0; --i) {
    eval_level_begin_[level_[eval_order_[i - 1]]] =
        static_cast<std::uint32_t>(i - 1);
  }
  // Levels with no evaluable gate inherit the next populated level's start.
  for (std::size_t level = depth_ + 1; level > 0; --level) {
    eval_level_begin_[level - 1] =
        std::min(eval_level_begin_[level - 1], eval_level_begin_[level]);
  }

  pattern_inputs_ = circuit.pattern_inputs();
  observed_points_ = circuit.observed_points();

  // Gate -> observed-point index. Points are primary outputs first, then
  // one pseudo output per flip-flop (its D driver). The pseudo-output index
  // is recorded against the *flip-flop* gate, which is what DFF-pin fault
  // detection looks up; driver gates that also appear as primary outputs
  // keep their first (primary-output) index.
  const std::size_t num_po = circuit.primary_outputs().size();
  for (std::size_t i = 0; i < observed_points_.size(); ++i) {
    const GateId point = observed_points_[i];
    if (point_index_of_[point] == kNoPoint) {
      point_index_of_[point] = static_cast<std::uint32_t>(i);
    }
  }
  // Written last so a flip-flop that itself drives another flip-flop's D
  // input still maps to its own pseudo output, not the capture it feeds.
  const auto& ffs = circuit.flip_flops();
  for (std::size_t i = 0; i < ffs.size(); ++i) {
    point_index_of_[ffs[i]] = static_cast<std::uint32_t>(num_po + i);
  }

  build_program();
  build_regions();
}

void CompiledCircuit::build_program() {
  steps_.reserve(eval_order_.size());
  for (const GateId id : eval_order_) {
    const GateId* pins = fanin(id);
    const std::size_t count = fanin_count(id);
    EvalStep step;
    step.a = count > 0 ? pins[0] : id;
    step.b = count > 1 ? pins[1] : step.a;
    step.dest = id;
    steps_.push_back(step);
  }

  const auto kind_of = [this](GateId id) {
    const std::size_t count = fanin_count(id);
    switch (static_cast<GateType>(type_[id])) {
      case GateType::kAnd:
        if (count == 2) return RunKind::kAnd2;
        break;
      case GateType::kNand:
        if (count == 2) return RunKind::kNand2;
        break;
      case GateType::kOr:
        if (count == 2) return RunKind::kOr2;
        break;
      case GateType::kNor:
        if (count == 2) return RunKind::kNor2;
        break;
      case GateType::kXor:
        if (count == 2) return RunKind::kXor2;
        break;
      case GateType::kXnor:
        if (count == 2) return RunKind::kXnor2;
        break;
      case GateType::kBuf:
        return RunKind::kBuf1;
      case GateType::kNot:
        return RunKind::kNot1;
      default:
        break;
    }
    return RunKind::kGeneric;
  };

  // Runs break at level boundaries (so a suffix sweep can start at any
  // level) and at kind changes; the (level, type, arity) evaluation order
  // makes same-kind gates adjacent already.
  run_level_begin_.assign(depth_ + 2, 0);
  std::size_t i = 0;
  for (std::size_t level = 0; level <= depth_; ++level) {
    run_level_begin_[level] = static_cast<std::uint32_t>(runs_.size());
    const std::size_t level_end = eval_level_begin(level + 1);
    while (i < level_end) {
      const RunKind kind = kind_of(eval_order_[i]);
      std::size_t j = i + 1;
      while (j < level_end && kind_of(eval_order_[j]) == kind) ++j;
      runs_.push_back(EvalRun{static_cast<std::uint32_t>(i),
                              static_cast<std::uint32_t>(j), kind});
      i = j;
    }
  }
  run_level_begin_[depth_ + 1] = static_cast<std::uint32_t>(runs_.size());
}

void CompiledCircuit::eval_suffix(std::size_t from_level,
                                  std::uint64_t* values, GateId skip,
                                  std::size_t through_level) const {
  const EvalStep* steps = steps_.data();
  const std::size_t run_count = through_level >= depth_
                                    ? runs_.size()
                                    : run_level_begin_[through_level + 1];
  std::size_t r =
      from_level > depth_ ? runs_.size() : run_level_begin_[from_level];

// One tight loop per run kind; the `skip` test is a never-taken branch for
// every gate but an injected fault site.
#define LSIQ_RUN_LOOP(expr)                                   \
  for (std::uint32_t s = run.begin; s < run.end; ++s) {       \
    const EvalStep& step = steps[s];                          \
    if (step.dest == skip) continue;                          \
    values[step.dest] = (expr);                               \
  }                                                           \
  break;

  for (; r < run_count; ++r) {
    const EvalRun& run = runs_[r];
    switch (run.kind) {
      case RunKind::kAnd2:
        LSIQ_RUN_LOOP(values[step.a] & values[step.b])
      case RunKind::kNand2:
        LSIQ_RUN_LOOP(~(values[step.a] & values[step.b]))
      case RunKind::kOr2:
        LSIQ_RUN_LOOP(values[step.a] | values[step.b])
      case RunKind::kNor2:
        LSIQ_RUN_LOOP(~(values[step.a] | values[step.b]))
      case RunKind::kXor2:
        LSIQ_RUN_LOOP(values[step.a] ^ values[step.b])
      case RunKind::kXnor2:
        LSIQ_RUN_LOOP(~(values[step.a] ^ values[step.b]))
      case RunKind::kBuf1:
        LSIQ_RUN_LOOP(values[step.a])
      case RunKind::kNot1:
        LSIQ_RUN_LOOP(~values[step.a])
      case RunKind::kGeneric:
        LSIQ_RUN_LOOP(eval_word(step.dest, values))
    }
  }
#undef LSIQ_RUN_LOOP
}

void CompiledCircuit::build_regions() {
  const std::size_t n = node_count();
  std::vector<char> observed(n, 0);
  for (const GateId point : observed_points_) observed[point] = 1;
  region_root_.resize(n);
  reader_pin_.assign(n, -1);
  // A non-root gate's reader is combinational (a flip-flop reader would
  // make it a D driver, hence an observed point) and so sits at a strictly
  // higher level: the reverse evaluation order, then the sources, sees
  // every reader's root before the gates feeding it.
  const auto assign = [&](GateId id) {
    region_root_[id] = id;
    if (observed[id] != 0 || fanout_count(id) != 1) return;
    const GateId reader = fanout(id)[0];
    region_root_[id] = region_root_[reader];
    const GateId* pins = fanin(reader);
    std::int32_t pin = 0;
    while (pins[pin] != id) ++pin;
    reader_pin_[id] = pin;
  };
  for (auto it = eval_order_.rbegin(); it != eval_order_.rend(); ++it) {
    assign(*it);
  }
  for (GateId id = 0; id < n; ++id) {
    const GateType type = static_cast<GateType>(type_[id]);
    if (type == GateType::kInput || type == GateType::kDff) assign(id);
  }
}

}  // namespace lsiq::circuit
