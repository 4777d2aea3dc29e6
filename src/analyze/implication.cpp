#include "analyze/implication.hpp"

#include <algorithm>
#include <cstddef>

namespace lsiq::analyze {

namespace {

using circuit::CompiledCircuit;
using circuit::GateId;
using circuit::GateType;
using circuit::kNoGate;
using sim::Tri;

bool and_like(GateType type) noexcept {
  return type == GateType::kAnd || type == GateType::kNand;
}
bool or_like(GateType type) noexcept {
  return type == GateType::kOr || type == GateType::kNor;
}

Tri literal_tri(Literal lit) noexcept {
  return literal_one(lit) ? Tri::kOne : Tri::kZero;
}

/// Caps that keep the one-time learning sweep near-linear: per-literal
/// closures larger than this keep only their lowest-id lines and are not
/// indexed (their contrapositives are almost all derivable anyway), and
/// no literal accumulates more learned edges than it could usefully
/// replay.
constexpr std::size_t kMaxForcedStored = 256;
constexpr std::size_t kMaxLearnedPerLiteral = 64;
/// Round caps for the implied-constant fixpoints (each round probes all
/// 2n literals; real circuits converge in one or two).
constexpr int kConstantRounds = 4;
constexpr int kPostLearnRounds = 2;

}  // namespace

ImplicationEngine::ImplicationEngine(const CompiledCircuit& compiled)
    : compiled_(&compiled), n_(compiled.node_count()) {
  build_base();
  learn();
  build_dominators();
  build_cone_pins();
}

LineValue ImplicationEngine::constant(GateId id) const {
  switch (base_[id]) {
    case Tri::kZero:
      return LineValue::kZero;
    case Tri::kOne:
      return LineValue::kOne;
    default:
      return LineValue::kUnknown;
  }
}

std::size_t ImplicationEngine::learned_edge_count() const {
  return learned_.size();
}

bool ImplicationEngine::set_value(Probe& probe, GateId id, Tri value) const {
  if (value == Tri::kX) return true;
  const Tri current = probe.values[id];
  if (current == value) return true;
  if (current != Tri::kX) return false;  // 0 and 1 both forced: contradiction
  probe.values[id] = value;
  probe.trail.push_back(id);
  // Re-examine the gate itself (its backward rules just armed) and every
  // reader (their forward/backward rules see a new operand). Values are
  // monotone X -> {0,1}, so total enqueues are bounded by edges + nodes.
  probe.queue.push_back(id);
  const GateId* outs = compiled_->fanout(id);
  const std::size_t count = compiled_->fanout_count(id);
  for (std::size_t i = 0; i < count; ++i) probe.queue.push_back(outs[i]);
  return true;
}

bool ImplicationEngine::examine(Probe& probe, GateId id) const {
  const std::vector<Tri>& values = probe.values;
  // Learned indirect implications fire off the gate's literal regardless
  // of its type (they encode non-local consequences, not gate semantics).
  if (!learned_offset_.empty() && values[id] != Tri::kX) {
    const Literal lit = make_literal(id, values[id] == Tri::kOne);
    for (std::uint32_t e = learned_offset_[lit]; e < learned_offset_[lit + 1];
         ++e) {
      const Literal forced = learned_[e];
      if (!set_value(probe, literal_line(forced), literal_tri(forced))) {
        return false;
      }
    }
  }

  const GateType type = compiled_->type(id);
  // Sources: inputs and flip-flop outputs are free variables, and a DFF
  // is a scan boundary — its D driver is observed, its output is an
  // independent pattern input, so nothing implies across it either way.
  if (type == GateType::kInput || type == GateType::kDff) return true;
  if (type == GateType::kConst0) return set_value(probe, id, Tri::kZero);
  if (type == GateType::kConst1) return set_value(probe, id, Tri::kOne);

  const GateId* pins = compiled_->fanin(id);
  const int count = static_cast<int>(compiled_->fanin_count(id));
  if (count == 0) return true;  // floating gate: lint's problem, not ours
  const Tri out = values[id];

  if (type == GateType::kBuf || type == GateType::kNot) {
    const bool invert = type == GateType::kNot;
    const Tri in = values[pins[0]];
    if (in != Tri::kX &&
        !set_value(probe, id, invert ? sim::tri_not(in) : in)) {
      return false;
    }
    if (out != Tri::kX &&
        !set_value(probe, pins[0], invert ? sim::tri_not(out) : out)) {
      return false;
    }
    return true;
  }

  if (and_like(type) || or_like(type)) {
    const bool is_and = and_like(type);
    const bool invert = type == GateType::kNand || type == GateType::kNor;
    const Tri controlling = is_and ? Tri::kZero : Tri::kOne;
    const Tri neutral = is_and ? Tri::kOne : Tri::kZero;
    int unknown = 0;
    GateId unknown_pin = kNoGate;
    bool controlled = false;
    for (int i = 0; i < count; ++i) {
      const Tri v = values[pins[i]];
      if (v == controlling) controlled = true;
      if (v == Tri::kX) {
        ++unknown;
        unknown_pin = pins[i];
      }
    }
    // Forward: one controlling input decides the output; all-neutral does
    // too.
    if (controlled) {
      const Tri forward = invert ? sim::tri_not(controlling) : controlling;
      if (!set_value(probe, id, forward)) return false;
    } else if (unknown == 0) {
      const Tri forward = invert ? sim::tri_not(neutral) : neutral;
      if (!set_value(probe, id, forward)) return false;
    }
    // Backward: the neutral-side output value forces every input neutral;
    // the controlled-side output with exactly one unknown input is the
    // unit rule (that input must be the controlling one).
    if (out != Tri::kX) {
      const Tri effective = invert ? sim::tri_not(out) : out;
      if (effective == neutral) {
        for (int i = 0; i < count; ++i) {
          if (!set_value(probe, pins[i], neutral)) return false;
        }
      } else if (!controlled && unknown == 1) {
        if (!set_value(probe, unknown_pin, controlling)) return false;
      }
    }
    return true;
  }

  // XOR / XNOR: parity forward once every input is known; with exactly
  // one unknown input and a known output, solve the parity backward.
  const bool invert = type == GateType::kXnor;
  int unknown = 0;
  GateId unknown_pin = kNoGate;
  bool parity = invert;  // folds the inversion in: parity == output value
  for (int i = 0; i < count; ++i) {
    const Tri v = values[pins[i]];
    if (v == Tri::kX) {
      ++unknown;
      unknown_pin = pins[i];
    } else {
      parity ^= v == Tri::kOne;
    }
  }
  if (unknown == 0) {
    if (!set_value(probe, id, parity ? Tri::kOne : Tri::kZero)) {
      return false;
    }
  } else if (unknown == 1 && out != Tri::kX) {
    const bool in = (out == Tri::kOne) != parity;
    if (!set_value(probe, unknown_pin, in ? Tri::kOne : Tri::kZero)) {
      return false;
    }
  }
  return true;
}

bool ImplicationEngine::drain(Probe& probe) const {
  while (!probe.queue.empty()) {
    const GateId id = probe.queue.back();
    probe.queue.pop_back();
    if (!examine(probe, id)) return false;
  }
  return true;
}

ImplicationEngine::Probe ImplicationEngine::make_probe() const {
  return Probe{base_, {}, {}};
}

bool ImplicationEngine::assume(Probe& probe,
                               std::span<const Literal> assumptions) const {
  for (const Literal lit : assumptions) {
    if (!set_value(probe, literal_line(lit), literal_tri(lit))) return false;
  }
  return drain(probe);
}

void ImplicationEngine::restore(Probe& probe) const {
  for (const GateId id : probe.trail) probe.values[id] = base_[id];
  probe.trail.clear();
  probe.queue.clear();  // a contradiction leaves work queued
}

bool ImplicationEngine::propagate(const std::vector<Literal>& assumptions,
                                  std::vector<Tri>& values) const {
  Probe probe = make_probe();
  const bool consistent = assume(probe, assumptions);
  values = std::move(probe.values);
  return consistent;
}

void ImplicationEngine::build_base() {
  Probe probe{std::vector<Tri>(n_, Tri::kX), {}, {}};
  for (GateId id = 0; id < static_cast<GateId>(n_); ++id) {
    const GateType type = compiled_->type(id);
    if (type == GateType::kConst0) {
      set_value(probe, id, Tri::kZero);
    } else if (type == GateType::kConst1) {
      set_value(probe, id, Tri::kOne);
    }
  }
  // Tied constants are consistent facts; this drain cannot contradict.
  drain(probe);
  base_ = std::move(probe.values);
}

struct ImplicationEngine::Closures {
  /// Literal L's stored lines are arena[start, start + count): the
  /// kMaxForcedStored lowest-id lines L forces (other than its own), as
  /// sorted literals. kRecorded: L was probed and closed consistently;
  /// kTruncated: L forces more lines than were stored.
  static constexpr std::uint8_t kRecorded = 1;
  static constexpr std::uint8_t kTruncated = 2;
  struct Entry {
    std::uint32_t start = 0;
    std::uint16_t count = 0;
    std::uint8_t flags = 0;
  };
  std::vector<Literal> arena;
  std::vector<Entry> entries;

  void clear(std::size_t literal_count) {
    arena.clear();
    entries.assign(literal_count, Entry{});
  }

  [[nodiscard]] std::span<const Literal> forced(Literal lit) const {
    return {arena.data() + entries[lit].start, entries[lit].count};
  }
  [[nodiscard]] bool has(Literal lit, std::uint8_t flag) const {
    return (entries[lit].flags & flag) != 0;
  }

  /// Record the closure of `lit` from the probe's trail (propagation
  /// order; sorted here, which also orders the literals).
  void record(Literal lit, Probe& probe) {
    std::vector<GateId>& lines = probe.trail;
    std::sort(lines.begin(), lines.end());
    Entry& entry = entries[lit];
    entry.start = static_cast<std::uint32_t>(arena.size());
    entry.flags = kRecorded;
    for (const GateId m : lines) {
      if (m == literal_line(lit)) continue;
      if (arena.size() - entry.start >= kMaxForcedStored) {
        entry.flags |= kTruncated;
        break;
      }
      arena.push_back(make_literal(m, probe.values[m] == Tri::kOne));
    }
    entry.count = static_cast<std::uint16_t>(arena.size() - entry.start);
  }
};

bool ImplicationEngine::sweep(Probe& probe, bool bake, Closures* closures,
                              const std::vector<char>* quiet) {
  if (closures != nullptr) closures->clear(2 * n_);
  bool changed = false;
  for (GateId id = 0; id < static_cast<GateId>(n_); ++id) {
    if (base_[id] != Tri::kX) continue;
    for (const bool one : {false, true}) {
      const Literal lit = make_literal(id, one);
      if (!changed && quiet != nullptr && (*quiet)[lit] != 0) continue;
      const bool consistent = assume(probe, {&lit, 1});
      if (consistent && closures != nullptr) closures->record(lit, probe);
      restore(probe);
      if (consistent || !bake) continue;
      // `id = one` is impossible on every pattern: the opposite value is
      // an implied constant. Bake it and its consequences into the probe
      // (a true fact — this drain cannot contradict), then copy the
      // bake's trail into base_ so the two stay equal.
      set_value(probe, id, one ? Tri::kZero : Tri::kOne);
      drain(probe);
      for (const GateId line : probe.trail) base_[line] = probe.values[line];
      probe.trail.clear();
      changed = true;
      break;
    }
  }
  return changed;
}

void ImplicationEngine::learn() {
  learned_offset_.clear();
  learned_.clear();
  Probe probe = make_probe();

  // Phases 1 and 2: implied constants from gate rules alone, and the
  // direct closure F[L] of every free literal — both the source of
  // contrapositives and the redundancy filter below. Each new constant
  // can enable more, so sweep in rounds (capped; real circuits settle
  // fast). The first round that bakes nothing probed every free literal
  // against the final constants, so its closures are F; when the cap
  // ends the rounds first, one more pass collects F without baking.
  Closures closures;
  bool settled = false;
  for (int round = 0; round < kConstantRounds && !settled; ++round) {
    settled = !sweep(probe, true, &closures);
  }
  if (!settled) sweep(probe, false, &closures);
  const std::size_t literal_count = 2 * n_;

  // Phase 3: contrapositive learning. L => M gives not-M => not-L; store
  // the pair on not-M unless its own direct closure already derives it
  // (then it is not an *indirect* implication, just gate rules replayed).
  // Distinct (lit, m) pairs give distinct edges, so no dedup is needed.
  struct Edge {
    Literal source;
    Literal target;
  };
  std::vector<Edge> pairs;
  for (Literal lit = 0; lit < static_cast<Literal>(literal_count); ++lit) {
    for (const Literal m : closures.forced(lit)) {
      const Literal source = literal_not(m);
      const Literal target = literal_not(lit);
      if (closures.has(source, Closures::kTruncated)) continue;
      const std::span<const Literal> direct = closures.forced(source);
      if (std::binary_search(direct.begin(), direct.end(), target)) continue;
      pairs.push_back(Edge{source, target});
    }
  }
  // One stable counting pass into CSR: each source keeps its first
  // kMaxLearnedPerLiteral pairs, in the order they were generated.
  learned_offset_.assign(literal_count + 1, 0);
  for (const Edge& edge : pairs) {
    std::uint32_t& count = learned_offset_[edge.source + 1];
    if (count < kMaxLearnedPerLiteral) ++count;
  }
  for (std::size_t lit = 0; lit < literal_count; ++lit) {
    learned_offset_[lit + 1] += learned_offset_[lit];
  }
  learned_.resize(learned_offset_[literal_count]);
  std::vector<std::uint32_t> cursor(learned_offset_.begin(),
                                    learned_offset_.end() - 1);
  for (const Edge& edge : pairs) {
    std::uint32_t& at = cursor[edge.source];
    if (at < learned_offset_[edge.source + 1]) learned_[at++] = edge.target;
  }

  // Phase 4: constants only the learned edges can expose. A recorded,
  // untruncated closure in which no literal (L included) has a learned
  // edge is its own closure with the edges: nothing in it can fire one.
  // It was consistent, so the first round skips probing such a quiet L
  // until a bake changes the constants the closure was recorded against.
  const auto has_edges = [this](Literal lit) {
    return learned_offset_[lit] != learned_offset_[lit + 1];
  };
  std::vector<char> quiet(literal_count, 0);
  for (Literal lit = 0; lit < static_cast<Literal>(literal_count); ++lit) {
    if (!closures.has(lit, Closures::kRecorded) ||
        closures.has(lit, Closures::kTruncated) || has_edges(lit)) {
      continue;
    }
    const std::span<const Literal> forced = closures.forced(lit);
    quiet[lit] = std::none_of(forced.begin(), forced.end(), has_edges);
  }
  for (int round = 0; round < kPostLearnRounds; ++round) {
    if (!sweep(probe, true, nullptr, round == 0 ? &quiet : nullptr)) break;
  }
}

bool ImplicationEngine::in_cone(GateId source, GateId target) const {
  if (source == target) return true;
  // Levels strictly increase along every edge a fault effect crosses (a
  // DFF output is a level-0 source), so only gates below the target's
  // level can lie on a path to it, and a DFF is in no cone but its own.
  const std::uint32_t limit = compiled_->level(target);
  if (compiled_->level(source) >= limit) return false;
  std::vector<char> seen(n_, 0);
  std::vector<GateId> stack{source};
  while (!stack.empty()) {
    const GateId id = stack.back();
    stack.pop_back();
    const GateId* outs = compiled_->fanout(id);
    const std::size_t count = compiled_->fanout_count(id);
    for (std::size_t i = 0; i < count; ++i) {
      const GateId reader = outs[i];
      // Fault effects stop at a scan boundary: the DFF's capture is
      // observed, its output this pattern is an unaffected free variable.
      if (compiled_->type(reader) == GateType::kDff) continue;
      if (reader == target) return true;
      if (compiled_->level(reader) >= limit || seen[reader] != 0) continue;
      seen[reader] = 1;
      stack.push_back(reader);
    }
  }
  return false;
}

GateId ImplicationEngine::intersect_doms(GateId a, GateId b) const {
  while (a != b) {
    while (rank_[a] > rank_[b]) a = idom_[a];
    while (rank_[b] > rank_[a]) b = idom_[b];
  }
  return a;
}

void ImplicationEngine::build_dominators() {
  const circuit::Circuit& circuit = compiled_->source();
  sink_ = static_cast<GateId>(n_);
  idom_.assign(n_ + 1, kNoGate);
  rank_.assign(n_ + 1, 0);
  reachable_.assign(n_, 0);

  // The observed set under the full-scan model: primary outputs plus
  // every flip-flop's D driver.
  std::vector<char> observed(n_, 0);
  for (const GateId id : circuit.primary_outputs()) observed[id] = 1;
  for (const GateId id : circuit.flip_flops()) {
    if (compiled_->fanin_count(id) > 0) observed[compiled_->fanin(id)[0]] = 1;
  }

  // Cooper–Harvey–Kennedy over the fanout DAG toward the virtual sink.
  // Reverse topological order finalizes every successor before its
  // drivers, so one pass suffices; rank increases in processing order
  // and idom chains strictly decrease it, which is what intersect walks.
  idom_[sink_] = sink_;
  rank_[sink_] = 0;
  std::uint32_t next_rank = 1;
  const auto& order = circuit.topological_order();
  for (auto it = order.rbegin(); it != order.rend(); ++it) {
    const GateId id = *it;
    rank_[id] = next_rank++;
    GateId dom = observed[id] != 0 ? sink_ : kNoGate;
    const GateId* outs = compiled_->fanout(id);
    const std::size_t count = compiled_->fanout_count(id);
    for (std::size_t i = 0; i < count; ++i) {
      const GateId reader = outs[i];
      if (compiled_->type(reader) == GateType::kDff) continue;
      if (reachable_[reader] == 0) continue;
      dom = dom == kNoGate ? reader : intersect_doms(dom, reader);
    }
    if (dom == kNoGate) continue;  // no path to any observed point
    reachable_[id] = 1;
    idom_[id] = dom;
  }
}

void ImplicationEngine::build_cone_pins() {
  // For each gate g whose immediate dominator d is AND/OR-like, walk
  // forward from g through reachable gates below d's level. A fanin of d
  // sits below d, and every gate on a path to it reaches an observed
  // point through it, so the walk finds exactly the fanins of d in g's
  // cone; it never crosses d. Walks are told apart by their start gate.
  cone_pin_offset_.assign(n_ + 1, 0);
  cone_pins_.clear();
  std::vector<GateId> walked_from(n_, kNoGate);
  std::vector<GateId> stack;
  for (GateId g = 0; g < static_cast<GateId>(n_); ++g) {
    cone_pin_offset_[g] = static_cast<std::uint32_t>(cone_pins_.size());
    const GateId dom = immediate_dominator(g);
    if (dom == kNoGate) continue;
    const GateType type = compiled_->type(dom);
    if (!and_like(type) && !or_like(type)) continue;  // no side-input rule
    const std::uint32_t limit = compiled_->level(dom);
    walked_from[g] = g;
    stack.assign(1, g);
    while (!stack.empty()) {
      const GateId id = stack.back();
      stack.pop_back();
      const GateId* outs = compiled_->fanout(id);
      const std::size_t count = compiled_->fanout_count(id);
      for (std::size_t i = 0; i < count; ++i) {
        const GateId reader = outs[i];
        if (walked_from[reader] == g || reachable_[reader] == 0 ||
            compiled_->type(reader) == GateType::kDff ||
            compiled_->level(reader) >= limit) {
          continue;
        }
        walked_from[reader] = g;
        stack.push_back(reader);
      }
    }
    const auto first = static_cast<std::ptrdiff_t>(cone_pins_.size());
    const GateId* pins = compiled_->fanin(dom);
    const std::size_t count = compiled_->fanin_count(dom);
    for (std::size_t q = 0; q < count; ++q) {
      if (walked_from[pins[q]] != g ||
          std::find(cone_pins_.begin() + first, cone_pins_.end(), pins[q]) !=
              cone_pins_.end()) {
        continue;  // outside the cone, or a duplicated fanin
      }
      cone_pins_.push_back(pins[q]);
    }
  }
  cone_pin_offset_[n_] = static_cast<std::uint32_t>(cone_pins_.size());
}

GateId ImplicationEngine::immediate_dominator(GateId id) const {
  const GateId dom = idom_[id];
  return dom == kNoGate || dom == sink_ ? kNoGate : dom;
}

std::vector<GateId> ImplicationEngine::dominators(GateId id) const {
  std::vector<GateId> chain;
  if (reachable_[id] == 0) return chain;
  for (GateId dom = idom_[id]; dom != sink_; dom = idom_[dom]) {
    chain.push_back(dom);
  }
  return chain;
}

std::vector<Literal> ImplicationEngine::necessary_seeds(
    const fault::Fault& fault) const {
  std::vector<Literal> seeds;
  necessary_seeds(fault, seeds);
  return seeds;
}

void ImplicationEngine::necessary_seeds(const fault::Fault& fault,
                                        std::vector<Literal>& seeds) const {
  seeds.clear();
  const GateId line = fault::fault_line(*compiled_, fault);
  // Activation: the good machine must drive the opposite of the stuck
  // value onto the faulted line.
  seeds.push_back(make_literal(line, !fault.stuck_at_one));

  GateId source = fault.gate;
  if (!fault::is_stem(fault)) {
    const GateType type = compiled_->type(fault.gate);
    // A DFF's D pin is itself captured: activation is the whole story.
    if (type == GateType::kDff) return;
    // The effect lives only on the faulted branch, so every other pin of
    // the reading gate carries its good value — and must be
    // non-controlling or the gate output is identical in both machines.
    if (and_like(type) || or_like(type)) {
      const bool neutral_one = and_like(type);
      const GateId* pins = compiled_->fanin(fault.gate);
      const int count = static_cast<int>(compiled_->fanin_count(fault.gate));
      for (int q = 0; q < count; ++q) {
        if (q == fault.pin) continue;
        seeds.push_back(make_literal(pins[q], neutral_one));
      }
    }
  }

  // Unique sensitization: every propagation path crosses every dominator
  // of the effect source, so each dominator's side inputs that lie
  // OUTSIDE the fault cone (their good and faulty values coincide) must
  // be non-controlling. Side inputs inside the cone may carry the effect
  // and impose nothing. A path from the source to a fanin of dominator
  // d_k runs on through d_k to an observed point, so it crosses the chain
  // member below d_k (the source itself for the first): the fanin is in
  // the source's cone exactly when it is in that member's, which is the
  // list build_cone_pins() recorded for it.
  if (reachable_[source] != 0) {
    GateId below = source;
    for (GateId dom = idom_[source]; dom != sink_;
         below = dom, dom = idom_[dom]) {
      const GateType type = compiled_->type(dom);
      if (!and_like(type) && !or_like(type)) continue;
      const bool neutral_one = and_like(type);
      const GateId* cone_begin = cone_pins_.data() + cone_pin_offset_[below];
      const GateId* cone_end = cone_pins_.data() + cone_pin_offset_[below + 1];
      const GateId* pins = compiled_->fanin(dom);
      const int count = static_cast<int>(compiled_->fanin_count(dom));
      for (int q = 0; q < count; ++q) {
        if (std::find(cone_begin, cone_end, pins[q]) != cone_end) continue;
        seeds.push_back(make_literal(pins[q], neutral_one));
      }
    }
  }

  std::sort(seeds.begin(), seeds.end());
  seeds.erase(std::unique(seeds.begin(), seeds.end()), seeds.end());
}

NecessaryAssignments ImplicationEngine::necessary_assignments(
    const fault::Fault& fault) const {
  // Observability prerequisite: a branch into a DFF is captured directly;
  // every other fault needs a structural path from its effect source.
  const bool captured = !fault::is_stem(fault) &&
                        compiled_->type(fault.gate) == GateType::kDff;
  if (!captured && reachable_[fault.gate] == 0) {
    NecessaryAssignments out;
    out.contradictory = true;
    return out;
  }
  return close_over(necessary_seeds(fault));
}

NecessaryAssignments ImplicationEngine::justification_assignments(
    GateId line, bool value) const {
  const Literal lit = make_literal(line, value);
  return close_over({&lit, 1});
}

NecessaryAssignments ImplicationEngine::close_over(
    std::span<const Literal> seeds) const {
  NecessaryAssignments out;
  Probe probe = make_probe();
  if (!assume(probe, seeds)) {
    out.contradictory = true;
    return out;
  }
  // The trail holds each set line once; sorted by line, it gives the
  // literals in order.
  std::sort(probe.trail.begin(), probe.trail.end());
  out.literals.reserve(probe.trail.size());
  for (const GateId id : probe.trail) {
    out.literals.push_back(make_literal(id, probe.values[id] == Tri::kOne));
  }
  return out;
}

}  // namespace lsiq::analyze
