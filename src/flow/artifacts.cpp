#include "flow/artifacts.hpp"

#include <climits>
#include <utility>

#include "fault_model/universe.hpp"
#include "flow/spec_io.hpp"

namespace lsiq::flow {

// ---- CircuitBundle ----

CircuitBundle::CircuitBundle(
    std::shared_ptr<const circuit::Circuit> circuit,
    std::shared_ptr<std::atomic<std::size_t>> proof_counter)
    // The circuit lives behind the handle and never moves: the compiled
    // view and every universe over it hold references into it.
    : circuit_(std::move(circuit)),
      compiled_(std::make_shared<const circuit::CompiledCircuit>(*circuit_)),
      proof_counter_(std::move(proof_counter)) {}

const analyze::RedundancyReport& CircuitBundle::redundancy() const {
  const std::lock_guard<std::mutex> lock(proof_mutex_);
  if (!proof_.has_value()) {
    proof_ = analyze::prove_redundancies(*compiled_);
    if (proof_counter_ != nullptr) ++*proof_counter_;
  }
  return *proof_;
}

// ---- ArtifactCache ----

std::shared_ptr<const ArtifactCache::Artifacts> ArtifactCache::get(
    const std::string& circuit_name, fault_model::FaultModel model) {
  const CircuitSource source = resolve_circuit(circuit_name);
  const Key key(circuit_name, static_cast<int>(model));
  const std::lock_guard<std::mutex> lock(mutex_);
  const auto it = entries_.find(key);
  if (it != entries_.end() && it->second.content == source.key) {
    ++hits_;
    it->second.last_use = ++tick_;
    return it->second.artifacts;
  }

  // A miss. Entries of this selector built from other content are stale:
  // drop them. One of the same content (another fault model's universe)
  // lends its bundle, so the circuit is not built, compiled or proved
  // again.
  std::shared_ptr<const CircuitBundle> bundle;
  auto sibling = entries_.lower_bound(Key(circuit_name, INT_MIN));
  while (sibling != entries_.end() && sibling->first.first == circuit_name) {
    if (sibling->second.content == source.key) {
      bundle = sibling->second.artifacts->bundle;
      ++sibling;
    } else {
      cost_ -= sibling->second.cost;
      sibling = entries_.erase(sibling);
    }
  }
  // Build outside the map so a throwing build caches nothing.
  if (bundle == nullptr) {
    bundle = std::make_shared<const CircuitBundle>(
        std::make_shared<const circuit::Circuit>(source.build()), proofs_);
  }
  auto artifacts = std::make_shared<Artifacts>();
  artifacts->compiled = bundle->compiled();
  artifacts->faults = std::make_unique<const fault::FaultList>(
      fault_model::universe(bundle->circuit(), model));
  artifacts->bundle = std::move(bundle);
  ++misses_;
  Entry entry;
  entry.content = source.key;
  entry.artifacts = std::move(artifacts);
  entry.cost = cost_of(*entry.artifacts);
  entry.last_use = ++tick_;
  cost_ += entry.cost;
  std::shared_ptr<const Artifacts> handle = entry.artifacts;
  entries_.emplace(key, std::move(entry));
  evict_locked();
  return handle;
}

void ArtifactCache::set_max_cost(std::size_t max_cost) {
  const std::lock_guard<std::mutex> lock(mutex_);
  max_cost_ = max_cost;
  evict_locked();
}

void ArtifactCache::evict_locked() {
  if (max_cost_ == 0) return;
  while (cost_ > max_cost_ && entries_.size() > 1) {
    auto victim = entries_.end();
    for (auto it = entries_.begin(); it != entries_.end(); ++it) {
      if (victim == entries_.end() ||
          it->second.last_use < victim->second.last_use) {
        victim = it;
      }
    }
    cost_ -= victim->second.cost;
    entries_.erase(victim);
    ++evictions_;
  }
}

ArtifactCache::Stats ArtifactCache::stats() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  Stats stats;
  stats.hits = hits_;
  stats.misses = misses_;
  stats.evictions = evictions_;
  stats.entries = entries_.size();
  stats.cost = cost_;
  stats.max_cost = max_cost_;
  stats.proofs = *proofs_;
  return stats;
}

std::size_t ArtifactCache::cost_of(const Artifacts& artifacts) {
  return artifacts.compiled != nullptr ? artifacts.compiled->node_count() : 0;
}

}  // namespace lsiq::flow
