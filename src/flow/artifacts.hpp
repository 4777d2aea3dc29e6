// The per-circuit artifact bundle and the cache that shares it across
// specs.
//
// Everything the analyze gate and the grading engines derive from a
// netlist alone is built once per circuit CONTENT and shared: the
// circuit, its compiled view, and the implication prover's redundancy
// proof, which is the largest stage of a full-observation spec. The
// fault-model universes hang off that bundle, so a stuck-at and a
// transition universe over one product share one compile and one proof.
//
// A circuit's content key is its generator selector, or a .bench path
// plus the FNV-1a hash of the file's bytes (flow::resolve_circuit), so an
// edited netlist behind a long batch or a running daemon is a miss that
// rebuilds, never a stale hit.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <utility>

#include "analyze/redundancy.hpp"
#include "circuit/compiled.hpp"
#include "circuit/netlist.hpp"
#include "fault/fault_list.hpp"
#include "fault_model/fault_model.hpp"

namespace lsiq::flow {

/// One circuit's shared artifacts: the finalized netlist, its compiled
/// view, and the analyze gate's implication-prover proof, proved on first
/// request. Immutable apart from that once-built proof; thread-safe.
class CircuitBundle {
 public:
  /// Compiles `*circuit`, which must be finalized. The cache hands over a
  /// circuit it owns; a cold flow::run passes a non-owning handle to its
  /// universe's circuit, which must then outlive the bundle.
  /// `proof_counter`, when non-null, counts each proof this bundle builds
  /// (ArtifactCache passes its Stats::proofs counter).
  explicit CircuitBundle(
      std::shared_ptr<const circuit::Circuit> circuit,
      std::shared_ptr<std::atomic<std::size_t>> proof_counter = nullptr);

  [[nodiscard]] const circuit::Circuit& circuit() const noexcept {
    return *circuit_;
  }
  [[nodiscard]] const std::shared_ptr<const circuit::CompiledCircuit>&
  compiled() const noexcept {
    return compiled_;
  }

  /// analyze::prove_redundancies over compiled(), proved on the first
  /// call and returned by every later one. Concurrent first calls prove
  /// once (a per-bundle lock, so two circuits prove concurrently); a
  /// proof that throws keeps nothing, and the next call tries again.
  [[nodiscard]] const analyze::RedundancyReport& redundancy() const;

 private:
  std::shared_ptr<const circuit::Circuit> circuit_;
  std::shared_ptr<const circuit::CompiledCircuit> compiled_;
  std::shared_ptr<std::atomic<std::size_t>> proof_counter_;
  mutable std::mutex proof_mutex_;
  mutable std::optional<analyze::RedundancyReport> proof_;
};

/// The shared artifact cache: one entry per (circuit selector, fault
/// model) holding the collapsed universe over that circuit's bundle.
/// Thread-safe.
///
/// A lookup first resolves the selector to its content key; an entry
/// built from other content (a .bench file edited since) is a miss and is
/// replaced, as are its sibling entries of the other fault models. A
/// miss over a circuit whose bundle another model's entry already holds
/// reuses that bundle, and with it the compile and the proof.
///
/// Entries are handed out as shared_ptr, so EVICTION is safe: an evicted
/// entry stays alive until the last job using it drops its handle — the
/// cache only stops handing it out. The eviction policy is cost-weighted
/// LRU: each entry's cost is its compiled-circuit size (node count — the
/// quantity the simulation buffers and CSR arrays all scale with), and
/// whenever the live total exceeds max_cost the least-recently-used
/// entries are dropped. The most-recently-used entry is never evicted, so
/// one artifact bigger than the whole bound still builds and runs — the
/// bound then degrades to "cache nothing else".
///
/// max_cost == 0 means unbounded (the one-shot batch default). The
/// long-lived flow service (src/service/) sets a real bound so a daemon's
/// memory stays flat across thousands of jobs; hits/misses/evictions,
/// the live cost and the proofs built are exposed for its `stats`
/// request.
class ArtifactCache {
 public:
  struct Artifacts {
    /// The circuit's bundle; `compiled` is its compiled view.
    std::shared_ptr<const CircuitBundle> bundle;
    std::unique_ptr<const fault::FaultList> faults;
    std::shared_ptr<const circuit::CompiledCircuit> compiled;
  };

  struct Stats {
    std::size_t hits = 0;
    std::size_t misses = 0;
    std::size_t evictions = 0;
    std::size_t entries = 0;   ///< live (non-evicted) entries
    std::size_t cost = 0;      ///< summed cost of live entries
    std::size_t max_cost = 0;  ///< configured bound; 0 = unbounded
    std::size_t proofs = 0;    ///< redundancy proofs built by bundles
  };

  ArtifactCache() = default;
  explicit ArtifactCache(std::size_t max_cost) : max_cost_(max_cost) {}

  /// Build-or-reuse. A .bench selector is read and hashed before the lock
  /// is taken; circuit, compile and universe build under the cache lock
  /// (cold starts serialize; steady state is one map lookup). The proof
  /// is not built here: CircuitBundle::redundancy() builds it on the
  /// first gate that needs it. Throws what resolve_circuit / circuit
  /// construction / universe construction throws; failures are not
  /// cached. The returned handle stays valid for the handle's lifetime
  /// regardless of eviction.
  std::shared_ptr<const Artifacts> get(const std::string& circuit_name,
                                       fault_model::FaultModel model);

  /// (Re)configure the cost bound; evicts immediately when the new bound
  /// is tighter than the live total. 0 = unbounded.
  void set_max_cost(std::size_t max_cost);

  [[nodiscard]] Stats stats() const;

  /// The cost charged for one entry (compiled node count) — exposed so
  /// tests and capacity planning can size max_cost in the same unit.
  [[nodiscard]] static std::size_t cost_of(const Artifacts& artifacts);

 private:
  struct Entry {
    std::string content;  ///< resolve_circuit key it was built from
    std::shared_ptr<const Artifacts> artifacts;
    std::size_t cost = 0;
    std::uint64_t last_use = 0;  ///< recency tick for LRU ordering
  };
  using Key = std::pair<std::string, int>;

  /// Drop LRU entries (never the newest) until cost_ fits max_cost_.
  /// Caller holds mutex_.
  void evict_locked();

  mutable std::mutex mutex_;
  std::map<Key, Entry> entries_;
  std::uint64_t tick_ = 0;
  std::size_t cost_ = 0;
  std::size_t max_cost_ = 0;
  std::size_t hits_ = 0;
  std::size_t misses_ = 0;
  std::size_t evictions_ = 0;
  std::shared_ptr<std::atomic<std::size_t>> proofs_ =
      std::make_shared<std::atomic<std::size_t>>(0);
};

}  // namespace lsiq::flow
