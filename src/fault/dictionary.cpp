#include "fault/dictionary.hpp"

#include <algorithm>
#include <bit>
#include <map>

#include "fault/block_driver.hpp"
#include "util/error.hpp"

namespace lsiq::fault {

namespace {

/// Each block's word lands in its class's row, dropping nothing.
struct RowWriter : BlockConsumer {
  std::vector<std::vector<std::uint64_t>>& rows;

  void visit(std::uint32_t cls, std::size_t block, std::uint64_t word,
             const std::vector<std::uint64_t>& /*point_words*/) {
    rows[cls][block] = word;
  }
};

}  // namespace

FaultDictionary FaultDictionary::build(const FaultList& faults,
                                       const sim::PatternSet& patterns,
                                       const StrobeSchedule* schedule) {
  LSIQ_EXPECT(!patterns.empty(), "FaultDictionary: empty pattern set");
  FaultDictionary dictionary;
  dictionary.pattern_count_ = patterns.size();
  dictionary.signatures_.assign(
      faults.class_count(),
      std::vector<std::uint64_t>(patterns.block_count(), 0));
  RowWriter rows{{}, dictionary.signatures_};
  drive_blocks(faults, patterns, schedule,
               std::make_shared<const circuit::CompiledCircuit>(
                   faults.circuit()),
               1, 0, faults.class_count(), rows);
  return dictionary;
}

const std::vector<std::uint64_t>& FaultDictionary::signature(
    std::size_t class_index) const {
  LSIQ_EXPECT(class_index < signatures_.size(),
              "signature: class index out of range");
  return signatures_[class_index];
}

bool FaultDictionary::detects(std::size_t class_index,
                              std::size_t pattern) const {
  LSIQ_EXPECT(pattern < pattern_count_, "detects: pattern out of range");
  const auto& sig = signature(class_index);
  return ((sig[pattern / 64] >> (pattern % 64)) & 1ULL) != 0;
}

std::vector<FaultDictionary::Candidate> FaultDictionary::diagnose(
    const std::vector<bool>& failing_patterns, std::size_t top_k) const {
  LSIQ_EXPECT(failing_patterns.size() == pattern_count_,
              "diagnose: observation length mismatch");

  // Pack the observation.
  std::vector<std::uint64_t> observed((pattern_count_ + 63) / 64, 0);
  bool any_fail = false;
  for (std::size_t t = 0; t < pattern_count_; ++t) {
    if (failing_patterns[t]) {
      observed[t / 64] |= 1ULL << (t % 64);
      any_fail = true;
    }
  }
  if (!any_fail) return {};

  std::vector<Candidate> candidates;
  candidates.reserve(signatures_.size());
  for (std::size_t c = 0; c < signatures_.size(); ++c) {
    std::size_t intersection = 0;
    std::size_t set_union = 0;
    for (std::size_t w = 0; w < observed.size(); ++w) {
      intersection += static_cast<std::size_t>(
          std::popcount(observed[w] & signatures_[c][w]));
      set_union += static_cast<std::size_t>(
          std::popcount(observed[w] | signatures_[c][w]));
    }
    if (set_union == 0) continue;  // never-detected class vs failing chip
    candidates.push_back(Candidate{
        c, static_cast<double>(intersection) /
               static_cast<double>(set_union)});
  }
  std::stable_sort(candidates.begin(), candidates.end(),
                   [](const Candidate& a, const Candidate& b) {
                     return a.score > b.score;
                   });
  if (candidates.size() > top_k) candidates.resize(top_k);
  return candidates;
}

std::size_t FaultDictionary::distinct_signature_count() const {
  std::map<std::vector<std::uint64_t>, int> seen;
  for (const auto& sig : signatures_) {
    seen.emplace(sig, 0);
  }
  return seen.size();
}

}  // namespace lsiq::fault
