// Tester strobe schedules: which observation points the tester actually
// compares at which pattern.
//
// Production testers of the paper's era (the Fairchild Sentry among them)
// control strobing per output pin per pattern: a functional program begins
// by exercising and observing a narrow slice of the chip and brings more
// outputs under observation as it proceeds. This is why Table 1's first
// strobed pattern covers only 5% of faults — single full-observability
// patterns on combinational logic would start far higher.
//
// A StrobeSchedule assigns each observed point the pattern index from
// which it is strobed; detection before that index does not count. The
// default ("full") schedule strobes everything from pattern 0 and is what
// the fault simulators use when no schedule is given.
#pragma once

#include <cstdint>
#include <vector>

namespace lsiq::fault {

class StrobeSchedule {
 public:
  /// Everything strobed from the first pattern (classic scan testing).
  static StrobeSchedule full(std::size_t point_count);

  /// Point i strobed from pattern i * step (progressive bring-up).
  static StrobeSchedule progressive(std::size_t point_count,
                                    std::size_t step);

  /// Explicit per-point start patterns.
  static StrobeSchedule from_start_patterns(
      std::vector<std::size_t> start_patterns);

  [[nodiscard]] std::size_t point_count() const noexcept {
    return starts_.size();
  }

  /// First pattern at which `point` is compared; it stays strobed from
  /// there to the end of the program.
  [[nodiscard]] std::size_t start(std::size_t point) const;

  /// True when the point is compared at the given pattern.
  [[nodiscard]] bool strobed(std::size_t point, std::size_t pattern) const;

  /// Lanes of a 64-pattern block in which `point` is strobed (bit p set
  /// when pattern block*64+p is strobed).
  [[nodiscard]] std::uint64_t lane_mask(std::size_t point,
                                        std::size_t block) const;

  /// True when every point is strobed from pattern 0.
  [[nodiscard]] bool is_full() const;

 private:
  explicit StrobeSchedule(std::vector<std::size_t> starts)
      : starts_(std::move(starts)) {}

  std::vector<std::size_t> starts_;
};

}  // namespace lsiq::fault
