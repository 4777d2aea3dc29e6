#include "fault/strobe.hpp"

#include <limits>

#include "util/error.hpp"

namespace lsiq::fault {

StrobeSchedule StrobeSchedule::full(std::size_t point_count) {
  LSIQ_EXPECT(point_count > 0, "StrobeSchedule requires >= 1 point");
  return StrobeSchedule(std::vector<std::size_t>(point_count, 0));
}

StrobeSchedule StrobeSchedule::progressive(std::size_t point_count,
                                           std::size_t step) {
  LSIQ_EXPECT(point_count > 0, "StrobeSchedule requires >= 1 point");
  // The largest start pattern is (point_count - 1) * step; a silent wrap
  // would strobe late points from a tiny pattern index instead of never.
  LSIQ_EXPECT(step == 0 ||
                  point_count - 1 <=
                      std::numeric_limits<std::size_t>::max() / step,
              "progressive: point_count * step overflows size_t");
  std::vector<std::size_t> starts(point_count);
  for (std::size_t i = 0; i < point_count; ++i) {
    starts[i] = i * step;
  }
  return StrobeSchedule(std::move(starts));
}

StrobeSchedule StrobeSchedule::from_start_patterns(
    std::vector<std::size_t> start_patterns) {
  LSIQ_EXPECT(!start_patterns.empty(), "StrobeSchedule requires >= 1 point");
  return StrobeSchedule(std::move(start_patterns));
}

std::size_t StrobeSchedule::start(std::size_t point) const {
  LSIQ_EXPECT(point < starts_.size(), "start: point out of range");
  return starts_[point];
}

bool StrobeSchedule::strobed(std::size_t point, std::size_t pattern) const {
  return pattern >= start(point);
}

std::uint64_t StrobeSchedule::lane_mask(std::size_t point,
                                        std::size_t block) const {
  LSIQ_EXPECT(point < starts_.size(), "lane_mask: point out of range");
  const std::size_t start = starts_[point];
  const std::size_t block_first = block * 64;
  if (start <= block_first) return ~0ULL;
  const std::size_t offset = start - block_first;
  if (offset >= 64) return 0;
  return ~0ULL << offset;
}

bool StrobeSchedule::is_full() const {
  for (const std::size_t s : starts_) {
    if (s != 0) return false;
  }
  return true;
}

}  // namespace lsiq::fault
