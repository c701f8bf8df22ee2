#include "ldpc/core/syndrome_tracker.hpp"

#include "util/contracts.hpp"

namespace cldpc::ldpc::core {

void BatchSyndromeTracker::Reset(std::span<const std::uint8_t> hard,
                                 std::size_t lanes) {
  CLDPC_EXPECTS(lanes >= 1 && lanes <= 32, "lane masks are 32-bit");
  CLDPC_EXPECTS(hard.size() == sched_->num_bits() * lanes,
                "hard decision block must be n * lanes");
  for (std::size_t m = 0; m < sched_->num_checks(); ++m) {
    std::uint32_t p = 0;
    for (const auto b : sched_->CheckBits(m)) {
      const std::uint8_t* h = hard.data() + std::size_t{b} * lanes;
      for (std::size_t l = 0; l < lanes; ++l)
        p ^= std::uint32_t{h[l]} << l;
    }
    parity_[m] = p;
  }
}

void BatchSyndromeTracker::ResetMasks(std::span<const std::uint32_t> masks) {
  CLDPC_EXPECTS(masks.size() == sched_->num_bits(),
                "hard mask length must equal n");
  for (std::size_t m = 0; m < sched_->num_checks(); ++m) {
    std::uint32_t p = 0;
    for (const auto b : sched_->CheckBits(m)) p ^= masks[b];
    parity_[m] = p;
  }
}

std::uint32_t BatchSyndromeTracker::UnsatisfiedLanes() const {
  std::uint32_t acc = 0;
  for (const auto p : parity_) acc |= p;
  return acc;
}

}  // namespace cldpc::ldpc::core
