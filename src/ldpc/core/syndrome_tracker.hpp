// Incremental syndrome tracking for layered decoders.
//
// A layered decoder knows exactly when a bit's APP sign flips — at
// the moment it writes the APP back. Re-deriving the whole syndrome
// from scratch every iteration (LdpcCode::IsCodeword, O(edges) XORs
// plus a dense bit-vector build) throws that knowledge away. This
// tracker instead keeps a live parity bit per check and touches only
// the checks adjacent to a bit whose hard decision actually changed —
// a handful of toggles per flip, and sign flips die out quickly as
// decoding converges. The convergence query is then a flat OR-scan
// over the per-check parities (O(num_checks), trivially vectorized),
// roughly 4x cheaper than a syndrome recompute on a (4, 32)-regular
// code even before counting the flip sparsity.
//
// It is lane-parallel, for LayeredDecoder's lane groups: one parity
// *mask* per check (bit l = lane l), flips applied per lane mask, and
// the OR-scan returns the mask of lanes with at least one unsatisfied
// check.
//
// Contract: after a Reset followed by Flip(n, lanes) for every bit
// whose hard decision changed since, in exactly those lanes, the
// parity state equals each lane's syndrome of its current
// hard-decision vector — a lane's UnsatisfiedLanes() bit is clear
// exactly when IsCodeword() holds for it (tests/test_batched_decoder.cpp
// locks this).
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "ldpc/core/layer_schedule.hpp"

namespace cldpc::ldpc::core {

class BatchSyndromeTracker {
 public:
  /// The schedule must outlive the tracker. Supports up to 32 lanes.
  explicit BatchSyndromeTracker(const LayerSchedule& sched)
      : sched_(&sched), parity_(sched.num_checks(), 0) {}

  /// Rebuild the parity masks from lane-major hard decisions
  /// (hard[n * lanes + l] = lane l's decision for bit n).
  void Reset(std::span<const std::uint8_t> hard, std::size_t lanes);

  /// Rebuild from packed per-bit lane masks (masks[n] bit l = lane
  /// l's decision for bit n) — the batched decoders' native hard-
  /// decision representation.
  void ResetMasks(std::span<const std::uint32_t> masks);

  /// Bit n's hard decision flipped in the lanes of `lane_mask`.
  void Flip(std::size_t n, std::uint32_t lane_mask) {
    for (const auto m : sched_->BitChecks(n)) parity_[m] ^= lane_mask;
  }

  /// Mask of lanes with at least one unsatisfied check; a zero bit
  /// means that lane's hard decisions form a codeword.
  std::uint32_t UnsatisfiedLanes() const;

 private:
  const LayerSchedule* sched_;
  std::vector<std::uint32_t> parity_;  // per check, one parity bit per lane
};

}  // namespace cldpc::ldpc::core
