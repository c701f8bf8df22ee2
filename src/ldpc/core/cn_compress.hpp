// Compressed check-node message storage — the paper's extrinsic
// memory layout, in software.
//
// The hardware decoders never store the dc outgoing check-to-bit
// messages of a check: they keep one compressed record per check —
// the two candidate output magnitudes, the argmin position and a
// per-input sign word — and reconstruct any output on the fly. That
// is what makes the extrinsic memory O(checks) instead of O(edges)
// and small enough to bank. This header is the software counterpart,
// consumed by LayeredDecoder:
//
//   CompressedCnLanes<Datapath>  — field-major SoA records over
//                                  checks x lanes (owning storage)
//   CompressedCnView<Datapath,L> — the lane-templated Store/LoadRow
//                                  kernels over that storage
//
// Reconstruction contract (the byte-identity guarantee): records
// store the two exclusive-min magnitudes ALREADY normalized.
// Normalize is a pure function applied to whichever min the argmin
// select picks, so normalize-then-select equals select-then-normalize
// bit for bit, and LoadRow reproduces exactly the value
// CnUpdate::Output / CnUpdateBatch::OutputRow computed when the
// record was written. A zero-initialized record loads as +0 in every
// datapath — identical to the "messages start at zero" state of a
// stored-message decoder.
//
// For the C2 code (dc = 32) the compressed form shrinks decoder
// message state from 32 values per check (x lanes) to one ~5-word
// record (x lanes): the batched working set drops below L2, which is
// where the measured frames/s gain comes from (bench_kernels
// BM_C2BatchedCnPass{Stored,Compressed}).
#pragma once

#include <algorithm>
#include <array>
#include <cstdint>
#include <vector>

#include "ldpc/core/batch_kernel.hpp"
#include "ldpc/core/cn_kernel.hpp"

namespace cldpc::ldpc::core {

/// Owning SoA storage of compressed records over checks x lanes,
/// field-major (field[m * lanes + l]) so every lane loop in the view
/// kernels reads contiguous same-width data. Per-position sign bits
/// are packed into Value-width UInt words — kSignWords of them per
/// lane cover the kernel's 64-position degree contract — so sign
/// extraction stays at the one SIMD width the lane loops vectorize at
/// (a single 64-bit word per lane would wedge scalar shifts into the
/// f32/fixed paths). Lane-width agnostic: the decoders size it once
/// for their widest lane group and run narrower groups over a prefix,
/// exactly like their other lane buffers.
template <class Datapath>
class CompressedCnLanes {
 public:
  using Value = typename Datapath::Value;
  using Traits = BatchTraits<Datapath>;
  using Index = typename Traits::Index;
  using UInt = typename Traits::UInt;

  static constexpr std::size_t kSignBits = 8 * sizeof(UInt);
  static constexpr std::size_t kSignWords = 64 / kSignBits;

  void Resize(std::size_t num_checks, std::size_t lanes) {
    const std::size_t size = num_checks * lanes;
    nmin1_.resize(size);
    nmin2_.resize(size);
    argmin_.resize(size);
    parity_.resize(size);
    signs_.resize(size * kSignWords);
  }

  Value* nmin1() { return nmin1_.data(); }
  Value* nmin2() { return nmin2_.data(); }
  Index* argmin() { return argmin_.data(); }
  UInt* parity() { return parity_.data(); }
  UInt* signs() { return signs_.data(); }

 private:
  std::vector<Value> nmin1_, nmin2_;
  std::vector<Index> argmin_;  // position, Value-width (see BatchTraits)
  std::vector<UInt> parity_;   // sign product as a full-width mask
  // Packed input signs, word-major then lane-major per check:
  // bit (i % kSignBits) of signs_[(m * kSignWords + i / kSignBits) *
  // lanes + l] is "input i of check m, lane l, was negative".
  std::vector<UInt> signs_;
};

// The portable (baseline-ISA) copy of the lane-templated view kernels
// (CompressedCnView). Per-ISA copies are compiled by the dispatch
// kernel TUs in their own namespaces; see lane_compress.inc.
#include "ldpc/core/lane_compress.inc"

}  // namespace cldpc::ldpc::core
