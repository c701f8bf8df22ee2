// The layered (turbo-decoding message passing) normalized min-sum
// decoder — one class template, LayeredDecoder<Lanes>, for every
// layered datapath, mirroring the paper's one generic datapath with
// the word width as a parameter. Layered scheduling propagates
// updated APPs within an iteration and typically converges in roughly
// half the iterations of flooding.
//
// Frames are decoded in lane groups: B codeword frames walk one
// layered schedule in lockstep, with compressed per-check message
// storage (one min1/min2/argmin/sign-word record per check per lane,
// see core/cn_compress.hpp) so the CN kernel's min1/min2/sign scan
// vectorizes across lanes while the extrinsic state stays
// O(checks * lanes) — the software analogue of the paper's
// multi-frame compressed memory words. A single frame is simply the
// 1-lane group; per-lane results never depend on the grouping, so
// `max_lanes` (spec param `batch`) is purely a throughput knob.
//
// Per check m, in ascending check order (block-row major for QC
// codes, matching the hardware, which sequences its CN units per
// block row so that APP updates never collide):
//   t         = app - message(record[m])    (full APP precision)
//   bc        = narrow(t)                   (CN input; fixed: sat Wm)
//   record[m] = compress(CnUpdate(bc))
//   app       = update(t + message(record[m]))  (fixed: sat Wapp)
// Keeping t at APP width is essential: routing the update through the
// narrow message word would throttle the accumulated confidence and
// destroy the layered convergence advantage.
//
// The Lanes trait picks the datapath:
//   DoubleLanes — double lanes (layered-ms/nms/oms), the reference
//                 floating-point datapath.
//   F32Lanes    — float lanes: twice the SIMD width; a datapath of
//                 its own (layered-nms-f32), validated by BER-curve
//                 equivalence, not byte identity.
//   FixedLanes  — bit-accurate fixed-point lanes (fixed-layered-nms),
//                 the behavioural reference of the architecture
//                 model's layered schedule (arch/).
//   I8Lanes     — int8 message lanes over an int16 saturating APP
//                 accumulator (fixed-layered-nms-i8); under its width
//                 contract byte-identical per lane to FixedLanes, at
//                 4x the lane density.
//
// Groups go up to Lanes::kMaxGroup wide (16; i8: 32), compile-time
// widths 32/16/8/4/2/1, largest fitting group first. Early
// termination is tracked per lane with the incremental
// BatchSyndromeTracker: a converged lane's result is captured at its
// convergence iteration and the lane drops out of the convergence
// bookkeeping (its SIMD lane keeps carrying values — that costs
// nothing); the group stops as soon as every lane has finished.
//
// The lane-group engine itself is compiled once per ISA and selected
// at runtime (core/dispatch.hpp): DecodeBatch packs the decoder's
// buffers into a LaneArgs<Lanes> and calls the trait's entry of the
// active LaneKernelTable. Every table computes bit-identical results,
// so the selection only moves throughput.
#pragma once

#include <optional>
#include <string>
#include <type_traits>

#include "ldpc/core/cn_compress.hpp"
#include "ldpc/core/dispatch.hpp"
#include "ldpc/core/syndrome_tracker.hpp"
#include "ldpc/decoder.hpp"
#include "ldpc/fixed_minsum_decoder.hpp"
#include "ldpc/minsum_decoder.hpp"

namespace cldpc::ldpc {

/// Widest lane group of the double/f32/int32 datapaths; larger batch
/// requests are processed as multiple groups.
inline constexpr std::size_t kMaxLaneGroup = 16;

/// The i8 datapath's widest lane group: int8 lanes are 4x denser per
/// SIMD register, so its ladder gets a 32-wide rung (the packed
/// uint32 lane masks cap any further widening).
inline constexpr std::size_t kMaxLaneGroupI8 = 32;

// ---- Lane traits ---------------------------------------------------
//
// Each supplies the options type, the lane value types (Value: CN
// message lane, AppValue: APP accumulator lane), the CN rule, the
// widest lane group, its constructor validation and Name(), and its
// LaneKernelTable entry.

struct DoubleLanes {
  using Options = MinSumOptions;
  using Datapath = core::FloatDatapath;
  using Value = double;
  using AppValue = double;
  using Rule = core::FloatCheckRule;
  static constexpr std::size_t kMaxGroup = kMaxLaneGroup;
  static constexpr auto kKernel = &core::LaneKernelTable::decode_double;
  static void Validate(const Options& options);
  static Rule CheckRule(const Options& options);
  static std::string Name(const Options& options);
};

struct F32Lanes {
  using Options = MinSumOptions;
  using Datapath = core::Float32Datapath;
  using Value = float;
  using AppValue = float;
  using Rule = core::Float32CheckRule;
  static constexpr std::size_t kMaxGroup = kMaxLaneGroup;
  static constexpr auto kKernel = &core::LaneKernelTable::decode_f32;
  static void Validate(const Options& options);
  static Rule CheckRule(const Options& options);
  static std::string Name(const Options& options);
};

struct FixedLanes {
  using Options = FixedMinSumOptions;
  using Datapath = core::FixedDatapath;
  using Value = Fixed;
  using AppValue = Fixed;
  using Rule = DyadicFraction;
  static constexpr std::size_t kMaxGroup = kMaxLaneGroup;
  static constexpr auto kKernel = &core::LaneKernelTable::decode_fixed;
  static void Validate(const Options& options);
  static Rule CheckRule(const Options& options);
  static std::string Name(const Options& options);
};

/// The int8 lane datapath. Construction enforces the FixedI8Datapath
/// width contract — message_bits <= 8, app_bits <= 14 and
/// normalization <= 1 with a denominator <= 256 — under which every
/// lane reproduces the int32 FixedLanes decoder bit for bit (see
/// batch_kernel.hpp for the argument), so the narrow datapath costs
/// nothing in BER.
struct I8Lanes {
  using Options = FixedMinSumOptions;
  using Datapath = core::FixedI8Datapath;
  using Value = std::int8_t;
  using AppValue = std::int16_t;
  using Rule = DyadicFraction;
  static constexpr std::size_t kMaxGroup = kMaxLaneGroupI8;
  static constexpr auto kKernel = &core::LaneKernelTable::decode_i8;
  static void Validate(const Options& options);
  static Rule CheckRule(const Options& options);
  static std::string Name(const Options& options);
};

template <class Lanes>
class LayeredDecoder final : public Decoder {
 public:
  using Options = typename Lanes::Options;

  /// The code must outlive the decoder. `max_lanes` (in [1, 32]) caps
  /// the frames decoded in lockstep per lane group. Check degrees
  /// must be in [2, 64] (the CN kernel's contract; empty checks are
  /// skipped).
  LayeredDecoder(const LdpcCode& code, Options options,
                 std::size_t max_lanes = 1);

  DecodeResult Decode(std::span<const double> llr) override;
  std::vector<DecodeResult> DecodeBatch(std::span<const double> llrs,
                                        std::size_t num_frames) override;
  std::string Name() const override;

  const Options& options() const { return options_; }
  std::size_t max_lanes() const { return max_lanes_; }

 private:
  static constexpr bool kFixed =
      std::is_same_v<Options, FixedMinSumOptions>;

  const LdpcCode& code_;
  Options options_;
  std::size_t max_lanes_;
  typename Lanes::Rule rule_;
  std::optional<LlrQuantizer> quantizer_;  // fixed datapaths only
  // Lane-group state, sized once for the widest group (no per-decode
  // allocation). msgs_ is the compressed per-check extrinsic memory.
  std::vector<typename Lanes::AppValue> app_, extr_;
  std::vector<typename Lanes::Value> bc_;  // narrowed CN inputs (fixed)
  core::CompressedCnLanes<typename Lanes::Datapath> msgs_;
  std::vector<std::uint32_t> hard_;  // packed per-bit lane sign masks
  core::BatchSyndromeTracker syndrome_;
};

extern template class LayeredDecoder<DoubleLanes>;
extern template class LayeredDecoder<F32Lanes>;
extern template class LayeredDecoder<FixedLanes>;
extern template class LayeredDecoder<I8Lanes>;

}  // namespace cldpc::ldpc
