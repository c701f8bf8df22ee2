// Common decoder interface.
//
// LLR sign convention: positive LLR means "bit 0 more likely"
// (L = log P(x=0) / P(x=1)); the hard decision of an LLR is therefore
// bit = (L < 0). All decoders in this library follow it.
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "ldpc/code.hpp"

namespace cldpc::ldpc {

struct DecodeResult {
  /// Hard decisions for all n bits.
  std::vector<std::uint8_t> bits;
  /// True if the syndrome was zero when decoding stopped.
  bool converged = false;
  /// Iterations actually executed (== max unless early-terminated).
  int iterations_run = 0;
};

/// Options shared by the iterative decoders.
struct IterOptions {
  int max_iterations = 18;
  /// Stop as soon as the hard decisions satisfy all checks. The
  /// paper's hardware runs a fixed iteration count — its output rate
  /// must be constant regardless of channel quality, so it never
  /// checks the syndrome mid-decode; set this to false (spec param
  /// `et=0`) to model that fixed-latency behaviour, e.g. when
  /// comparing against the cycle-accurate architecture model.
  /// Simulations keep the default true for speed. This default is the
  /// single source of truth: every decoder (fixed-point ones
  /// included) and the registry inherit it rather than re-declaring
  /// their own.
  bool early_termination = true;
};

class Decoder {
 public:
  virtual ~Decoder() = default;

  /// Decode one frame of channel LLRs (length n).
  virtual DecodeResult Decode(std::span<const double> llr) = 0;

  /// Decode `num_frames` frames of channel LLRs, concatenated
  /// frame-major (llrs.size() == num_frames * n), returning one
  /// result per frame in frame order. The base implementation decodes
  /// frame by frame; LayeredDecoder overrides it to run frames in SIMD
  /// lane groups. Contract: per-frame results never depend on how
  /// frames are grouped into batches — every decoder's DecodeBatch is
  /// byte-identical to looping Decode (whose single frame is, for
  /// LayeredDecoder, the 1-lane group).
  virtual std::vector<DecodeResult> DecodeBatch(std::span<const double> llrs,
                                                std::size_t num_frames);

  virtual std::string Name() const = 0;
};

/// Hard decision of a single LLR.
inline std::uint8_t HardDecision(double llr) { return llr < 0.0 ? 1 : 0; }

/// Hard decisions of a whole frame.
std::vector<std::uint8_t> HardDecisions(std::span<const double> llr);

}  // namespace cldpc::ldpc
