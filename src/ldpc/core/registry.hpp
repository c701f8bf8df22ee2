// DecoderSpec + MakeDecoder: the one seam every binary, bench and the
// Monte-Carlo engine use to construct decoders, replacing per-binary
// hand-construction. A spec is a string:
//
//   spec   := kind [":" param ("," param)*]
//   param  := key "=" value
//
// Registered kinds (aliases in parentheses):
//   bp                                — floating-point sum-product
//   ms (minsum)                       — plain min-sum
//   nms                               — normalized min-sum
//   oms                               — offset min-sum
//   layered-ms / layered-nms (layered) / layered-oms
//   layered-nms-f32 (layered-f32)     — single-precision layered NMS
//   fixed-nms (fixed)                 — bit-accurate fixed flooding
//   fixed-layered-nms (fixed-layered) — bit-accurate fixed layered
//   fixed-layered-nms-i8 (fixed-layered-i8)
//                                     — int8 lane datapath (int16 APP
//                                       accumulator)
//
// Common params: iters=<int> (default 18), et=<0|1> (early
// termination, default 1). Float min-sum family: alpha=<float>
// (default 1.23), dyadic=<0|1> (default 1), beta=<float> (default
// 0.5, offset variants). Fixed family: wc=<int> channel bits (6),
// wm=<int> message bits (6), wapp=<int> APP bits (9), scale=<float>
// channel gain (2.0), and either alpha=<float> (quantized to the
// nearest num/16 like the hardware normalizer) or norm=<num>/<den>
// with a power-of-two denominator for the exact dyadic correction.
//
// Layered kinds additionally take batch=<lanes> (in [1, 32]): decode
// up to that many frames in SIMD lockstep per DecodeBatch call. Every
// layered kind runs the one LayeredDecoder, and per-lane results
// never depend on the lane count, so batch= is purely a throughput
// knob. Defaults: batch=1 on layered-ms/nms/oms and fixed-layered-nms,
// batch=8 on layered-nms-f32 (which trades bit-identity with the
// double path for twice the SIMD width; BER-curve equivalent), and
// batch=32 on fixed-layered-nms-i8 (lane groups up to 32 wide),
// which is byte-identical per frame to fixed-layered-nms with the
// same params — its narrower words demand wm in [2, 8], wapp in
// [wm, 14] and norm <= 1 (loud spec error otherwise), which the
// fixed defaults satisfy. norm= parts are bounded by 65536.
//
// Examples: "layered-nms:alpha=1.25,batch=8", "fixed-nms:iters=50,wm=8",
// "fixed-layered-nms:norm=13/16,et=0", "layered-nms-f32:batch=16",
// "fixed-layered-nms-i8:batch=32,iters=12".
//
// Unknown kinds and unknown or malformed params throw
// ContractViolation — a typo must never silently fall back.
#pragma once

#include <functional>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "ldpc/decoder.hpp"

namespace cldpc::ldpc {

/// A parsed decoder specification.
struct DecoderSpec {
  std::string kind;
  /// Params in source order (duplicates rejected at parse time).
  std::vector<std::pair<std::string, std::string>> params;

  static DecoderSpec Parse(const std::string& text);
  /// Canonical round-trippable form: kind:key=value,...
  std::string ToString() const;

  bool Has(const std::string& key) const;
  std::string GetString(const std::string& key,
                        const std::string& fallback) const;
  int GetInt(const std::string& key, int fallback) const;
  double GetDouble(const std::string& key, double fallback) const;
  bool GetBool(const std::string& key, bool fallback) const;

  /// Throw unless every param key is in `known` (builders call this so
  /// "alpha" on a kind that ignores it is an error, not a no-op). The
  /// vector overload serves builders that assemble the key set
  /// conditionally (e.g. appending "batch" on layered kinds).
  void ExpectOnlyKeys(std::initializer_list<const char*> known) const;
  void ExpectOnlyKeys(const std::vector<const char*>& known) const;
};

/// Builds a decoder for `code` from a parsed spec.
using DecoderBuilder = std::function<std::unique_ptr<Decoder>(
    const LdpcCode& code, const DecoderSpec& spec)>;

/// Register an additional kind (must not collide with an existing
/// one). Built-in kinds are pre-registered.
void RegisterDecoder(const std::string& kind, DecoderBuilder builder);

/// All registered kind names, sorted (for --help style listings).
std::vector<std::string> RegisteredDecoderKinds();

/// Construct a decoder from a spec. The code must outlive the decoder.
std::unique_ptr<Decoder> MakeDecoder(const LdpcCode& code,
                                     const DecoderSpec& spec);
std::unique_ptr<Decoder> MakeDecoder(const LdpcCode& code,
                                     const std::string& spec);

/// A clone factory for the engine's DecoderPool: each call constructs
/// a fresh instance of the same spec (convertible to
/// engine::DecoderFactory).
std::function<std::unique_ptr<Decoder>()> MakeDecoderFactory(
    const LdpcCode& code, const std::string& spec);

}  // namespace cldpc::ldpc
