#include "ldpc/core/registry.hpp"

#include <algorithm>
#include <cstdint>
#include <cstdlib>
#include <limits>
#include <map>
#include <sstream>

#include "ldpc/batched_layered_decoder.hpp"
#include "ldpc/bp_decoder.hpp"
#include "ldpc/fixed_minsum_decoder.hpp"
#include "ldpc/minsum_decoder.hpp"
#include "util/contracts.hpp"
#include "util/keyval.hpp"

namespace cldpc::ldpc {
namespace {

// Error-message prefix for the shared kind:key=value grammar
// (util/keyval.hpp), which this registry and the code catalog both
// delegate to.
const char kWhat[] = "decoder spec";

IterOptions IterFromSpec(const DecoderSpec& spec) {
  IterOptions iter;
  iter.max_iterations = spec.GetInt("iters", 18);
  iter.early_termination = spec.GetBool("et", true);
  CLDPC_EXPECTS(iter.max_iterations > 0,
                "decoder spec: iters must be >= 1");
  return iter;
}

MinSumOptions MinSumFromSpec(const DecoderSpec& spec, MinSumVariant variant) {
  MinSumOptions o;
  o.iter = IterFromSpec(spec);
  o.variant = variant;
  o.alpha = spec.GetDouble("alpha", 1.23);
  o.dyadic_alpha = spec.GetBool("dyadic", true);
  o.beta = spec.GetDouble("beta", 0.5);
  return o;
}

// `batch` (frames per SIMD lane group) only makes sense on the
// layered kinds, which all run LayeredDecoder; on flooding kinds it
// must stay a loud spec error.
void ExpectKeysMaybeBatch(const DecoderSpec& spec,
                          std::vector<const char*> keys, bool layered) {
  if (layered) keys.push_back("batch");
  spec.ExpectOnlyKeys(keys);
}

void ExpectMinSumKeys(const DecoderSpec& spec, MinSumVariant variant,
                      bool layered) {
  switch (variant) {
    case MinSumVariant::kPlain:
      ExpectKeysMaybeBatch(spec, {"iters", "et"}, layered);
      break;
    case MinSumVariant::kNormalized:
      ExpectKeysMaybeBatch(spec, {"iters", "et", "alpha", "dyadic"}, layered);
      break;
    case MinSumVariant::kOffset:
      ExpectKeysMaybeBatch(spec, {"iters", "et", "beta"}, layered);
      break;
  }
}

/// Lane count from the `batch` param (validated; `fallback` when the
/// param is absent).
std::size_t BatchFromSpec(const DecoderSpec& spec, int fallback) {
  const int batch = spec.GetInt("batch", fallback);
  CLDPC_EXPECTS(batch >= 1 && batch <= 32,
                "decoder spec: batch must be in [1, 32]");
  return static_cast<std::size_t>(batch);
}

/// "13/16" -> DyadicFraction{13, 4}; the denominator must be a power
/// of two (the only multiplier shape the hardware normalizer has).
/// Both parts are bounded by 2^16, which keeps the normalizer's
/// mag * num + 2^(shift-1) inside int32 for every message width the
/// spec accepts (wm <= 16).
DyadicFraction ParseDyadic(const std::string& v) {
  const auto slash = v.find('/');
  CLDPC_EXPECTS(slash != std::string::npos,
                "decoder spec: norm must be <num>/<den>, got: " + v);
  const auto parse_part = [&v](const std::string& part) {
    char* end = nullptr;
    const long parsed = std::strtol(part.c_str(), &end, 10);
    CLDPC_EXPECTS(end != part.c_str() && *end == '\0',
                  "decoder spec: bad norm integer in: " + v);
    return parsed;
  };
  const long num = parse_part(v.substr(0, slash));
  const long den = parse_part(v.substr(slash + 1));
  CLDPC_EXPECTS(num > 0 && den > 0, "decoder spec: norm parts must be > 0");
  CLDPC_EXPECTS(num <= (1L << 16) && den <= (1L << 16),
                "decoder spec: norm parts must be <= 65536, got: " + v);
  CLDPC_EXPECTS((den & (den - 1)) == 0,
                "decoder spec: norm denominator must be a power of two");
  int shift = 0;
  for (long d = den; d > 1; d >>= 1) ++shift;
  return DyadicFraction{static_cast<std::int32_t>(num), shift};
}

FixedMinSumOptions FixedFromSpec(const DecoderSpec& spec, bool layered) {
  ExpectKeysMaybeBatch(
      spec, {"iters", "et", "wc", "wm", "wapp", "scale", "alpha", "norm"},
      layered);
  FixedMinSumOptions o;
  o.iter = IterFromSpec(spec);
  o.datapath.channel_bits = spec.GetInt("wc", o.datapath.channel_bits);
  o.datapath.message_bits = spec.GetInt("wm", o.datapath.message_bits);
  o.datapath.app_bits = spec.GetInt("wapp", o.datapath.app_bits);
  o.datapath.channel_scale = spec.GetDouble("scale", o.datapath.channel_scale);
  // Range-check here, before any width reaches a shift: word widths
  // outside the modelled hardware range must be a loud spec error,
  // not undefined behavior in SymmetricMax.
  CLDPC_EXPECTS(
      o.datapath.channel_bits >= 2 && o.datapath.channel_bits <= 16,
      "decoder spec: wc must be in [2, 16]");
  CLDPC_EXPECTS(
      o.datapath.message_bits >= 2 && o.datapath.message_bits <= 16,
      "decoder spec: wm must be in [2, 16]");
  CLDPC_EXPECTS(o.datapath.app_bits >= o.datapath.message_bits &&
                    o.datapath.app_bits <= 30,
                "decoder spec: wapp must be in [wm, 30]");
  CLDPC_EXPECTS(o.datapath.channel_scale > 0.0,
                "decoder spec: scale must be > 0");
  CLDPC_EXPECTS(!(spec.Has("alpha") && spec.Has("norm")),
                "decoder spec: give alpha or norm, not both");
  if (spec.Has("alpha")) {
    const double alpha = spec.GetDouble("alpha", 1.23);
    CLDPC_EXPECTS(alpha >= 1.0, "decoder spec: alpha must be >= 1");
    o.datapath.normalization = NearestDyadic(1.0 / alpha, 4);
  } else if (spec.Has("norm")) {
    o.datapath.normalization = ParseDyadic(spec.GetString("norm", ""));
  }
  return o;
}

std::map<std::string, DecoderBuilder>& Registry() {
  static std::map<std::string, DecoderBuilder> registry = [] {
    std::map<std::string, DecoderBuilder> r;
    r["bp"] = [](const LdpcCode& code, const DecoderSpec& spec) {
      spec.ExpectOnlyKeys({"iters", "et"});
      return std::make_unique<BpDecoder>(code, IterFromSpec(spec));
    };
    const auto minsum = [](MinSumVariant variant, bool layered) {
      return [variant, layered](const LdpcCode& code,
                                const DecoderSpec& spec)
                 -> std::unique_ptr<Decoder> {
        ExpectMinSumKeys(spec, variant, layered);
        const auto options = MinSumFromSpec(spec, variant);
        if (layered) {
          return std::make_unique<LayeredDecoder<DoubleLanes>>(
              code, options, BatchFromSpec(spec, 1));
        }
        return std::make_unique<MinSumDecoder>(code, options);
      };
    };
    r["ms"] = minsum(MinSumVariant::kPlain, false);
    r["nms"] = minsum(MinSumVariant::kNormalized, false);
    r["oms"] = minsum(MinSumVariant::kOffset, false);
    r["layered-ms"] = minsum(MinSumVariant::kPlain, true);
    r["layered-nms"] = minsum(MinSumVariant::kNormalized, true);
    r["layered-oms"] = minsum(MinSumVariant::kOffset, true);
    // Single-precision layered path: a new datapath (not a bit-exact
    // view of an existing decoder), so a kind of its own. Twice the
    // SIMD lanes per register of the double path; defaults to 8
    // lanes, since batching is its whole point.
    r["layered-nms-f32"] = [](const LdpcCode& code, const DecoderSpec& spec)
        -> std::unique_ptr<Decoder> {
      ExpectMinSumKeys(spec, MinSumVariant::kNormalized, /*layered=*/true);
      const auto options = MinSumFromSpec(spec, MinSumVariant::kNormalized);
      return std::make_unique<LayeredDecoder<F32Lanes>>(
          code, options, BatchFromSpec(spec, 8));
    };
    r["fixed-nms"] = [](const LdpcCode& code, const DecoderSpec& spec) {
      return std::make_unique<FixedMinSumDecoder>(
          code, FixedFromSpec(spec, /*layered=*/false));
    };
    r["fixed-layered-nms"] = [](const LdpcCode& code,
                                const DecoderSpec& spec)
        -> std::unique_ptr<Decoder> {
      const auto options = FixedFromSpec(spec, /*layered=*/true);
      return std::make_unique<LayeredDecoder<FixedLanes>>(
          code, options, BatchFromSpec(spec, 1));
    };
    // Int8 lane datapath: fixed-layered-nms's quantization semantics
    // with messages in int8 lanes over an int16 APP accumulator —
    // 4x the lane density of the int32 fixed path, and byte-identical
    // to it per frame under the width contract the decoder enforces
    // (wm <= 8, wapp <= 14, norm <= 1; the fixed defaults qualify).
    // Defaults to the full 32-lane group width.
    r["fixed-layered-nms-i8"] = [](const LdpcCode& code,
                                   const DecoderSpec& spec)
        -> std::unique_ptr<Decoder> {
      const auto options = FixedFromSpec(spec, /*layered=*/true);
      return std::make_unique<LayeredDecoder<I8Lanes>>(
          code, options, BatchFromSpec(spec, 32));
    };
    // Aliases.
    r["minsum"] = r["ms"];
    r["layered"] = r["layered-nms"];
    r["layered-f32"] = r["layered-nms-f32"];
    r["fixed"] = r["fixed-nms"];
    r["fixed-layered"] = r["fixed-layered-nms"];
    r["fixed-layered-i8"] = r["fixed-layered-nms-i8"];
    return r;
  }();
  return registry;
}

}  // namespace

DecoderSpec DecoderSpec::Parse(const std::string& text) {
  auto parsed = keyval::Parse(text, kWhat);
  DecoderSpec spec;
  spec.kind = std::move(parsed.kind);
  spec.params = std::move(parsed.params);
  return spec;
}

std::string DecoderSpec::ToString() const {
  return keyval::ToString(kind, params);
}

bool DecoderSpec::Has(const std::string& key) const {
  return keyval::Has(params, key);
}

std::string DecoderSpec::GetString(const std::string& key,
                                   const std::string& fallback) const {
  return keyval::GetString(params, key, fallback);
}

int DecoderSpec::GetInt(const std::string& key, int fallback) const {
  const std::int64_t value = keyval::GetInt(params, key, fallback, kWhat);
  // Decoder params are ints; a value that only fits in 64 bits must
  // not silently truncate (e.g. iters=5000000000 -> 705032704).
  CLDPC_EXPECTS(value >= std::numeric_limits<int>::min() &&
                    value <= std::numeric_limits<int>::max(),
                std::string(kWhat) + ": integer out of range for '" + key +
                    "': " + GetString(key, ""));
  return static_cast<int>(value);
}

double DecoderSpec::GetDouble(const std::string& key, double fallback) const {
  return keyval::GetDouble(params, key, fallback, kWhat);
}

bool DecoderSpec::GetBool(const std::string& key, bool fallback) const {
  return keyval::GetBool(params, key, fallback, kWhat);
}

void DecoderSpec::ExpectOnlyKeys(
    std::initializer_list<const char*> known) const {
  ExpectOnlyKeys(std::vector<const char*>(known));
}

void DecoderSpec::ExpectOnlyKeys(const std::vector<const char*>& known) const {
  keyval::ExpectOnlyKeys(kind, params, known, kWhat);
}

void RegisterDecoder(const std::string& kind, DecoderBuilder builder) {
  CLDPC_EXPECTS(static_cast<bool>(builder), "decoder builder must be set");
  const auto [it, inserted] = Registry().emplace(kind, std::move(builder));
  CLDPC_EXPECTS(inserted, "decoder kind already registered: " + kind);
}

std::vector<std::string> RegisteredDecoderKinds() {
  std::vector<std::string> kinds;
  kinds.reserve(Registry().size());
  for (const auto& [kind, builder] : Registry()) kinds.push_back(kind);
  return kinds;
}

std::unique_ptr<Decoder> MakeDecoder(const LdpcCode& code,
                                     const DecoderSpec& spec) {
  const auto it = Registry().find(spec.kind);
  if (it == Registry().end()) {
    std::string known;
    for (const auto& kind : RegisteredDecoderKinds()) {
      if (!known.empty()) known += ", ";
      known += kind;
    }
    CLDPC_EXPECTS(false, "unknown decoder kind '" + spec.kind +
                             "' (registered: " + known + ")");
  }
  auto decoder = it->second(code, spec);
  CLDPC_ENSURES(decoder != nullptr, "decoder builder returned null");
  return decoder;
}

std::unique_ptr<Decoder> MakeDecoder(const LdpcCode& code,
                                     const std::string& spec) {
  return MakeDecoder(code, DecoderSpec::Parse(spec));
}

std::function<std::unique_ptr<Decoder>()> MakeDecoderFactory(
    const LdpcCode& code, const std::string& spec) {
  // Parse (and validate against the registry) once, up-front, so a
  // bad spec fails at wiring time, not at first clone.
  auto parsed = DecoderSpec::Parse(spec);
  MakeDecoder(code, parsed);
  return [&code, parsed] { return MakeDecoder(code, parsed); };
}

}  // namespace cldpc::ldpc
