// LayeredDecoder: validates its configuration, owns the lane-group
// buffers, and hands a LaneArgs bundle to the runtime-selected kernel
// table (core/dispatch.hpp). The lane-group engine itself lives in
// batched_lane_impl.inc, compiled once per ISA by the
// batched_lanes_*.cpp TUs — this TU stays baseline-ISA and does
// everything the ISA TUs must not (std::vector sizing, string
// formatting), see LaneDecodeCommon.
#include "ldpc/batched_layered_decoder.hpp"

#include <algorithm>
#include <sstream>

#include "obs/decode_sink.hpp"
#include "util/contracts.hpp"

namespace cldpc::ldpc {
namespace {

void ValidateMinSum(const MinSumOptions& options) {
  CLDPC_EXPECTS(options.alpha >= 1.0, "alpha must be >= 1");
}

void ValidateFixed(const FixedMinSumOptions& options) {
  const auto& dp = options.datapath;
  CLDPC_EXPECTS(dp.message_bits >= 2 && dp.message_bits <= 16,
                "message width out of range");
  CLDPC_EXPECTS(dp.app_bits >= dp.message_bits,
                "APP accumulator narrower than messages");
  CLDPC_EXPECTS(dp.app_bits <= 30, "APP width out of range");
  // Normalization bound: keeps the rounding shift defined and
  // mag * num + 2^(shift-1) below 2^31 for any magnitude of a
  // message word of <= 16 bits.
  CLDPC_EXPECTS(dp.normalization.shift >= 0 && dp.normalization.shift <= 16,
                "normalization denominator must be in [1, 2^16]");
  CLDPC_EXPECTS(dp.normalization.num >= 1 &&
                    dp.normalization.num <= (1 << 16),
                "normalization numerator must be in [1, 2^16]");
}

std::string FixedName(const char* kind, const FixedMinSumOptions& options) {
  std::ostringstream os;
  os << kind << "(w" << options.datapath.message_bits << ")";
  return os.str();
}

}  // namespace

// ---- Lane traits ---------------------------------------------------

void DoubleLanes::Validate(const Options& options) { ValidateMinSum(options); }

DoubleLanes::Rule DoubleLanes::CheckRule(const Options& options) {
  return MinSumCheckRule(options);
}

std::string DoubleLanes::Name(const Options& options) {
  return "layered-" + MinSumFamilyName(options);
}

void F32Lanes::Validate(const Options& options) { ValidateMinSum(options); }

F32Lanes::Rule F32Lanes::CheckRule(const Options& options) {
  const auto rule = MinSumCheckRule(options);
  return {static_cast<float>(rule.scale), static_cast<float>(rule.beta)};
}

std::string F32Lanes::Name(const Options& options) {
  return "layered-f32-" + MinSumFamilyName(options);
}

void FixedLanes::Validate(const Options& options) { ValidateFixed(options); }

FixedLanes::Rule FixedLanes::CheckRule(const Options& options) {
  return options.datapath.normalization;
}

std::string FixedLanes::Name(const Options& options) {
  return FixedName("fixed-layered-nms", options);
}

void I8Lanes::Validate(const Options& options) {
  // The FixedI8Datapath width contract (batch_kernel.hpp), on top of
  // the int32 datapath's ranges: int8 messages, int16 APP arithmetic
  // with headroom, normalization that never amplifies. Everything
  // inside it is bit-identical to the int32 fixed datapath;
  // everything outside is rejected here rather than silently
  // wrapping.
  ValidateFixed(options);
  const auto& dp = options.datapath;
  CLDPC_EXPECTS(dp.message_bits <= 8,
                "i8 datapath needs message width in [2, 8]");
  CLDPC_EXPECTS(dp.app_bits <= 14,
                "i8 datapath needs APP width <= 14 (int16 headroom)");
  CLDPC_EXPECTS(dp.normalization.shift <= 8,
                "i8 datapath needs normalization denominator <= 256 "
                "(the normalizer multiplies in int16)");
  CLDPC_EXPECTS(dp.normalization.num <= (Fixed{1} << dp.normalization.shift),
                "i8 datapath needs normalization factor <= 1");
}

I8Lanes::Rule I8Lanes::CheckRule(const Options& options) {
  return options.datapath.normalization;
}

std::string I8Lanes::Name(const Options& options) {
  return FixedName("fixed-layered-nms-i8", options);
}

// ---- LayeredDecoder ------------------------------------------------

template <class Lanes>
LayeredDecoder<Lanes>::LayeredDecoder(const LdpcCode& code, Options options,
                                      std::size_t max_lanes)
    : code_(code),
      options_(options),
      max_lanes_(max_lanes),
      syndrome_(code.schedule()) {
  CLDPC_EXPECTS(max_lanes_ >= 1 && max_lanes_ <= 32,
                "batch lanes must be in [1, 32]");
  CLDPC_EXPECTS(options_.iter.max_iterations > 0, "need >= 1 iteration");
  Lanes::Validate(options_);
  rule_ = Lanes::CheckRule(options_);
  const std::size_t w = std::min(max_lanes_, Lanes::kMaxGroup);
  const std::size_t dc = code_.schedule().max_check_degree();
  app_.resize(code_.graph().num_bits() * w);
  extr_.resize(dc * w);
  if constexpr (kFixed) {
    quantizer_.emplace(options_.datapath.channel_bits,
                       options_.datapath.channel_scale);
    bc_.resize(dc * w);
  }
  msgs_.Resize(code_.graph().num_checks(), w);
  hard_.resize(code_.graph().num_bits());
}

template <class Lanes>
std::string LayeredDecoder<Lanes>::Name() const {
  return Lanes::Name(options_);
}

template <class Lanes>
DecodeResult LayeredDecoder<Lanes>::Decode(std::span<const double> llr) {
  auto results = DecodeBatch(llr, 1);
  return std::move(results.front());
}

template <class Lanes>
std::vector<DecodeResult> LayeredDecoder<Lanes>::DecodeBatch(
    std::span<const double> llrs, std::size_t num_frames) {
  const std::size_t n = code_.graph().num_bits();
  CLDPC_EXPECTS(llrs.size() == num_frames * n,
                "LLR block must be num_frames frames of length n");
  // The kernels write into this pre-sized block (the LaneDecodeCommon
  // contract: all vector growth happens here, in a baseline-ISA TU).
  std::vector<DecodeResult> results(num_frames);
  for (auto& r : results) r.bits.resize(n);

  core::LaneArgs<Lanes> a;
  a.common.code = &code_;
  a.common.iter = options_.iter;
  a.common.llrs = llrs.data();
  a.common.num_frames = num_frames;
  a.common.max_lanes = max_lanes_;
  a.common.hard_mask = hard_.data();
  a.common.syndrome = &syndrome_;
  a.common.results = results.data();
  a.rule = rule_;
  if constexpr (kFixed) {
    a.quantizer = &*quantizer_;
    a.message_bits = options_.datapath.message_bits;
    a.app_bits = options_.datapath.app_bits;
    a.bc = bc_.data();
  }
  a.app = app_.data();
  a.store = &msgs_;
  a.extr = extr_.data();
  // With a sink installed the i8 kernel runs its saturation-counting
  // twin; totals land in these locals and flush to the shard below.
  std::uint64_t msg_clamps = 0;
  std::uint64_t bn_saturations = 0;
  obs::DecodeSink* sink = nullptr;
  if constexpr (std::is_same_v<Lanes, I8Lanes>) {
    sink = obs::CurrentDecodeSink();
    if (sink != nullptr) {
      a.msg_clamps = &msg_clamps;
      a.bn_saturations = &bn_saturations;
    }
  }
  (core::ActiveLaneKernels().*Lanes::kKernel)(a);
  if (sink != nullptr) {
    sink->shard->Add(sink->ids.msg_clamp_events, msg_clamps);
    sink->shard->Add(sink->ids.bn_sat_events, bn_saturations);
  }
  return results;
}

template class LayeredDecoder<DoubleLanes>;
template class LayeredDecoder<F32Lanes>;
template class LayeredDecoder<FixedLanes>;
template class LayeredDecoder<I8Lanes>;

}  // namespace cldpc::ldpc
