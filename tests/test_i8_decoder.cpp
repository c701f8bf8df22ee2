// The int8 lane datapath and runtime ISA dispatch contracts:
//
//  1. Oracle identity: the compressed i8 batched decoder matches a
//     stored-per-edge scalar int8 reference (written here from the
//     FixedI8Datapath semantics alone) bit for bit — so compression
//     and lane batching change nothing about the arithmetic.
//  2. Width-contract identity: under the enforced contract (wm <= 8,
//     wapp <= 14, norm <= 1) the i8 decoder is byte-identical to the
//     int32 fixed-layered-nms decoder per frame, across batch sizes
//     and early-termination settings; through the engine, the BER
//     curve equals the int32 fixed curve exactly at every thread
//     count.
//  3. Spec validation: widths outside the contract are loud errors.
//  4. Dispatch: the scalar kernel table always exists, every usable
//     ISA tier produces byte-identical decodes, and the forced-ISA
//     hook + name grammar behave.
//  5. Saturation counters: with a sink installed the i8 decoder
//     reports clamp events without changing any decode result.
#include "ldpc/batched_layered_decoder.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "channel/awgn.hpp"
#include "ldpc/core/dispatch.hpp"
#include "ldpc/core/registry.hpp"
#include "ldpc/encoder.hpp"
#include "obs/decode_sink.hpp"
#include "qc/small_codes.hpp"
#include "sim/ber_runner.hpp"
#include "util/contracts.hpp"
#include "util/rng.hpp"

namespace cldpc::ldpc {
namespace {

const LdpcCode& SmallCode() {
  static const auto qc = qc::MakeSmallQcCode();
  static const LdpcCode code(qc.Expand(), qc.q());
  return code;
}

std::vector<double> NoisyFrame(const LdpcCode& code, double ebn0,
                               std::uint64_t seed) {
  static const Encoder encoder(SmallCode());
  Xoshiro256pp rng(seed);
  std::vector<std::uint8_t> info(code.k());
  for (auto& b : info) b = rng.NextBit() ? 1 : 0;
  const auto cw = encoder.Encode(info);
  return channel::TransmitBpskAwgn(cw, ebn0, code.Rate(), seed ^ 0xBEEF);
}

std::vector<double> NoisyFrames(const LdpcCode& code, std::size_t count,
                                double ebn0, std::uint64_t base_seed) {
  std::vector<double> llrs;
  llrs.reserve(count * code.n());
  for (std::size_t f = 0; f < count; ++f) {
    const auto frame = NoisyFrame(code, ebn0, base_seed + f);
    llrs.insert(llrs.end(), frame.begin(), frame.end());
  }
  return llrs;
}

void ExpectSameResult(const DecodeResult& got, const DecodeResult& want,
                      const std::string& context) {
  EXPECT_EQ(got.bits, want.bits) << context;
  EXPECT_EQ(got.converged, want.converged) << context;
  EXPECT_EQ(got.iterations_run, want.iterations_run) << context;
}

// ---- 1. Stored-per-edge int8 oracle. ------------------------------

// A deliberately naive scalar int8 layered decoder: every check keeps
// its dc check-to-bit messages as literal int8 values (no compressed
// records, no lanes), APPs accumulate in int16, and every narrowing
// is an explicit symmetric saturation. Written straight from the
// datapath definition so it shares no kernel code with the
// implementation under test.
DecodeResult ReferenceI8Decode(const LdpcCode& code,
                               const FixedMinSumOptions& o,
                               std::span<const double> llr) {
  const auto& sched = code.schedule();
  const auto& dp = o.datapath;
  const LlrQuantizer quantizer(dp.channel_bits, dp.channel_scale);
  const std::int8_t kMax = 127;

  std::vector<std::int16_t> app(code.n());
  for (std::size_t n = 0; n < code.n(); ++n) {
    app[n] = static_cast<std::int16_t>(
        SaturateSymmetric(quantizer.Quantize(llr[n]), dp.app_bits));
  }
  std::vector<std::vector<std::int8_t>> msgs(sched.num_checks());
  for (std::size_t m = 0; m < sched.num_checks(); ++m)
    msgs[m].assign(sched.Degree(m), 0);

  DecodeResult result;
  std::vector<std::uint8_t> hard(code.n());
  const auto harden = [&] {
    for (std::size_t n = 0; n < code.n(); ++n)
      hard[n] = app[n] < 0 ? 1 : 0;
  };

  for (int iter = 1; iter <= o.iter.max_iterations; ++iter) {
    for (std::size_t m = 0; m < sched.num_checks(); ++m) {
      const std::size_t dc = sched.Degree(m);
      if (dc == 0) continue;
      const auto bits = sched.CheckBits(m);
      std::vector<std::int16_t> extr(dc);
      std::vector<std::int8_t> bc(dc);
      for (std::size_t i = 0; i < dc; ++i) {
        extr[i] = static_cast<std::int16_t>(app[bits[i]] - msgs[m][i]);
        bc[i] = static_cast<std::int8_t>(
            SaturateSymmetric(extr[i], dp.message_bits));
      }
      // The CN scan, longhand: two smallest magnitudes, where the
      // smallest sits (first occurrence), and the overall sign.
      std::int8_t min1 = kMax, min2 = kMax;
      std::size_t argmin = 0;
      bool sign_product_negative = false;
      for (std::size_t i = 0; i < dc; ++i) {
        const std::int8_t mag =
            static_cast<std::int8_t>(bc[i] < 0 ? -bc[i] : bc[i]);
        if (mag < min1) {
          min2 = min1;
          min1 = mag;
          argmin = i;
        } else if (mag < min2) {
          min2 = mag;
        }
        sign_product_negative ^= bc[i] < 0;
      }
      for (std::size_t i = 0; i < dc; ++i) {
        const std::int8_t excl = i == argmin ? min2 : min1;
        const std::int8_t mag =
            static_cast<std::int8_t>(dp.normalization.Apply(excl));
        const bool negative = sign_product_negative ^ (bc[i] < 0);
        msgs[m][i] = static_cast<std::int8_t>(negative ? -mag : mag);
        app[bits[i]] = static_cast<std::int16_t>(
            SaturateSymmetric(static_cast<Fixed>(extr[i]) + msgs[m][i],
                              dp.app_bits));
      }
    }
    harden();
    result.iterations_run = iter;
    if (o.iter.early_termination && code.IsCodeword(hard)) break;
  }
  harden();
  result.bits = hard;
  result.converged = code.IsCodeword(hard);
  return result;
}

TEST(I8Decoder, MatchesStoredPerEdgeReference) {
  const auto& code = SmallCode();
  for (const bool et : {true, false}) {
    FixedMinSumOptions o;
    o.iter.max_iterations = 12;
    o.iter.early_termination = et;
    LayeredDecoder<I8Lanes> dec(code, o, /*max_lanes=*/8);
    const std::size_t frames = 10;
    const auto llrs = NoisyFrames(code, frames, 4.0, 321);
    const auto results = dec.DecodeBatch(llrs, frames);
    ASSERT_EQ(results.size(), frames);
    for (std::size_t f = 0; f < frames; ++f) {
      const std::span<const double> frame(llrs.data() + f * code.n(),
                                          code.n());
      ExpectSameResult(results[f], ReferenceI8Decode(code, o, frame),
                       "et=" + std::to_string(et) + " frame " +
                           std::to_string(f));
    }
  }
}

// ---- 2. Width-contract identity with the int32 fixed decoder. -----

TEST(I8Decoder, ByteIdenticalToInt32FixedScalar) {
  const auto& code = SmallCode();
  const char* variants[] = {
      "iters=12",
      "iters=8,wm=5",
      "iters=6,et=0",
      "iters=12,wm=8,wapp=14",
      "iters=10,norm=13/16",
  };
  for (const char* variant : variants) {
    const auto scalar =
        MakeDecoder(code, std::string("fixed-layered-nms:") + variant);
    for (const std::size_t batch :
         {std::size_t{1}, std::size_t{8}, std::size_t{32}}) {
      const auto i8 = MakeDecoder(
          code, std::string("fixed-layered-nms-i8:") + variant +
                    ",batch=" + std::to_string(batch));
      // More frames than lanes, so chunking across groups (and the
      // ragged tail below the group width) is covered.
      const std::size_t frames = batch + 3;
      const auto llrs = NoisyFrames(code, frames, 4.2, 100);
      const auto results = i8->DecodeBatch(llrs, frames);
      ASSERT_EQ(results.size(), frames);
      for (std::size_t f = 0; f < frames; ++f) {
        const std::span<const double> frame(llrs.data() + f * code.n(),
                                            code.n());
        ExpectSameResult(results[f], scalar->Decode(frame),
                         std::string(variant) + " batch=" +
                             std::to_string(batch) + " frame " +
                             std::to_string(f));
      }
    }
  }
}

// Per-lane results must not depend on how frames are grouped into
// lane groups (32-wide vs 8-wide vs one frame at a time).
TEST(I8Decoder, GroupingIndependent) {
  const auto& code = SmallCode();
  const auto a = MakeDecoder(code, "fixed-layered-nms-i8:iters=10,batch=32");
  const auto b = MakeDecoder(code, "fixed-layered-nms-i8:iters=10,batch=5");
  const auto c = MakeDecoder(code, "fixed-layered-nms-i8:iters=10,batch=1");
  const std::size_t frames = 35;
  const auto llrs = NoisyFrames(code, frames, 4.2, 700);
  const auto ra = a->DecodeBatch(llrs, frames);
  const auto rb = b->DecodeBatch(llrs, frames);
  ASSERT_EQ(ra.size(), frames);
  ASSERT_EQ(rb.size(), frames);
  for (std::size_t f = 0; f < frames; ++f) {
    ExpectSameResult(ra[f], rb[f], "batch 32 vs 5, frame " +
                                       std::to_string(f));
    const std::span<const double> frame(llrs.data() + f * code.n(),
                                        code.n());
    ExpectSameResult(ra[f], c->Decode(frame),
                     "batch 32 vs Decode, frame " + std::to_string(f));
  }
}

// Through the engine: the i8 spec's BER curve equals the int32 fixed
// spec's exactly, at every thread count (identity makes the usual
// "close in BER" ablation an equality).
TEST(I8Decoder, EngineCurveIdenticalToInt32FixedSpec) {
  const auto& code = SmallCode();
  static const Encoder encoder(code);
  sim::BerConfig config;
  config.ebn0_db = {4.0};
  config.max_frames = 48;
  config.min_frame_errors = 12;
  config.batch_frames = 32;

  const auto run = [&](std::size_t threads, const std::string& spec) {
    auto cfg = config;
    cfg.threads = threads;
    sim::BerRunner runner(code, encoder, cfg);
    return runner.RunSpec(spec);
  };

  const auto scalar = run(1, "fixed-layered-nms:iters=12");
  for (const std::size_t threads : {std::size_t{1}, std::size_t{3}}) {
    const auto i8 = run(threads, "fixed-layered-nms-i8:iters=12,batch=32");
    ASSERT_EQ(i8.points.size(), scalar.points.size());
    for (std::size_t i = 0; i < scalar.points.size(); ++i) {
      EXPECT_EQ(i8.points[i].bit_errors.errors(),
                scalar.points[i].bit_errors.errors())
          << "threads " << threads;
      EXPECT_EQ(i8.points[i].frame_errors.errors(),
                scalar.points[i].frame_errors.errors())
          << "threads " << threads;
      EXPECT_EQ(i8.points[i].frames, scalar.points[i].frames)
          << "threads " << threads;
      EXPECT_EQ(i8.points[i].avg_iterations,
                scalar.points[i].avg_iterations)
          << "threads " << threads;
    }
  }
}

// ---- 3. Spec validation. ------------------------------------------

TEST(I8Decoder, RejectsOutOfContractWidths) {
  const auto& code = SmallCode();
  // Messages wider than int8.
  EXPECT_THROW(MakeDecoder(code, "fixed-layered-nms-i8:wm=9"),
               ContractViolation);
  // APP wider than the int16 headroom allows.
  EXPECT_THROW(MakeDecoder(code, "fixed-layered-nms-i8:wapp=15"),
               ContractViolation);
  // Amplifying normalization (9/8 > 1) could push magnitudes out of
  // int8.
  EXPECT_THROW(MakeDecoder(code, "fixed-layered-nms-i8:norm=9/8"),
               ContractViolation);
  // Lane bounds are the shared batch grammar.
  EXPECT_THROW(MakeDecoder(code, "fixed-layered-nms-i8:batch=0"),
               ContractViolation);
  EXPECT_THROW(MakeDecoder(code, "fixed-layered-nms-i8:batch=33"),
               ContractViolation);
  // In-contract specs (and the alias) construct fine; the name makes
  // the datapath visible in reports.
  EXPECT_EQ(MakeDecoder(code, "fixed-layered-nms-i8")->Name(),
            "fixed-layered-nms-i8(w6)");
  EXPECT_EQ(MakeDecoder(code, "fixed-layered-i8:wm=8,wapp=14")->Name(),
            "fixed-layered-nms-i8(w8)");
}

// ---- 4. Runtime ISA dispatch. -------------------------------------

TEST(Dispatch, ScalarTableAlwaysUsable) {
  const auto* scalar = core::LaneKernelsFor(core::Isa::kScalar);
  ASSERT_NE(scalar, nullptr);
  EXPECT_STREQ(scalar->name, "scalar");
  EXPECT_NE(scalar->decode_double, nullptr);
  EXPECT_NE(scalar->decode_f32, nullptr);
  EXPECT_NE(scalar->decode_fixed, nullptr);
  EXPECT_NE(scalar->decode_i8, nullptr);
  EXPECT_TRUE(core::IsaAvailable(core::Isa::kScalar));
}

TEST(Dispatch, IsaNamesRoundTrip) {
  for (const auto isa :
       {core::Isa::kScalar, core::Isa::kAvx2, core::Isa::kAvx512}) {
    EXPECT_EQ(core::ParseIsaName(core::IsaName(isa)), isa);
  }
  EXPECT_THROW(core::ParseIsaName("sse9"), ContractViolation);
  EXPECT_THROW(core::ParseIsaName(""), ContractViolation);
}

TEST(Dispatch, DescribeMentionsSelectedTier) {
  const std::string desc = core::DescribeCpuDispatch();
  EXPECT_NE(desc.find(core::IsaName(core::DetectIsa())), std::string::npos);
  EXPECT_NE(desc.find("scalar"), std::string::npos);
}

// Every tier this build + CPU can run must produce byte-identical
// decodes on every datapath — dispatch may only ever move throughput.
TEST(Dispatch, AllUsableTiersByteIdentical) {
  const auto& code = SmallCode();
  const auto original = core::DetectIsa();
  const std::size_t frames = 9;
  const auto llrs = NoisyFrames(code, frames, 4.2, 555);

  const char* specs[] = {
      "layered-nms:iters=10,batch=8",
      "layered-nms-f32:iters=10,batch=8",
      "fixed-layered-nms:iters=10,batch=8",
      "fixed-layered-nms-i8:iters=10,batch=32",
  };
  for (const char* spec : specs) {
    core::ForceIsaForTesting(core::Isa::kScalar);
    auto decoder = MakeDecoder(code, spec);
    const auto baseline = decoder->DecodeBatch(llrs, frames);
    for (const auto isa : {core::Isa::kAvx2, core::Isa::kAvx512}) {
      if (!core::IsaAvailable(isa)) continue;
      core::ForceIsaForTesting(isa);
      const auto got = decoder->DecodeBatch(llrs, frames);
      ASSERT_EQ(got.size(), baseline.size());
      for (std::size_t f = 0; f < frames; ++f) {
        ExpectSameResult(got[f], baseline[f],
                         std::string(spec) + " isa " +
                             core::IsaName(isa) + " frame " +
                             std::to_string(f));
      }
    }
    core::ForceIsaForTesting(original);
  }
}

// ---- 5. Saturation counters. --------------------------------------

// A deliberately tight datapath (wapp == wm == 4 with a hot channel
// scale) must clamp constantly; the counters see it, and counting
// must not change a single decoded bit.
TEST(I8Decoder, SaturationCountersCountWithoutChangingResults) {
  const auto& code = SmallCode();
  const auto spec =
      "fixed-layered-nms-i8:iters=8,wm=4,wapp=4,scale=8,batch=8";
  const auto decoder = MakeDecoder(code, spec);
  const std::size_t frames = 8;
  const auto llrs = NoisyFrames(code, frames, 4.2, 42);

  const auto plain = decoder->DecodeBatch(llrs, frames);

  obs::MetricsRegistry registry;
  const obs::DecodeMetricIds ids = obs::RegisterDecodeMetrics(registry);
  registry.SetShardCount(1);
  std::vector<DecodeResult> counted;
  {
    obs::ScopedDecodeSink scope(&registry.shard(0), &ids);
    counted = decoder->DecodeBatch(llrs, frames);
  }
  ASSERT_EQ(counted.size(), plain.size());
  for (std::size_t f = 0; f < frames; ++f)
    ExpectSameResult(counted[f], plain[f], "frame " + std::to_string(f));

  const auto merged = registry.Merge();
  std::uint64_t msg_clamps = 0, bn_sats = 0;
  for (const auto& c : merged.counters) {
    if (c.name == "decode.i8_msg_clamps") msg_clamps = c.value;
    if (c.name == "decode.i8_bn_saturations") bn_sats = c.value;
  }
  EXPECT_GT(msg_clamps, 0u);
  EXPECT_GT(bn_sats, 0u);
}

// Wide-open widths on a clean channel must count (near) nothing —
// the counters measure real datapath stress, not decode volume.
TEST(I8Decoder, SaturationCountersQuietWhenWide) {
  const auto& code = SmallCode();
  const auto decoder =
      MakeDecoder(code, "fixed-layered-nms-i8:iters=8,wm=8,wapp=14,batch=8");
  const std::size_t frames = 8;
  const auto llrs = NoisyFrames(code, frames, 7.0, 4242);

  obs::MetricsRegistry registry;
  const obs::DecodeMetricIds ids = obs::RegisterDecodeMetrics(registry);
  registry.SetShardCount(1);
  {
    obs::ScopedDecodeSink scope(&registry.shard(0), &ids);
    (void)decoder->DecodeBatch(llrs, frames);
  }
  const auto merged = registry.Merge();
  for (const auto& c : merged.counters) {
    if (c.name == "decode.i8_bn_saturations") {
      EXPECT_EQ(c.value, 0u);
    }
  }
}

}  // namespace
}  // namespace cldpc::ldpc
