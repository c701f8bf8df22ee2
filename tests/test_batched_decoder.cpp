// The LayeredDecoder lane contracts:
//
//  1. Byte identity: for every scalar-datapath layered spec,
//     DecodeBatch over any lane count (1 included — the default, a
//     spec without `batch`) produces, per lane, byte-identical results
//     to the test-local stored-message scalar references below; the
//     base-class DecodeBatch of the flooding kinds is exactly a frame
//     loop.
//  2. Incremental syndrome tracking (core/syndrome_tracker.hpp)
//     agrees exactly with LdpcCode::IsCodeword at every step.
//  3. The f32 lane datapath is not bit-exact to the double path by
//     design; it must track its BER behaviour closely.
//  4. Through the engine: a batched spec produces the identical
//     BerCurve the 1-lane spec produces, at any thread count.
#include "ldpc/batched_layered_decoder.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "channel/awgn.hpp"
#include "ldpc/core/registry.hpp"
#include "ldpc/core/syndrome_tracker.hpp"
#include "ldpc/encoder.hpp"
#include "qc/small_codes.hpp"
#include "sim/ber_runner.hpp"
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

/// `count` frames concatenated frame-major, at a noise level where
/// some frames converge quickly and some not at all — so per-lane
/// early termination actually diverges across lanes.
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

// ---- Scalar references: stored per-edge messages. -----------------
//
// LayeredDecoder keeps one compressed record per check and
// reconstructs messages on the fly (core/cn_compress.hpp), in SIMD
// lane groups. These references are plain one-frame layered decoders
// written out naively with a full per-edge check-to-bit array: the
// production decoder must reproduce them byte for byte at every lane
// count, on both scalar datapaths, for every min-sum variant, with
// early termination on and off.

DecodeResult StoredMessageLayeredReference(const LdpcCode& code,
                                           const MinSumOptions& options,
                                           std::span<const double> llr) {
  using Kernel = core::FloatCnKernel;
  const auto& sched = code.schedule();
  const auto rule = MinSumCheckRule(options);
  std::vector<double> app(llr.begin(), llr.end());
  std::vector<double> c2b(sched.num_edges(), 0.0);
  std::vector<double> incoming(sched.max_check_degree());
  DecodeResult result;
  std::vector<std::uint8_t> hard(code.n());
  for (int iter = 1; iter <= options.iter.max_iterations; ++iter) {
    for (std::size_t m = 0; m < sched.num_checks(); ++m) {
      const std::size_t e0 = sched.EdgeBegin(m);
      const std::size_t dc = sched.Degree(m);
      if (dc == 0) continue;
      const auto bits = sched.CheckBits(m);
      for (std::size_t i = 0; i < dc; ++i)
        incoming[i] = app[bits[i]] - c2b[e0 + i];
      const auto summary = Kernel::Compute({incoming.data(), dc});
      for (std::size_t i = 0; i < dc; ++i) {
        const double out = Kernel::Output(summary, i, rule);
        app[bits[i]] = incoming[i] + out;
        c2b[e0 + i] = out;
      }
    }
    for (std::size_t n = 0; n < code.n(); ++n) hard[n] = app[n] < 0.0 ? 1 : 0;
    result.iterations_run = iter;
    if (options.iter.early_termination && code.IsCodeword(hard)) {
      result.bits = hard;
      result.converged = true;
      return result;
    }
  }
  result.bits = hard;
  result.converged = code.IsCodeword(hard);
  return result;
}

DecodeResult StoredMessageFixedLayeredReference(const LdpcCode& code,
                                                const FixedMinSumOptions& o,
                                                std::span<const double> llr) {
  using Kernel = core::FixedCnKernel;
  const auto& sched = code.schedule();
  const auto& dp = o.datapath;
  const LlrQuantizer q(dp.channel_bits, dp.channel_scale);
  std::vector<Fixed> app(code.n());
  for (std::size_t n = 0; n < code.n(); ++n)
    app[n] = SaturateSymmetric(q.Quantize(llr[n]), dp.app_bits);
  // Per-edge stored messages instead of per-check records: cb_old is
  // read back, not reconstructed — same math by Output purity.
  std::vector<Fixed> c2b(sched.num_edges(), 0);
  std::vector<Fixed> extrinsic(sched.max_check_degree());
  std::vector<Fixed> bc(sched.max_check_degree());
  DecodeResult result;
  std::vector<std::uint8_t> hard(code.n());
  for (int iter = 1; iter <= o.iter.max_iterations; ++iter) {
    for (std::size_t m = 0; m < sched.num_checks(); ++m) {
      const std::size_t e0 = sched.EdgeBegin(m);
      const std::size_t dc = sched.Degree(m);
      if (dc == 0) continue;
      const auto bits = sched.CheckBits(m);
      for (std::size_t pos = 0; pos < dc; ++pos) {
        extrinsic[pos] = app[bits[pos]] - c2b[e0 + pos];
        bc[pos] = SaturateSymmetric(extrinsic[pos], dp.message_bits);
      }
      const auto fresh = Kernel::Compute({bc.data(), dc});
      for (std::size_t pos = 0; pos < dc; ++pos) {
        const Fixed cb = Kernel::Output(fresh, pos, dp.normalization);
        c2b[e0 + pos] = cb;
        app[bits[pos]] = SaturateSymmetric(extrinsic[pos] + cb, dp.app_bits);
      }
    }
    for (std::size_t n = 0; n < code.n(); ++n) hard[n] = app[n] < 0 ? 1 : 0;
    result.iterations_run = iter;
    if (o.iter.early_termination && code.IsCodeword(hard)) {
      result.bits = hard;
      result.converged = true;
      return result;
    }
  }
  result.bits = hard;
  result.converged = code.IsCodeword(hard);
  return result;
}

// ---- 1. Batch-vs-scalar byte identity. ----------------------------

constexpr std::size_t kLaneCounts[] = {1, 3, 8, 16};

/// The scalar reference's result for frame `llr` under the options of
/// the LayeredDecoder `decoder` (double or int32 fixed lanes).
DecodeResult ScalarReference(const LdpcCode& code, const Decoder& decoder,
                             std::span<const double> llr) {
  if (const auto* d =
          dynamic_cast<const LayeredDecoder<DoubleLanes>*>(&decoder))
    return StoredMessageLayeredReference(code, d->options(), llr);
  const auto& f = dynamic_cast<const LayeredDecoder<FixedLanes>&>(decoder);
  return StoredMessageFixedLayeredReference(code, f.options(), llr);
}

// Every scalar-datapath layered spec, at lane counts that exercise
// the 1-lane group, full lane groups and ragged tails: DecodeBatch
// must be byte-identical per lane to the scalar reference, for every
// variant, with and without early termination.
TEST(BatchedDecoder, LayeredKindsByteIdenticalToScalar) {
  const auto& code = SmallCode();
  const char* specs[] = {
      "layered-nms:alpha=1.23,iters=12",
      "layered-nms:alpha=1.5,iters=10,dyadic=0",
      "layered-ms:iters=8",
      "layered-oms:iters=10,beta=0.5",
      "layered-nms:alpha=1.23,iters=6,et=0",
      "fixed-layered-nms:iters=12",
      "fixed-layered-nms:iters=8,wm=5",
      "fixed-layered-nms:iters=6,et=0",
  };
  for (const char* spec : specs) {
    for (const std::size_t batch : kLaneCounts) {
      const auto batched = MakeDecoder(
          code, std::string(spec) + ",batch=" + std::to_string(batch));
      // More frames than lanes, so chunking across groups is covered.
      const std::size_t frames = batch + 2;
      const auto llrs = NoisyFrames(code, frames, 4.2, 100);
      const auto results = batched->DecodeBatch(llrs, frames);
      ASSERT_EQ(results.size(), frames);
      for (std::size_t f = 0; f < frames; ++f) {
        const std::span<const double> frame(llrs.data() + f * code.n(),
                                            code.n());
        ExpectSameResult(results[f], ScalarReference(code, *batched, frame),
                         std::string(spec) + " batch=" +
                             std::to_string(batch) + " frame " +
                             std::to_string(f));
      }
    }
  }
}

// Single-frame Decode is the 1-lane group whatever the lane count,
// and must match the scalar reference exactly too.
TEST(BatchedDecoder, SingleFrameDecodeMatchesScalar) {
  const auto& code = SmallCode();
  for (const char* spec :
       {"layered-nms:alpha=1.23,iters=12", "fixed-layered-nms:iters=12"}) {
    for (const std::size_t batch : kLaneCounts) {
      const auto decoder = MakeDecoder(
          code, std::string(spec) + ",batch=" + std::to_string(batch));
      for (std::uint64_t seed = 300; seed < 306; ++seed) {
        const auto llr = NoisyFrame(code, 4.2, seed);
        ExpectSameResult(decoder->Decode(llr),
                         ScalarReference(code, *decoder, llr),
                         std::string(spec) + " batch=" +
                             std::to_string(batch) + " seed " +
                             std::to_string(seed));
      }
    }
  }
}

// Flooding kinds (float and fixed) have no batched implementation;
// the base-class DecodeBatch must be exactly a frame loop.
TEST(BatchedDecoder, DefaultDecodeBatchLoopsDecode) {
  const auto& code = SmallCode();
  const char* specs[] = {"nms:iters=10", "ms:iters=8", "oms:iters=8,beta=0.5",
                         "fixed-nms:iters=10", "fixed-nms:iters=6,et=0",
                         "bp:iters=5"};
  for (const char* spec : specs) {
    const auto loop = MakeDecoder(code, spec);
    const auto batch = MakeDecoder(code, spec);
    for (const std::size_t frames : {std::size_t{1}, std::size_t{3},
                                     std::size_t{8}}) {
      const auto llrs = NoisyFrames(code, frames, 4.2, 200);
      const auto results = batch->DecodeBatch(llrs, frames);
      ASSERT_EQ(results.size(), frames);
      for (std::size_t f = 0; f < frames; ++f) {
        const std::span<const double> frame(llrs.data() + f * code.n(),
                                            code.n());
        ExpectSameResult(results[f], loop->Decode(frame),
                         std::string(spec) + " frame " + std::to_string(f));
      }
    }
  }
}

// batch= on a flooding kind must be a loud spec error, and bad lane
// counts must be rejected.
TEST(BatchedDecoder, BatchParamValidation) {
  const auto& code = SmallCode();
  EXPECT_THROW(MakeDecoder(code, "nms:batch=8"), ContractViolation);
  EXPECT_THROW(MakeDecoder(code, "fixed-nms:batch=8"), ContractViolation);
  EXPECT_THROW(MakeDecoder(code, "bp:batch=8"), ContractViolation);
  EXPECT_THROW(MakeDecoder(code, "layered-nms:batch=0"), ContractViolation);
  EXPECT_THROW(MakeDecoder(code, "layered-nms:batch=33"), ContractViolation);
  EXPECT_THROW(MakeDecoder(code, "layered-nms-f32:batch=0"),
               ContractViolation);
  // In-range lane counts construct.
  EXPECT_NE(MakeDecoder(code, "layered-nms:batch=32"), nullptr);
  EXPECT_NE(MakeDecoder(code, "layered-nms-f32"), nullptr);
  EXPECT_NE(MakeDecoder(code, "layered-f32"), nullptr);
}

// A batched DecodeBatch must reject a ragged LLR block.
TEST(BatchedDecoder, RejectsRaggedLlrBlock) {
  const auto& code = SmallCode();
  const auto batched = MakeDecoder(code, "layered-nms:batch=4");
  const std::vector<double> llrs(code.n() * 2 + 1, 0.5);
  EXPECT_THROW(batched->DecodeBatch(llrs, 2), ContractViolation);
  EXPECT_THROW(batched->DecodeBatch(llrs, 0), ContractViolation);
}

TEST(CompressedCnStorage, FloatLayeredMatchesStoredMessageReference) {
  const auto& code = SmallCode();
  const struct {
    const char* spec;
    MinSumVariant variant;
  } cases[] = {
      {"layered-nms:alpha=1.23,iters=12", MinSumVariant::kNormalized},
      {"layered-nms:alpha=1.23,iters=12,et=0", MinSumVariant::kNormalized},
      {"layered-ms:iters=9", MinSumVariant::kPlain},
      {"layered-ms:iters=9,et=0", MinSumVariant::kPlain},
      {"layered-oms:iters=10,beta=0.5", MinSumVariant::kOffset},
      {"layered-oms:iters=10,beta=0.5,et=0", MinSumVariant::kOffset},
  };
  for (const auto& c : cases) {
    // Options built by hand from the spec text, so the reference does
    // not lean on the registry's own parsing.
    const auto spec = DecoderSpec::Parse(c.spec);
    MinSumOptions o;
    o.variant = c.variant;
    o.iter.max_iterations = spec.GetInt("iters", 18);
    o.iter.early_termination = spec.GetBool("et", true);
    o.alpha = spec.GetDouble("alpha", 1.23);
    o.beta = spec.GetDouble("beta", 0.5);
    const auto unbatched = MakeDecoder(code, c.spec);
    for (std::uint64_t seed = 900; seed < 906; ++seed) {
      // Mixed SNRs: some frames converge, some stay stuck.
      const auto llr = NoisyFrame(code, seed % 2 ? 4.2 : 2.2, seed);
      const auto want = StoredMessageLayeredReference(code, o, llr);
      ExpectSameResult(unbatched->Decode(llr), want,
                       std::string(c.spec) + " seed " +
                           std::to_string(seed));
      for (const std::size_t batch : kLaneCounts) {
        const auto batched = MakeDecoder(
            code, std::string(c.spec) + ",batch=" + std::to_string(batch));
        ExpectSameResult(batched->Decode(llr), want,
                         std::string(c.spec) + " batch=" +
                             std::to_string(batch) + " seed " +
                             std::to_string(seed));
      }
    }
  }
}

TEST(CompressedCnStorage, FixedLayeredMatchesStoredMessageReference) {
  const auto& code = SmallCode();
  for (const char* spec :
       {"fixed-layered-nms:iters=12", "fixed-layered-nms:iters=12,et=0",
        "fixed-layered-nms:iters=8,wm=5"}) {
    const auto parsed = DecoderSpec::Parse(spec);
    FixedMinSumOptions o;
    o.iter.max_iterations = parsed.GetInt("iters", 18);
    o.iter.early_termination = parsed.GetBool("et", true);
    o.datapath.message_bits = parsed.GetInt("wm", o.datapath.message_bits);
    const auto unbatched = MakeDecoder(code, spec);
    for (std::uint64_t seed = 950; seed < 956; ++seed) {
      const auto llr = NoisyFrame(code, seed % 2 ? 4.2 : 2.2, seed);
      const auto want = StoredMessageFixedLayeredReference(code, o, llr);
      ExpectSameResult(unbatched->Decode(llr), want,
                       std::string(spec) + " seed " + std::to_string(seed));
      for (const std::size_t batch : kLaneCounts) {
        const auto batched = MakeDecoder(
            code, std::string(spec) + ",batch=" + std::to_string(batch));
        ExpectSameResult(batched->Decode(llr), want,
                         std::string(spec) + " batch=" +
                             std::to_string(batch) + " seed " +
                             std::to_string(seed));
      }
    }
  }
}

// Options built by hand bypass the registry's range checks; the fixed
// constructors must reject a normalizer that would over-shift or
// overflow int32 (and the i8 one must do so before it shifts by the
// out-of-range amount itself).
TEST(CompressedCnStorage, FixedConstructorsRejectOutOfRangeNorm) {
  const auto& code = SmallCode();
  for (const DyadicFraction norm :
       {DyadicFraction{1, 39}, DyadicFraction{1, 17}, DyadicFraction{1, -1},
        DyadicFraction{0, 4}, DyadicFraction{65537, 16},
        DyadicFraction{2000000000, 2}}) {
    FixedMinSumOptions o;
    o.datapath.normalization = norm;
    EXPECT_THROW(LayeredDecoder<FixedLanes>(code, o), ContractViolation)
        << norm.num << "/2^" << norm.shift;
    EXPECT_THROW(LayeredDecoder<I8Lanes>(code, o), ContractViolation)
        << norm.num << "/2^" << norm.shift;
  }
  FixedMinSumOptions o;
  o.datapath.normalization = DyadicFraction{65536, 16};
  EXPECT_NO_THROW(LayeredDecoder<FixedLanes>(code, o));
}

// ---- 2. Incremental syndrome == IsCodeword. -----------------------

// One lane, reset from packed masks (the decoder's native form):
// the tracker must agree with IsCodeword after every single flip.
TEST(SyndromeTracker, MatchesIsCodewordUnderRandomFlips) {
  const auto& code = SmallCode();
  Xoshiro256pp rng(77);
  std::vector<std::uint32_t> hard(code.n());
  for (auto& b : hard) b = rng.NextBit() ? 1 : 0;
  const auto word = [&] {
    return std::vector<std::uint8_t>(hard.begin(), hard.end());
  };

  core::BatchSyndromeTracker tracker(code.schedule());
  tracker.ResetMasks(hard);
  EXPECT_EQ(tracker.UnsatisfiedLanes() == 0, code.IsCodeword(word()));

  for (int step = 0; step < 200; ++step) {
    const auto n = static_cast<std::size_t>(
        rng.NextBounded(static_cast<std::uint32_t>(code.n())));
    hard[n] ^= 1;
    tracker.Flip(n, 1u);
    ASSERT_EQ(tracker.UnsatisfiedLanes() == 0, code.IsCodeword(word()))
        << "after flip " << step;
  }

  // The all-zero word is a codeword: drive the state there and the
  // tracker must report satisfied.
  for (std::size_t n = 0; n < code.n(); ++n) {
    if (hard[n]) {
      hard[n] = 0;
      tracker.Flip(n, 1u);
    }
  }
  EXPECT_EQ(tracker.UnsatisfiedLanes(), 0u);
}

TEST(SyndromeTracker, BatchVariantMatchesPerLaneIsCodeword) {
  const auto& code = SmallCode();
  constexpr std::size_t kLanes = 5;
  Xoshiro256pp rng(78);
  std::vector<std::uint8_t> hard(code.n() * kLanes);
  for (auto& b : hard) b = rng.NextBit() ? 1 : 0;

  const auto lane_word = [&](std::size_t lane) {
    std::vector<std::uint8_t> w(code.n());
    for (std::size_t n = 0; n < code.n(); ++n) w[n] = hard[n * kLanes + lane];
    return w;
  };

  core::BatchSyndromeTracker tracker(code.schedule());
  tracker.Reset(hard, kLanes);
  for (int step = 0; step < 100; ++step) {
    const std::uint32_t unsat = tracker.UnsatisfiedLanes();
    for (std::size_t l = 0; l < kLanes; ++l) {
      ASSERT_EQ((unsat >> l) & 1u, code.IsCodeword(lane_word(l)) ? 0u : 1u)
          << "lane " << l << " step " << step;
    }
    const auto n = static_cast<std::size_t>(
        rng.NextBounded(static_cast<std::uint32_t>(code.n())));
    const auto mask =
        static_cast<std::uint32_t>(rng.NextBounded(1u << kLanes));
    if (mask == 0) continue;
    for (std::size_t l = 0; l < kLanes; ++l) {
      if ((mask >> l) & 1u) hard[n * kLanes + l] ^= 1;
    }
    tracker.Flip(n, mask);
  }
}

// Decode-level: the layered decoders' converged flag (now produced by
// the tracker) must agree with a from-scratch IsCodeword of the
// returned bits, on frames spanning converged and stuck outcomes.
TEST(SyndromeTracker, DecoderConvergedFlagMatchesIsCodeword) {
  const auto& code = SmallCode();
  for (const char* spec :
       {"layered-nms:iters=12", "layered-nms:iters=2",
        "fixed-layered-nms:iters=12", "fixed-layered-nms:iters=2",
        "layered-nms:iters=6,et=0", "layered-nms:batch=4,iters=12"}) {
    const auto decoder = MakeDecoder(code, spec);
    for (std::uint64_t seed = 400; seed < 410; ++seed) {
      // 2.0 dB leaves many frames unconverged; 5.0 dB converges most.
      for (const double ebn0 : {2.0, 5.0}) {
        const auto llr = NoisyFrame(code, ebn0, seed);
        const auto result = decoder->Decode(llr);
        EXPECT_EQ(result.converged, code.IsCodeword(result.bits))
            << spec << " seed " << seed << " ebn0 " << ebn0;
      }
    }
  }
}

// ---- 3. f32 datapath tracks the double path. ----------------------

TEST(BatchedDecoderF32, TracksDoubleDatapathBer) {
  const auto& code = SmallCode();
  const auto f64 = MakeDecoder(code, "layered-nms:alpha=1.23,iters=12");
  const auto f32 =
      MakeDecoder(code, "layered-nms-f32:alpha=1.23,iters=12,batch=8");
  EXPECT_EQ(f32->Name().rfind("layered-f32-", 0), 0u);

  // Same noisy frames through both datapaths at a mid-waterfall SNR:
  // frame-level decisions may differ on borderline frames, but the
  // error statistics must stay close.
  const std::size_t frames = 120;
  std::size_t f64_errors = 0;
  std::size_t f32_errors = 0;
  std::size_t disagreements = 0;
  for (std::size_t f = 0; f < frames; ++f) {
    const auto llr = NoisyFrame(code, 3.4, 500 + f);
    const auto r64 = f64->Decode(llr);
    const auto r32 = f32->Decode(llr);
    f64_errors += r64.converged ? 0 : 1;
    f32_errors += r32.converged ? 0 : 1;
    if (r64.bits != r32.bits) ++disagreements;
  }
  // Identical channel realizations: the two datapaths must disagree
  // on at most a small fraction of frames ...
  EXPECT_LE(disagreements, frames / 10);
  // ... and their frame-error counts must be within a small additive
  // band of each other.
  const std::size_t hi = std::max(f64_errors, f32_errors);
  const std::size_t lo = std::min(f64_errors, f32_errors);
  EXPECT_LE(hi - lo, 3u + lo / 4);
}

// f32 results must not depend on lane grouping either.
TEST(BatchedDecoderF32, GroupingIndependent) {
  const auto& code = SmallCode();
  const auto a = MakeDecoder(code, "layered-nms-f32:iters=10,batch=8");
  const auto b = MakeDecoder(code, "layered-nms-f32:iters=10,batch=3");
  const std::size_t frames = 9;
  const auto llrs = NoisyFrames(code, frames, 4.2, 700);
  const auto ra = a->DecodeBatch(llrs, frames);
  const auto rb = b->DecodeBatch(llrs, frames);
  ASSERT_EQ(ra.size(), rb.size());
  for (std::size_t f = 0; f < frames; ++f)
    ExpectSameResult(ra[f], rb[f], "frame " + std::to_string(f));
}

// ---- 4. Through the engine. ---------------------------------------

TEST(BatchedDecoder, EngineCurveIdenticalToScalarSpec) {
  const auto& code = SmallCode();
  static const Encoder encoder(code);
  sim::BerConfig config;
  config.ebn0_db = {3.6, 4.4};
  config.max_frames = 40;
  config.min_frame_errors = 10;
  config.batch_frames = 8;

  const auto run = [&](std::size_t threads, const std::string& spec) {
    auto cfg = config;
    cfg.threads = threads;
    sim::BerRunner runner(code, encoder, cfg);
    return runner.RunSpec(spec);
  };

  const auto scalar = run(1, "layered-nms:iters=12,alpha=1.23");
  for (const std::size_t threads : {std::size_t{1}, std::size_t{3}}) {
    for (const char* spec : {"layered-nms:iters=12,alpha=1.23,batch=8",
                             "layered-nms:iters=12,alpha=1.23,batch=3"}) {
      const auto batched = run(threads, spec);
      ASSERT_EQ(batched.points.size(), scalar.points.size()) << spec;
      for (std::size_t i = 0; i < scalar.points.size(); ++i) {
        EXPECT_EQ(batched.points[i].bit_errors.errors(),
                  scalar.points[i].bit_errors.errors())
            << spec << " threads " << threads;
        EXPECT_EQ(batched.points[i].frame_errors.errors(),
                  scalar.points[i].frame_errors.errors())
            << spec << " threads " << threads;
        EXPECT_EQ(batched.points[i].frames, scalar.points[i].frames)
            << spec << " threads " << threads;
        EXPECT_EQ(batched.points[i].avg_iterations,
                  scalar.points[i].avg_iterations)
            << spec << " threads " << threads;
      }
    }
  }
}

}  // namespace
}  // namespace cldpc::ldpc
