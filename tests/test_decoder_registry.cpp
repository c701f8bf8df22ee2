// DecoderSpec parsing, the MakeDecoder registry, and — the heart of
// the PR-2 refactor contract — cross-decoder equivalence: the
// refactored decoders (shared CN kernel + LayerSchedule) must produce
// byte-identical DecodeResults to the pre-refactor implementations.
// The reference decoders below are deliberately naive re-derivations
// of the old per-decoder loops: they walk the Tanner graph edge by
// edge and compute every exclusive min / exclusive sign product by
// brute force over the other inputs.
#include "ldpc/core/registry.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <limits>
#include <memory>
#include <vector>

#include "channel/awgn.hpp"
#include "engine/decoder_pool.hpp"
#include "ldpc/batched_layered_decoder.hpp"
#include "ldpc/encoder.hpp"
#include "ldpc/fixed_minsum_decoder.hpp"
#include "ldpc/minsum_decoder.hpp"
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
  return channel::TransmitBpskAwgn(cw, ebn0, code.Rate(), seed ^ 0xABCD);
}

// ---- Naive float check-node rule (pre-refactor semantics). --------

double NaiveFloatCn(const std::vector<double>& in, std::size_t pos,
                    const MinSumOptions& o, double scale) {
  double excl = std::numeric_limits<double>::infinity();
  bool negative = false;
  for (std::size_t j = 0; j < in.size(); ++j) {
    if (j == pos) continue;
    excl = std::min(excl, std::fabs(in[j]));
    if (in[j] < 0.0) negative = !negative;
  }
  double mag = excl;
  switch (o.variant) {
    case MinSumVariant::kPlain:
      break;
    case MinSumVariant::kNormalized:
      mag *= scale;
      break;
    case MinSumVariant::kOffset:
      mag = std::max(0.0, mag - o.beta);
      break;
  }
  return negative ? -mag : mag;
}

// Pre-refactor flooding min-sum: per-edge messages over the graph.
DecodeResult ReferenceFlooding(const LdpcCode& code, const MinSumOptions& o,
                               std::span<const double> llr) {
  const auto& graph = code.graph();
  const double scale = MinSumCheckScale(o);
  std::vector<double> b2c(graph.num_edges());
  std::vector<double> c2b(graph.num_edges());
  for (std::size_t e = 0; e < graph.num_edges(); ++e)
    b2c[e] = llr[graph.EdgeBit(e)];

  DecodeResult result;
  result.bits.resize(graph.num_bits());
  for (int iter = 1; iter <= o.iter.max_iterations; ++iter) {
    for (std::size_t m = 0; m < graph.num_checks(); ++m) {
      const auto edges = graph.CheckEdges(m);
      std::vector<double> in(edges.size());
      for (std::size_t i = 0; i < edges.size(); ++i) in[i] = b2c[edges[i]];
      for (std::size_t i = 0; i < edges.size(); ++i)
        c2b[edges[i]] = NaiveFloatCn(in, i, o, scale);
    }
    for (std::size_t n = 0; n < graph.num_bits(); ++n) {
      double app = llr[n];
      for (const auto e : graph.BitEdges(n)) app += c2b[e];
      result.bits[n] = app < 0.0 ? 1 : 0;
      for (const auto e : graph.BitEdges(n)) b2c[e] = app - c2b[e];
    }
    result.iterations_run = iter;
    if (o.iter.early_termination && code.IsCodeword(result.bits)) {
      result.converged = true;
      return result;
    }
  }
  result.converged = code.IsCodeword(result.bits);
  return result;
}

// Pre-refactor layered min-sum: APP peeling, immediate write-back.
DecodeResult ReferenceLayered(const LdpcCode& code, const MinSumOptions& o,
                              std::span<const double> llr) {
  const auto& graph = code.graph();
  const double scale = MinSumCheckScale(o);
  std::vector<double> app(llr.begin(), llr.end());
  std::vector<double> c2b(graph.num_edges(), 0.0);

  DecodeResult result;
  result.bits.resize(graph.num_bits());
  for (int iter = 1; iter <= o.iter.max_iterations; ++iter) {
    for (std::size_t m = 0; m < graph.num_checks(); ++m) {
      const auto edges = graph.CheckEdges(m);
      std::vector<double> in(edges.size());
      for (std::size_t i = 0; i < edges.size(); ++i)
        in[i] = app[graph.EdgeBit(edges[i])] - c2b[edges[i]];
      for (std::size_t i = 0; i < edges.size(); ++i) {
        const double out = NaiveFloatCn(in, i, o, scale);
        app[graph.EdgeBit(edges[i])] = in[i] + out;
        c2b[edges[i]] = out;
      }
    }
    for (std::size_t n = 0; n < graph.num_bits(); ++n)
      result.bits[n] = app[n] < 0.0 ? 1 : 0;
    result.iterations_run = iter;
    if (o.iter.early_termination && code.IsCodeword(result.bits)) {
      result.converged = true;
      return result;
    }
  }
  result.converged = code.IsCodeword(result.bits);
  return result;
}

// ---- Naive fixed check-node rule. ---------------------------------

Fixed NaiveFixedCn(const std::vector<Fixed>& in, std::size_t pos,
                   const DyadicFraction& norm) {
  Fixed excl = INT32_MAX;
  bool negative = false;
  for (std::size_t j = 0; j < in.size(); ++j) {
    if (j == pos) continue;
    const Fixed mag = in[j] < 0 ? -in[j] : in[j];
    excl = std::min(excl, mag);
    if (in[j] < 0) negative = !negative;
  }
  const Fixed mag = norm.Apply(excl);
  return negative ? -mag : mag;
}

// Pre-refactor fixed flooding (bit-accurate datapath).
DecodeResult ReferenceFixedFlooding(const LdpcCode& code,
                                    const FixedMinSumOptions& o,
                                    std::span<const double> llr) {
  const auto& graph = code.graph();
  const auto& dp = o.datapath;
  const LlrQuantizer quantizer(dp.channel_bits, dp.channel_scale);
  std::vector<Fixed> channel(llr.size());
  for (std::size_t i = 0; i < llr.size(); ++i)
    channel[i] = quantizer.Quantize(llr[i]);

  std::vector<Fixed> b2c(graph.num_edges());
  std::vector<Fixed> c2b(graph.num_edges(), 0);
  for (std::size_t e = 0; e < graph.num_edges(); ++e)
    b2c[e] = SaturateSymmetric(channel[graph.EdgeBit(e)], dp.message_bits);

  DecodeResult result;
  result.bits.resize(graph.num_bits());
  for (int iter = 1; iter <= o.iter.max_iterations; ++iter) {
    for (std::size_t m = 0; m < graph.num_checks(); ++m) {
      const auto edges = graph.CheckEdges(m);
      std::vector<Fixed> in(edges.size());
      for (std::size_t i = 0; i < edges.size(); ++i) in[i] = b2c[edges[i]];
      for (std::size_t i = 0; i < edges.size(); ++i)
        c2b[edges[i]] = NaiveFixedCn(in, i, dp.normalization);
    }
    for (std::size_t n = 0; n < graph.num_bits(); ++n) {
      Fixed acc = channel[n];
      for (const auto e : graph.BitEdges(n)) acc += c2b[e];
      const Fixed app = SaturateSymmetric(acc, dp.app_bits);
      result.bits[n] = app < 0 ? 1 : 0;
      for (const auto e : graph.BitEdges(n))
        b2c[e] = SaturateSymmetric(app - c2b[e], dp.message_bits);
    }
    result.iterations_run = iter;
    if (o.iter.early_termination && code.IsCodeword(result.bits)) {
      result.converged = true;
      return result;
    }
  }
  result.converged = code.IsCodeword(result.bits);
  return result;
}

// Pre-refactor fixed layered: per-check message memory holding the
// previous visit's bit-to-check words (the uncompressed equivalent of
// the CnSummary record store).
DecodeResult ReferenceFixedLayered(const LdpcCode& code,
                                   const FixedMinSumOptions& o,
                                   std::span<const double> llr) {
  const auto& graph = code.graph();
  const auto& dp = o.datapath;
  const LlrQuantizer quantizer(dp.channel_bits, dp.channel_scale);
  std::vector<Fixed> channel(llr.size());
  for (std::size_t i = 0; i < llr.size(); ++i)
    channel[i] = quantizer.Quantize(llr[i]);

  std::vector<Fixed> app(graph.num_bits());
  for (std::size_t n = 0; n < graph.num_bits(); ++n)
    app[n] = SaturateSymmetric(channel[n], dp.app_bits);
  std::vector<std::vector<Fixed>> prev_bc(graph.num_checks());
  for (std::size_t m = 0; m < graph.num_checks(); ++m)
    prev_bc[m].assign(graph.CheckDegree(m), 0);

  DecodeResult result;
  result.bits.resize(graph.num_bits());
  for (int iter = 1; iter <= o.iter.max_iterations; ++iter) {
    for (std::size_t m = 0; m < graph.num_checks(); ++m) {
      const auto edges = graph.CheckEdges(m);
      const std::size_t dc = edges.size();
      std::vector<Fixed> extrinsic(dc);
      std::vector<Fixed> bc(dc);
      for (std::size_t pos = 0; pos < dc; ++pos) {
        const Fixed cb_old = NaiveFixedCn(prev_bc[m], pos, dp.normalization);
        extrinsic[pos] = app[graph.EdgeBit(edges[pos])] - cb_old;
        bc[pos] = SaturateSymmetric(extrinsic[pos], dp.message_bits);
      }
      for (std::size_t pos = 0; pos < dc; ++pos) {
        const Fixed cb_new = NaiveFixedCn(bc, pos, dp.normalization);
        app[graph.EdgeBit(edges[pos])] =
            SaturateSymmetric(extrinsic[pos] + cb_new, dp.app_bits);
      }
      prev_bc[m] = bc;
    }
    for (std::size_t n = 0; n < graph.num_bits(); ++n)
      result.bits[n] = app[n] < 0 ? 1 : 0;
    result.iterations_run = iter;
    if (o.iter.early_termination && code.IsCodeword(result.bits)) {
      result.converged = true;
      return result;
    }
  }
  result.converged = code.IsCodeword(result.bits);
  return result;
}

void ExpectSameResult(const DecodeResult& a, const DecodeResult& b,
                      std::uint64_t seed) {
  EXPECT_EQ(a.bits, b.bits) << "frame seed " << seed;
  EXPECT_EQ(a.converged, b.converged) << "frame seed " << seed;
  EXPECT_EQ(a.iterations_run, b.iterations_run) << "frame seed " << seed;
}

// ---- Spec parsing. ------------------------------------------------

TEST(DecoderSpec, ParsesKindAndParams) {
  const auto spec = DecoderSpec::Parse("layered-nms:alpha=1.25,iters=20");
  EXPECT_EQ(spec.kind, "layered-nms");
  EXPECT_EQ(spec.GetDouble("alpha", 0.0), 1.25);
  EXPECT_EQ(spec.GetInt("iters", 0), 20);
  EXPECT_EQ(spec.ToString(), "layered-nms:alpha=1.25,iters=20");
}

TEST(DecoderSpec, ParsesBareKind) {
  const auto spec = DecoderSpec::Parse("bp");
  EXPECT_EQ(spec.kind, "bp");
  EXPECT_TRUE(spec.params.empty());
  EXPECT_EQ(spec.ToString(), "bp");
}

TEST(DecoderSpec, RejectsMalformedSpecs) {
  EXPECT_THROW(DecoderSpec::Parse(""), ContractViolation);
  EXPECT_THROW(DecoderSpec::Parse("nms:"), ContractViolation);
  EXPECT_THROW(DecoderSpec::Parse("nms:alpha"), ContractViolation);
  EXPECT_THROW(DecoderSpec::Parse("nms:=1.2"), ContractViolation);
  EXPECT_THROW(DecoderSpec::Parse("nms:alpha=1.2,alpha=1.3"),
               ContractViolation);
}

TEST(DecoderSpec, RejectsBadValues) {
  const auto& code = SmallCode();
  EXPECT_THROW(MakeDecoder(code, "nms:alpha=abc"), ContractViolation);
  EXPECT_THROW(MakeDecoder(code, "nms:iters=x"), ContractViolation);
  EXPECT_THROW(MakeDecoder(code, "nms:et=maybe"), ContractViolation);
  EXPECT_THROW(MakeDecoder(code, "fixed-nms:norm=13"), ContractViolation);
  EXPECT_THROW(MakeDecoder(code, "fixed-nms:norm=13/12"), ContractViolation);
  EXPECT_THROW(MakeDecoder(code, "fixed-nms:alpha=1.23,norm=13/16"),
               ContractViolation);
  // Trailing garbage in norm parts must not be silently truncated.
  EXPECT_THROW(MakeDecoder(code, "fixed-nms:norm=13.5/16"),
               ContractViolation);
  EXPECT_THROW(MakeDecoder(code, "fixed-nms:norm=13/16x"),
               ContractViolation);
  // norm parts beyond 2^16 would overflow or over-shift the
  // normalizer (mag * num + 2^(shift-1) in int32).
  for (const char* spec :
       {"fixed-layered-nms:norm=1/1099511627776", "fixed-nms:norm=1/4294967296",
        "fixed-layered-nms:norm=3000000000/4", "fixed-nms:norm=65537/65536",
        "fixed-layered-nms:norm=1/131072", "fixed-layered-nms-i8:norm=1/512"}) {
    EXPECT_THROW(MakeDecoder(code, spec), std::invalid_argument) << spec;
  }
  EXPECT_NE(MakeDecoder(code, "fixed-layered-nms:norm=65536/65536"), nullptr);
}

TEST(DecoderSpec, RejectsOutOfRangeFixedWidths) {
  // Word widths outside the modelled hardware range must fail loudly
  // at spec time, never reach a shift in SymmetricMax.
  const auto& code = SmallCode();
  for (const char* spec :
       {"fixed-nms:wm=0", "fixed-nms:wm=1", "fixed-nms:wm=17",
        "fixed-nms:wc=0", "fixed-nms:wc=40", "fixed-nms:wapp=40",
        "fixed-nms:wapp=4", "fixed-nms:scale=0",
        "fixed-layered-nms:wm=0", "fixed-layered-nms:wapp=40"}) {
    EXPECT_THROW(MakeDecoder(code, spec), ContractViolation) << spec;
  }
}

// ---- Registry. ----------------------------------------------------

TEST(Registry, UnknownKindThrowsAndListsKinds) {
  try {
    MakeDecoder(SmallCode(), "turbo");
    FAIL() << "expected ContractViolation";
  } catch (const ContractViolation& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("unknown decoder kind 'turbo'"), std::string::npos);
    EXPECT_NE(what.find("layered-nms"), std::string::npos);
  }
}

TEST(Registry, UnknownParamForKindThrows) {
  EXPECT_THROW(MakeDecoder(SmallCode(), "bp:alpha=1.2"), ContractViolation);
  EXPECT_THROW(MakeDecoder(SmallCode(), "ms:alpha=1.2"), ContractViolation);
  EXPECT_THROW(MakeDecoder(SmallCode(), "nms:beta=0.5"), ContractViolation);
}

TEST(Registry, KnownKindsAreRegistered) {
  const auto kinds = RegisteredDecoderKinds();
  for (const char* expected :
       {"bp", "ms", "nms", "oms", "layered-nms", "fixed-nms",
        "fixed-layered-nms"}) {
    EXPECT_NE(std::find(kinds.begin(), kinds.end(), expected), kinds.end())
        << expected;
  }
}

TEST(Registry, BuildsCanonicallyNamedDecoders) {
  const auto& code = SmallCode();
  EXPECT_EQ(MakeDecoder(code, "bp")->Name(), "bp-flooding");
  EXPECT_EQ(MakeDecoder(code, "ms")->Name(), "min-sum");
  EXPECT_EQ(MakeDecoder(code, "layered-nms:alpha=1.25")->Name().rfind(
                "layered-normalized-min-sum", 0),
            0u);
  EXPECT_EQ(MakeDecoder(code, "fixed-nms")->Name().rfind("fixed-nms", 0), 0u);
  EXPECT_EQ(MakeDecoder(code, "fixed-layered-nms")->Name().rfind(
                "fixed-layered-nms", 0),
            0u);
}

TEST(Registry, AliasesResolveToSameDecoder) {
  const auto& code = SmallCode();
  EXPECT_EQ(MakeDecoder(code, "minsum")->Name(),
            MakeDecoder(code, "ms")->Name());
  EXPECT_EQ(MakeDecoder(code, "layered")->Name(),
            MakeDecoder(code, "layered-nms")->Name());
  EXPECT_EQ(MakeDecoder(code, "fixed")->Name(),
            MakeDecoder(code, "fixed-nms")->Name());
}

TEST(Registry, LayeredNameComposedWithoutThrowawayDecoder) {
  // The old implementation built a full MinSumDecoder (message
  // buffers and all) just to compose a string; the name must still
  // match the flooding decoder's, prefixed.
  const auto& code = SmallCode();
  const auto flood = MakeDecoder(code, "nms:alpha=1.25");
  const auto layered = MakeDecoder(code, "layered-nms:alpha=1.25");
  EXPECT_EQ(layered->Name(), "layered-" + flood->Name());
}

TEST(Registry, FactoryClonesAreIndependent) {
  const auto& code = SmallCode();
  const engine::DecoderFactory factory =
      MakeDecoderFactory(code, "layered-nms:iters=12");
  engine::DecoderPool pool(factory, 3);
  const auto llr = NoisyFrame(code, 5.0, 77);
  const auto r0 = pool.Get(0).Decode(llr);
  const auto r1 = pool.Get(1).Decode(llr);
  ExpectSameResult(r0, r1, 77);
}

TEST(Registry, FactoryRejectsBadSpecEagerly) {
  EXPECT_THROW(MakeDecoderFactory(SmallCode(), "nope"), ContractViolation);
}

// ---- Cross-decoder equivalence (the refactor contract). -----------

TEST(Equivalence, FloodingMatchesPreRefactorReference) {
  const auto& code = SmallCode();
  for (const char* spec :
       {"nms:iters=12,alpha=1.23", "ms:iters=8", "oms:iters=10,beta=0.5",
        "nms:iters=12,alpha=1.5,dyadic=0"}) {
    const auto decoder = MakeDecoder(code, spec);
    const auto& options =
        dynamic_cast<const MinSumDecoder&>(*decoder).options();
    for (std::uint64_t seed = 1; seed <= 6; ++seed) {
      const auto llr = NoisyFrame(code, 4.5, seed);
      ExpectSameResult(decoder->Decode(llr),
                       ReferenceFlooding(code, options, llr), seed);
    }
  }
}

TEST(Equivalence, LayeredMatchesPreRefactorReference) {
  const auto& code = SmallCode();
  for (const char* spec :
       {"layered-nms:iters=12,alpha=1.23", "layered-ms:iters=8",
        "layered-oms:iters=10,beta=0.5"}) {
    const auto decoder = MakeDecoder(code, spec);
    const auto& options =
        dynamic_cast<const LayeredDecoder<DoubleLanes>&>(*decoder).options();
    for (std::uint64_t seed = 11; seed <= 16; ++seed) {
      const auto llr = NoisyFrame(code, 4.5, seed);
      ExpectSameResult(decoder->Decode(llr),
                       ReferenceLayered(code, options, llr), seed);
    }
  }
}

TEST(Equivalence, FixedFloodingMatchesPreRefactorReference) {
  const auto& code = SmallCode();
  for (const char* spec : {"fixed-nms:iters=12", "fixed-nms:iters=8,wm=5",
                           "fixed-nms:iters=10,norm=7/8"}) {
    const auto decoder = MakeDecoder(code, spec);
    const auto& options =
        dynamic_cast<const FixedMinSumDecoder&>(*decoder).options();
    for (std::uint64_t seed = 21; seed <= 26; ++seed) {
      const auto llr = NoisyFrame(code, 4.5, seed);
      ExpectSameResult(decoder->Decode(llr),
                       ReferenceFixedFlooding(code, options, llr), seed);
    }
  }
}

TEST(Equivalence, FixedLayeredMatchesPreRefactorReference) {
  const auto& code = SmallCode();
  for (const char* spec :
       {"fixed-layered-nms:iters=12", "fixed-layered-nms:iters=8,wm=5"}) {
    const auto decoder = MakeDecoder(code, spec);
    const auto& options =
        dynamic_cast<const LayeredDecoder<FixedLanes>&>(*decoder).options();
    for (std::uint64_t seed = 31; seed <= 36; ++seed) {
      const auto llr = NoisyFrame(code, 4.5, seed);
      ExpectSameResult(decoder->Decode(llr),
                       ReferenceFixedLayered(code, options, llr), seed);
    }
  }
}

TEST(Equivalence, RunSpecMatchesHandConstructedRun) {
  // BerRunner::RunSpec must produce the identical curve the
  // hand-constructed factory produces (same engine, same seeds).
  const auto& code = SmallCode();
  static const Encoder encoder(code);
  sim::BerConfig config;
  config.ebn0_db = {4.0, 4.6};
  config.max_frames = 12;
  config.min_frame_errors = 12;
  config.threads = 2;
  config.batch_frames = 3;
  sim::BerRunner runner(code, encoder, config);

  auto by_spec = runner.RunSpec("layered-nms:iters=12,alpha=1.23");
  MinSumOptions o;
  o.iter.max_iterations = 12;
  o.alpha = 1.23;
  auto by_hand = runner.Run(
      [&] { return std::make_unique<LayeredDecoder<DoubleLanes>>(code, o); });

  ASSERT_EQ(by_spec.points.size(), by_hand.points.size());
  for (std::size_t i = 0; i < by_spec.points.size(); ++i) {
    EXPECT_EQ(by_spec.points[i].bit_errors.errors(),
              by_hand.points[i].bit_errors.errors());
    EXPECT_EQ(by_spec.points[i].frame_errors.errors(),
              by_hand.points[i].frame_errors.errors());
    EXPECT_EQ(by_spec.points[i].frames, by_hand.points[i].frames);
    EXPECT_EQ(by_spec.points[i].avg_iterations,
              by_hand.points[i].avg_iterations);
  }
}

}  // namespace
}  // namespace cldpc::ldpc
