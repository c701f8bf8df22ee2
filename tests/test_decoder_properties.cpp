// Cross-decoder invariants that hold for any message-passing decoder
// in the library — symmetry, monotonicity and consistency properties
// exercised over every decoder type on the same frames.
#include <gtest/gtest.h>

#include <memory>
#include <string>

#include "channel/awgn.hpp"
#include "ldpc/bp_decoder.hpp"
#include "ldpc/core/registry.hpp"
#include "ldpc/encoder.hpp"
#include "ldpc/fixed_minsum_decoder.hpp"
#include "ldpc/minsum_decoder.hpp"
#include "qc/small_codes.hpp"
#include "util/rng.hpp"

namespace cldpc::ldpc {
namespace {

struct Fixture {
  LdpcCode code{qc::MakeSmallQcCode().Expand()};
  Encoder encoder{code};
};

Fixture& F() {
  static Fixture f;
  return f;
}

enum class Kind { kBp, kNms, kPlainMs, kOffsetMs, kLayered, kFixed };

std::unique_ptr<Decoder> Make(Kind kind, int iterations) {
  auto& f = F();
  IterOptions iter{.max_iterations = iterations, .early_termination = true};
  switch (kind) {
    case Kind::kBp:
      return std::make_unique<BpDecoder>(f.code, iter);
    case Kind::kNms: {
      MinSumOptions o;
      o.iter = iter;
      o.alpha = 1.23;
      return std::make_unique<MinSumDecoder>(f.code, o);
    }
    case Kind::kPlainMs: {
      MinSumOptions o;
      o.iter = iter;
      o.variant = MinSumVariant::kPlain;
      return std::make_unique<MinSumDecoder>(f.code, o);
    }
    case Kind::kOffsetMs: {
      MinSumOptions o;
      o.iter = iter;
      o.variant = MinSumVariant::kOffset;
      o.beta = 0.4;
      return std::make_unique<MinSumDecoder>(f.code, o);
    }
    case Kind::kLayered:
      return MakeDecoder(f.code, "layered-nms:alpha=1.23,iters=" +
                                     std::to_string(iterations));
    case Kind::kFixed: {
      FixedMinSumOptions o;
      o.iter = iter;
      return std::make_unique<FixedMinSumDecoder>(f.code, o);
    }
  }
  return nullptr;
}

class EveryDecoder : public ::testing::TestWithParam<Kind> {};

TEST_P(EveryDecoder, DecodesCleanCodeword) {
  auto& f = F();
  auto dec = Make(GetParam(), 20);
  Xoshiro256pp rng(1);
  std::vector<std::uint8_t> info(f.code.k());
  for (auto& b : info) b = rng.NextBit() ? 1 : 0;
  const auto cw = f.encoder.Encode(info);
  std::vector<double> llr(f.code.n());
  for (std::size_t i = 0; i < llr.size(); ++i) llr[i] = cw[i] ? -7.0 : 7.0;
  const auto result = dec->Decode(llr);
  EXPECT_TRUE(result.converged) << dec->Name();
  EXPECT_EQ(result.bits, cw) << dec->Name();
}

TEST_P(EveryDecoder, OutputIsAlwaysFullLength) {
  auto& f = F();
  auto dec = Make(GetParam(), 3);
  const std::vector<double> llr(f.code.n(), 0.37);
  const auto result = dec->Decode(llr);
  EXPECT_EQ(result.bits.size(), f.code.n());
  EXPECT_GE(result.iterations_run, 1);
  EXPECT_LE(result.iterations_run, 3);
}

TEST_P(EveryDecoder, GlobalSignFlipFlipsDecision) {
  // BPSK symmetry: negating every LLR maps codeword c to c + 1...1
  // only if the all-ones word is a codeword; in general, flipping the
  // signs of a *codeword-consistent* LLR pattern yields the
  // complementary hard-decision pattern on the first iteration.
  // We test the robust core of the property: decoding the negated
  // clean LLRs of the all-zero codeword converges iff the all-ones
  // word is a codeword, and never crashes.
  auto& f = F();
  auto dec = Make(GetParam(), 10);
  std::vector<double> llr(f.code.n(), -7.0);  // "all bits are 1"
  const auto result = dec->Decode(llr);
  const std::vector<std::uint8_t> ones(f.code.n(), 1);
  EXPECT_EQ(result.converged, f.code.IsCodeword(ones)) << dec->Name();
}

TEST_P(EveryDecoder, CorrectsSingleWeakBit) {
  // One bit of a clean frame is received as weakly wrong: any
  // message-passing decoder must repair it in a couple of iterations.
  auto& f = F();
  auto dec = Make(GetParam(), 10);
  Xoshiro256pp rng(5);
  std::vector<std::uint8_t> info(f.code.k());
  for (auto& b : info) b = rng.NextBit() ? 1 : 0;
  const auto cw = f.encoder.Encode(info);
  std::vector<double> llr(f.code.n());
  for (std::size_t i = 0; i < llr.size(); ++i) llr[i] = cw[i] ? -6.0 : 6.0;
  const std::size_t victim = 137;
  llr[victim] = cw[victim] ? 0.8 : -0.8;  // weakly wrong
  const auto result = dec->Decode(llr);
  EXPECT_EQ(result.bits, cw) << dec->Name();
}

TEST_P(EveryDecoder, DeterministicAcrossCalls) {
  auto& f = F();
  auto dec = Make(GetParam(), 8);
  Xoshiro256pp rng(9);
  std::vector<std::uint8_t> info(f.code.k());
  for (auto& b : info) b = rng.NextBit() ? 1 : 0;
  const auto cw = f.encoder.Encode(info);
  const auto llr = channel::TransmitBpskAwgn(cw, 3.0, f.code.Rate(), 10);
  const auto a = dec->Decode(llr);
  const auto b = dec->Decode(llr);  // decoder state must fully reset
  EXPECT_EQ(a.bits, b.bits) << dec->Name();
  EXPECT_EQ(a.iterations_run, b.iterations_run);
}

TEST_P(EveryDecoder, NameIsNonEmpty) {
  EXPECT_FALSE(Make(GetParam(), 2)->Name().empty());
}

INSTANTIATE_TEST_SUITE_P(AllKinds, EveryDecoder,
                         ::testing::Values(Kind::kBp, Kind::kNms,
                                           Kind::kPlainMs, Kind::kOffsetMs,
                                           Kind::kLayered, Kind::kFixed),
                         [](const auto& info) {
                           switch (info.param) {
                             case Kind::kBp:
                               return std::string("Bp");
                             case Kind::kNms:
                               return std::string("Nms");
                             case Kind::kPlainMs:
                               return std::string("PlainMs");
                             case Kind::kOffsetMs:
                               return std::string("OffsetMs");
                             case Kind::kLayered:
                               return std::string("Layered");
                             case Kind::kFixed:
                               return std::string("Fixed");
                           }
                           return std::string("Unknown");
                         });

}  // namespace
}  // namespace cldpc::ldpc
