// The layered normalized min-sum decoder through its registry specs
// (a spec without `batch` decodes each frame as a 1-lane group).
#include <gtest/gtest.h>

#include <memory>
#include <string>

#include "channel/awgn.hpp"
#include "ldpc/core/registry.hpp"
#include "ldpc/encoder.hpp"
#include "qc/small_codes.hpp"
#include "util/rng.hpp"

namespace cldpc::ldpc {
namespace {

const LdpcCode& SmallCode() {
  static const LdpcCode code(qc::MakeSmallQcCode().Expand());
  return code;
}

std::vector<std::uint8_t> RandomInfo(const LdpcCode& code, std::uint64_t seed) {
  Xoshiro256pp rng(seed);
  std::vector<std::uint8_t> info(code.k());
  for (auto& b : info) b = rng.NextBit() ? 1 : 0;
  return info;
}

/// Normalized min-sum, alpha 1.23, `iters` iterations; `kind` picks
/// the schedule (layered-nms or flooding nms).
std::unique_ptr<Decoder> Make(int iters, bool early = true,
                              const std::string& kind = "layered-nms") {
  return MakeDecoder(SmallCode(), kind + ":alpha=1.23,iters=" +
                                      std::to_string(iters) +
                                      (early ? "" : ",et=0"));
}

TEST(LayeredMinSum, NoiselessDecodes) {
  const auto& code = SmallCode();
  const Encoder enc(code);
  const auto cw = enc.Encode(RandomInfo(code, 1));
  std::vector<double> llr(code.n());
  for (std::size_t i = 0; i < llr.size(); ++i) llr[i] = cw[i] ? -7.0 : 7.0;
  const auto result = Make(10)->Decode(llr);
  EXPECT_TRUE(result.converged);
  EXPECT_EQ(result.bits, cw);
}

TEST(LayeredMinSum, CorrectsErrorsAtModerateSnr) {
  const auto& code = SmallCode();
  const Encoder enc(code);
  int fails = 0;
  for (int f = 0; f < 30; ++f) {
    const auto cw = enc.Encode(RandomInfo(code, 40 + f));
    const auto llr = channel::TransmitBpskAwgn(cw, 5.5, code.Rate(), 50 + f);
    if (Make(20)->Decode(llr).bits != cw) ++fails;
  }
  EXPECT_LE(fails, 1);
}

TEST(LayeredMinSum, ConvergesInFewerIterationsThanFlooding) {
  // The scheduling advantage: average iterations-to-convergence over
  // decodable frames must be lower for layered than flooding.
  const auto& code = SmallCode();
  const Encoder enc(code);
  double flood_iters = 0, layered_iters = 0;
  int counted = 0;
  for (int f = 0; f < 40; ++f) {
    const auto cw = enc.Encode(RandomInfo(code, 900 + f));
    const auto llr = channel::TransmitBpskAwgn(cw, 5.0, code.Rate(), 950 + f);
    const auto rf = Make(40, true, "nms")->Decode(llr);
    const auto rl = Make(40)->Decode(llr);
    if (rf.converged && rl.converged) {
      flood_iters += rf.iterations_run;
      layered_iters += rl.iterations_run;
      ++counted;
    }
  }
  ASSERT_GT(counted, 10);
  EXPECT_LT(layered_iters, flood_iters);
}

TEST(LayeredMinSum, FixedIterationMode) {
  const auto& code = SmallCode();
  const std::vector<double> llr(code.n(), 0.0);
  EXPECT_EQ(Make(9, /*early=*/false)->Decode(llr).iterations_run, 9);
}

TEST(LayeredMinSum, NameMentionsLayered) {
  EXPECT_EQ(Make(5)->Name().rfind("layered-", 0), 0u);
}

}  // namespace
}  // namespace cldpc::ldpc
