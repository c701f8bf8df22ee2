// The layered-schedule extension: bit-exactness of the architecture's
// TDMP path against the fixed-point layered software decoder
// (fixed-layered-nms, in 1-lane and 16-lane groups), convergence
// advantage over flooding, and the cycle accounting that turns it
// into throughput.
#include <gtest/gtest.h>

#include <span>
#include <vector>

#include "arch/decoder_core.hpp"
#include "arch/throughput.hpp"
#include "channel/awgn.hpp"
#include "ldpc/batched_layered_decoder.hpp"
#include "ldpc/encoder.hpp"
#include "ldpc/fixed_minsum_decoder.hpp"
#include "qc/ccsds_c2.hpp"
#include "qc/small_codes.hpp"
#include "util/rng.hpp"

namespace cldpc::arch {
namespace {

struct Fixture {
  qc::QcMatrix qc = qc::MakeSmallQcCode();
  ldpc::LdpcCode code{qc.Expand()};
  ldpc::Encoder encoder{code};
};

Fixture& F() {
  static Fixture f;
  return f;
}

std::vector<double> NoisyFrame(double snr, std::uint64_t seed) {
  auto& f = F();
  Xoshiro256pp rng(seed);
  std::vector<std::uint8_t> info(f.code.k());
  for (auto& b : info) b = rng.NextBit() ? 1 : 0;
  const auto cw = f.encoder.Encode(info);
  return channel::TransmitBpskAwgn(cw, snr, f.code.Rate(), seed ^ 0x101);
}

ArchConfig LayeredConfig(int iterations = 9) {
  ArchConfig config = LowCostConfig();
  config.storage = MessageStorage::kCompressedCn;
  config.schedule = Schedule::kLayered;
  config.iterations = iterations;
  return config;
}

TEST(LayeredArch, RequiresCompressedStorage) {
  ArchConfig config = LowCostConfig();
  config.schedule = Schedule::kLayered;  // still per-edge storage
  EXPECT_THROW(Validate(config), ContractViolation);
}

class LayeredBitExact
    : public ::testing::TestWithParam<std::tuple<double, int>> {};

TEST_P(LayeredBitExact, MatchesFixedLayeredReference) {
  auto& f = F();
  const auto [snr, trial] = GetParam();
  const auto config = LayeredConfig();
  ArchDecoder arch(f.code, f.qc, config);
  ldpc::FixedMinSumOptions o;
  o.datapath = config.datapath;
  o.iter.max_iterations = config.iterations;
  o.iter.early_termination = false;
  // The software decoder one frame at a time (the 1-lane group) and
  // in a full 16-lane group.
  ldpc::LayeredDecoder<ldpc::FixedLanes> single(f.code, o, 1);
  ldpc::LayeredDecoder<ldpc::FixedLanes> group(f.code, o, 16);

  constexpr std::size_t kFrames = 16;
  std::vector<double> llrs;
  for (std::size_t j = 0; j < kFrames; ++j) {
    const auto llr = NoisyFrame(snr, 6000 + trial + 100 * j);
    llrs.insert(llrs.end(), llr.begin(), llr.end());
  }
  const auto grouped = group.DecodeBatch(llrs, kFrames);
  ASSERT_EQ(grouped.size(), kFrames);
  for (std::size_t j = 0; j < kFrames; ++j) {
    const std::span<const double> llr(llrs.data() + j * f.code.n(),
                                      f.code.n());
    const auto a = arch.Decode(llr);
    EXPECT_EQ(a.bits, single.Decode(llr).bits) << "batch=1 frame " << j;
    EXPECT_EQ(a.bits, grouped[j].bits) << "batch=16 frame " << j;
  }
}

INSTANTIATE_TEST_SUITE_P(
    SnrGrid, LayeredBitExact,
    ::testing::Combine(::testing::Values(2.5, 3.5, 4.5, 6.0),
                       ::testing::Values(0, 1, 2)));

TEST(LayeredArch, ConvergesInFewerIterationsThanFlooding) {
  auto& f = F();
  ArchConfig layered = LayeredConfig(30);
  layered.early_termination = true;
  ArchConfig flooding = LowCostConfig();
  flooding.storage = MessageStorage::kCompressedCn;
  flooding.iterations = 30;
  flooding.early_termination = true;

  ArchDecoder lay(f.code, f.qc, layered);
  ArchDecoder flood(f.code, f.qc, flooding);

  double lay_iters = 0, flood_iters = 0;
  int counted = 0;
  for (int trial = 0; trial < 15; ++trial) {
    const auto llr = NoisyFrame(4.5, 7000 + trial);
    const auto a = lay.Decode(llr);
    const auto b = flood.Decode(llr);
    if (a.converged && b.converged) {
      lay_iters += a.iterations_run;
      flood_iters += b.iterations_run;
      ++counted;
    }
  }
  ASSERT_GT(counted, 5);
  EXPECT_LT(lay_iters, flood_iters);
}

TEST(LayeredArch, IterationCyclesPerSchedule) {
  // Flooding: 511+24+18+511+16+18 = 1098; layered: 2*(511+24+18) = 1106
  // per iteration — but layered needs ~half the iterations.
  const Controller flooding(LowCostConfig(), 511, 8176, 2);
  ArchConfig lc = LayeredConfig();
  const Controller layered(lc, 511, 8176, 2);
  EXPECT_EQ(flooding.IterationCycles(), 1098u);
  EXPECT_EQ(layered.IterationCycles(), 1106u);
}

TEST(LayeredArch, HalfIterationsNearlyDoubleThroughput) {
  // 9 layered iterations vs 18 flooding iterations at equal BER
  // (standard TDMP trade) -> ~2x the output rate.
  const double flooding_mbps = ThroughputModel::OutputMbps(
      LowCostConfig(), qc::C2Constants::kQ, qc::C2Constants::kTxInfoBits, 18);
  const double layered_mbps = ThroughputModel::OutputMbps(
      LayeredConfig(), qc::C2Constants::kQ, qc::C2Constants::kTxInfoBits, 9);
  EXPECT_NEAR(layered_mbps / flooding_mbps, 2.0, 0.05);
}

TEST(LayeredArch, ScheduleTraceHasLayersOnly) {
  const Controller controller(LayeredConfig(), 511, 8176, 2);
  const auto schedule = controller.BuildSchedule(3);
  // LOAD + 3 iterations x 2 layers + OUTPUT.
  ASSERT_EQ(schedule.size(), 2u + 6u);
  for (std::size_t s = 1; s + 1 < schedule.size(); ++s) {
    EXPECT_EQ(schedule[s].phase, Phase::kCheckNode);
  }
}

TEST(LayeredArch, StatsHaveNoBnPhase) {
  const Controller controller(LayeredConfig(), 511, 8176, 2);
  const auto stats = controller.MakeStats(9);
  EXPECT_EQ(stats.bn_cycles, 0u);
  EXPECT_EQ(stats.total_cycles, stats.cn_cycles + stats.gap_cycles);
}

TEST(LayeredArch, BatchedFramesStayIndependent) {
  auto& f = F();
  ArchConfig config = LayeredConfig();
  config.frames_per_word = 3;
  ArchDecoder batch_dec(f.code, f.qc, config);
  ArchDecoder single_dec(f.code, f.qc, LayeredConfig());
  LlrQuantizer quantizer(config.datapath.channel_bits,
                         config.datapath.channel_scale);
  std::vector<std::vector<Fixed>> batch;
  std::vector<ldpc::DecodeResult> singles;
  for (int i = 0; i < 3; ++i) {
    const auto llr = NoisyFrame(3.5, 8000 + i);
    std::vector<Fixed> q(llr.size());
    for (std::size_t j = 0; j < llr.size(); ++j)
      q[j] = quantizer.Quantize(llr[j]);
    singles.push_back(single_dec.DecodeQuantized(q));
    batch.push_back(std::move(q));
  }
  const auto result = batch_dec.DecodeBatch(batch);
  for (int i = 0; i < 3; ++i)
    EXPECT_EQ(result.frames[i].bits, singles[i].bits) << i;
}

TEST(FixedLayeredReference, DecodesCleanAndNoisyFrames) {
  auto& f = F();
  ldpc::FixedMinSumOptions o;
  o.iter.max_iterations = 12;
  o.iter.early_termination = true;
  ldpc::LayeredDecoder<ldpc::FixedLanes> dec(f.code, o);
  int fails = 0;
  for (int trial = 0; trial < 20; ++trial) {
    Xoshiro256pp rng(900 + trial);
    std::vector<std::uint8_t> info(f.code.k());
    for (auto& b : info) b = rng.NextBit() ? 1 : 0;
    const auto cw = f.encoder.Encode(info);
    const auto llr =
        channel::TransmitBpskAwgn(cw, 5.5, f.code.Rate(), 950 + trial);
    if (dec.Decode(llr).bits != cw) ++fails;
  }
  EXPECT_LE(fails, 1);
}

TEST(FixedLayeredReference, FasterConvergenceThanFloodingFixed) {
  auto& f = F();
  ldpc::FixedMinSumOptions o;
  o.iter.max_iterations = 40;
  o.iter.early_termination = true;
  ldpc::LayeredDecoder<ldpc::FixedLanes> layered(f.code, o);
  ldpc::FixedMinSumDecoder flooding(f.code, o);
  double lay = 0, flood = 0;
  int counted = 0;
  for (int trial = 0; trial < 25; ++trial) {
    const auto llr = NoisyFrame(5.0, 9000 + trial);
    const auto a = layered.Decode(llr);
    const auto b = flooding.Decode(llr);
    if (a.converged && b.converged) {
      lay += a.iterations_run;
      flood += b.iterations_run;
      ++counted;
    }
  }
  ASSERT_GT(counted, 10);
  EXPECT_LT(lay, flood);
}

}  // namespace
}  // namespace cldpc::arch
