#include "util/rng.hpp"

#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <set>
#include <vector>

namespace cldpc {
namespace {

std::uint64_t Bits(double d) { return std::bit_cast<std::uint64_t>(d); }

/// FNV-1a over the IEEE bit patterns of a sample vector.
std::uint64_t Fingerprint(const std::vector<double>& v) {
  std::uint64_t h = 0xCBF29CE484222325ULL;
  for (const double d : v) {
    const std::uint64_t b = Bits(d);
    for (int i = 0; i < 8; ++i) {
      h ^= (b >> (8 * i)) & 0xFF;
      h *= 0x100000001B3ULL;
    }
  }
  return h;
}

TEST(SplitMix64, KnownSequenceIsStable) {
  // Golden values pin the implementation so experiment seeds stay
  // valid across refactors.
  SplitMix64 mix(0);
  const std::uint64_t a = mix.Next();
  const std::uint64_t b = mix.Next();
  SplitMix64 mix2(0);
  EXPECT_EQ(a, mix2.Next());
  EXPECT_EQ(b, mix2.Next());
  EXPECT_NE(a, b);
}

TEST(DeriveSeed, DistinctIndicesGiveDistinctSeeds) {
  std::set<std::uint64_t> seen;
  for (std::uint64_t a = 0; a < 10; ++a) {
    for (std::uint64_t b = 0; b < 10; ++b) {
      seen.insert(DeriveSeed(42, a, b));
    }
  }
  EXPECT_EQ(seen.size(), 100u);
}

TEST(DeriveSeed, Deterministic) {
  EXPECT_EQ(DeriveSeed(1, 2, 3, 4), DeriveSeed(1, 2, 3, 4));
  EXPECT_NE(DeriveSeed(1, 2, 3, 4), DeriveSeed(2, 2, 3, 4));
}

TEST(DeriveSeed, GoldenValues) {
  // The cross-thread stream contract: the parallel engine assigns a
  // frame's data/noise streams as DeriveSeed(base, snr_index,
  // frame_index, 1|2), so these values may NEVER change — doing so
  // silently invalidates every recorded experiment and the engine's
  // sequential/parallel equivalence. If a change is truly intended,
  // re-derive the constants and say so loudly in the commit.
  EXPECT_EQ(DeriveSeed(0, 0, 0, 0), 0x421DB08015141DD2ULL);
  EXPECT_EQ(DeriveSeed(1, 0, 0, 0), 0x0296E37435EF40A0ULL);
  EXPECT_EQ(DeriveSeed(1, 2, 3, 0), 0xCC1265085E7E2CEBULL);
  EXPECT_EQ(DeriveSeed(42, 1, 0, 0), 0x2C90041885B6DDB2ULL);
  // bench_figure4's default seed: data/noise streams of the first and
  // of a late frame.
  EXPECT_EQ(DeriveSeed(2009, 0, 0, 1), 0x12292FA44AF36FA6ULL);
  EXPECT_EQ(DeriveSeed(2009, 0, 0, 2), 0x41B5B2D09845A300ULL);
  EXPECT_EQ(DeriveSeed(2009, 4, 59, 1), 0xD6E1660B379E90C3ULL);
  EXPECT_EQ(DeriveSeed(2009, 4, 59, 2), 0x980DC3377A35D46DULL);
}

TEST(Xoshiro256pp, Deterministic) {
  Xoshiro256pp a(123), b(123);
  for (int i = 0; i < 1000; ++i) EXPECT_EQ(a.Next(), b.Next());
}

TEST(Xoshiro256pp, DifferentSeedsDiverge) {
  Xoshiro256pp a(1), b(2);
  int equal = 0;
  for (int i = 0; i < 100; ++i) {
    if (a.Next() == b.Next()) ++equal;
  }
  EXPECT_EQ(equal, 0);
}

TEST(Xoshiro256pp, NextDoubleInUnitInterval) {
  Xoshiro256pp rng(7);
  for (int i = 0; i < 10000; ++i) {
    const double d = rng.NextDouble();
    EXPECT_GE(d, 0.0);
    EXPECT_LT(d, 1.0);
  }
}

TEST(Xoshiro256pp, NextDoubleMeanNearHalf) {
  Xoshiro256pp rng(99);
  double sum = 0;
  const int n = 100000;
  for (int i = 0; i < n; ++i) sum += rng.NextDouble();
  EXPECT_NEAR(sum / n, 0.5, 0.01);
}

TEST(Xoshiro256pp, BoundedIsInRangeAndCoversValues) {
  Xoshiro256pp rng(5);
  std::set<std::uint64_t> seen;
  for (int i = 0; i < 1000; ++i) {
    const auto v = rng.NextBounded(17);
    EXPECT_LT(v, 17u);
    seen.insert(v);
  }
  EXPECT_EQ(seen.size(), 17u);  // all residues hit in 1000 draws
}

TEST(Xoshiro256pp, BoundedZeroReturnsZero) {
  Xoshiro256pp rng(5);
  EXPECT_EQ(rng.NextBounded(0), 0u);
}

TEST(Xoshiro256pp, BoundedOneIsAlwaysZero) {
  Xoshiro256pp rng(5);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(rng.NextBounded(1), 0u);
}

TEST(GaussianSampler, MomentsMatchStandardNormal) {
  GaussianSampler g(1234);
  const int n = 200000;
  double sum = 0, sum2 = 0, sum3 = 0;
  for (int i = 0; i < n; ++i) {
    const double x = g.Next();
    sum += x;
    sum2 += x * x;
    sum3 += x * x * x;
  }
  EXPECT_NEAR(sum / n, 0.0, 0.01);
  EXPECT_NEAR(sum2 / n, 1.0, 0.02);
  EXPECT_NEAR(sum3 / n, 0.0, 0.05);  // symmetry
}

TEST(GaussianSampler, ScaledMoments) {
  GaussianSampler g(77);
  const int n = 100000;
  double sum = 0, sum2 = 0;
  for (int i = 0; i < n; ++i) {
    const double x = g.Next(3.0, 2.0);
    sum += x;
    sum2 += (x - 3.0) * (x - 3.0);
  }
  EXPECT_NEAR(sum / n, 3.0, 0.03);
  EXPECT_NEAR(sum2 / n, 4.0, 0.08);
}

TEST(GaussianSampler, TailProbabilityReasonable) {
  GaussianSampler g(31337);
  const int n = 200000;
  int beyond2 = 0;
  for (int i = 0; i < n; ++i) {
    if (std::fabs(g.Next()) > 2.0) ++beyond2;
  }
  // P(|X| > 2) = 4.55 %.
  EXPECT_NEAR(static_cast<double>(beyond2) / n, 0.0455, 0.004);
}

// Golden streams. Every Monte-Carlo curve is a function of these
// exact bits, so generator and sampler refactors (inlining, batching,
// vectorisation) must reproduce them; only a deliberate, documented
// stream change may re-record them.

TEST(Xoshiro256pp, GoldenOutputs) {
  Xoshiro256pp zero(0);
  EXPECT_EQ(zero.Next(), 0x53175D61490B23DFULL);
  EXPECT_EQ(zero.Next(), 0x61DA6F3DC380D507ULL);
  EXPECT_EQ(zero.Next(), 0x5C0FDF91EC9A7BFCULL);
  EXPECT_EQ(zero.Next(), 0x02EEBF8C3BBE5E1AULL);
  Xoshiro256pp other(2009);
  EXPECT_EQ(other.Next(), 0xB1546EA92EA337E3ULL);
  EXPECT_EQ(other.Next(), 0xFCDAAFD3628C99CBULL);
  EXPECT_EQ(other.Next(), 0x34AFC42669A59E13ULL);
  EXPECT_EQ(other.Next(), 0x3C6A8409AF74544AULL);
}

TEST(GaussianSampler, NextBatchGoldenOddAndEvenLengths) {
  const std::uint64_t expected[] = {
      0xBFEF1423ADBACDC9ULL, 0x3FF7064075DC31C8ULL, 0x3FD1B4D6B095FE8DULL,
      0xBFC982B517BF99B2ULL, 0xBFE0CEC7227346E8ULL, 0xBF7A4D1BCF9EF06FULL,
      0x3FDBE611B96B53A0ULL, 0xBFD0E2E4E1DC8CE6ULL};
  for (const std::size_t len : {7u, 8u}) {
    SCOPED_TRACE(len);
    GaussianSampler g(77);
    std::vector<double> out(len);
    g.NextBatch(out);
    for (std::size_t i = 0; i < len; ++i) EXPECT_EQ(Bits(out[i]), expected[i]);
    // Both lengths end on the same pair, so the stream position after
    // the call is the same: an odd length caches the pair's second
    // variate instead of drawing past it.
    EXPECT_EQ(g.rng().Next(), 0xB5DD20FEE1B8E2C9ULL);
  }
}

TEST(GaussianSampler, NextBatchGoldenLongerThanOneChunk) {
  struct Golden {
    std::size_t len;
    std::uint64_t fingerprint, last, next_draw;
  };
  const Golden goldens[] = {
      {129, 0x44E0AD6ABED1FCB0ULL, 0xBFEE6073277BA7BFULL,
       0xCEAE6688A3C1C4DDULL},
      {150, 0x568EAB862E21BB16ULL, 0xBFE423AB0D71EB0EULL,
       0x18461FFEF9C9C565ULL},
      {8176, 0x260077F01ACD6FA0ULL, 0xBFC59615600C2C7DULL,
       0x8AC99CA33A6FB17FULL},
  };
  for (const auto& g : goldens) {
    SCOPED_TRACE(g.len);
    GaussianSampler sampler(2009);
    std::vector<double> out(g.len);
    sampler.NextBatch(out);
    EXPECT_EQ(Bits(out.front()), 0xBFE71781170AAB07ULL);
    EXPECT_EQ(Bits(out.back()), g.last);
    EXPECT_EQ(Fingerprint(out), g.fingerprint);
    EXPECT_EQ(sampler.rng().Next(), g.next_draw);
  }
}

TEST(GaussianSampler, NextBatchGoldenCachedVariateAcrossCalls) {
  GaussianSampler g(31);
  std::vector<double> first(5), second(4);
  g.NextBatch(first);   // caches the third pair's second variate
  g.NextBatch(second);  // starts with it
  EXPECT_EQ(Bits(first[4]), 0x3FCE53D266ECE666ULL);
  EXPECT_EQ(Bits(second[0]), 0x40000C363356F4B1ULL);
  EXPECT_EQ(Bits(second[3]), 0xBFE4F0692C26FE81ULL);
  EXPECT_EQ(Fingerprint(second), 0xBB752229E22D4794ULL);
  EXPECT_EQ(Bits(g.Next()), 0x3FB5C18F3BE06AC8ULL);
  EXPECT_EQ(g.rng().Next(), 0xCD42C1C26A6DD468ULL);
}

}  // namespace
}  // namespace cldpc
