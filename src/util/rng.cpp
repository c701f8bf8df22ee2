#include "util/rng.hpp"

#include <algorithm>
#include <cmath>

namespace cldpc {

std::uint64_t DeriveSeed(std::uint64_t base, std::uint64_t a, std::uint64_t b,
                         std::uint64_t c) {
  // Feed each index through the mixer so that nearby indices yield
  // statistically independent streams.
  SplitMix64 mix(base);
  std::uint64_t h = mix.Next();
  h ^= SplitMix64(a ^ 0x6A09E667F3BCC908ULL).Next() + 0x9E3779B97F4A7C15ULL +
       (h << 6) + (h >> 2);
  h ^= SplitMix64(b ^ 0xBB67AE8584CAA73BULL).Next() + 0x9E3779B97F4A7C15ULL +
       (h << 6) + (h >> 2);
  h ^= SplitMix64(c ^ 0x3C6EF372FE94F82BULL).Next() + 0x9E3779B97F4A7C15ULL +
       (h << 6) + (h >> 2);
  return h;
}

Xoshiro256pp::Xoshiro256pp(std::uint64_t seed) {
  // Seed the four state words from SplitMix64 as recommended by the
  // xoshiro authors; avoids the all-zero state by construction.
  SplitMix64 mix(seed);
  for (auto& word : s_) word = mix.Next();
}

std::uint64_t Xoshiro256pp::NextBounded(std::uint64_t bound) {
  if (bound == 0) return 0;
  // Lemire-style rejection to remove modulo bias.
  const std::uint64_t threshold = (0 - bound) % bound;
  for (;;) {
    const std::uint64_t r = Next();
    if (r >= threshold) return r % bound;
  }
}

double GaussianSampler::Next() {
  if (has_cached_) {
    has_cached_ = false;
    return cached_;
  }
  double u, v, s;
  do {
    u = 2.0 * rng_.NextDouble() - 1.0;
    v = 2.0 * rng_.NextDouble() - 1.0;
    s = u * u + v * v;
  } while (s >= 1.0 || s == 0.0);
  const double factor = std::sqrt(-2.0 * std::log(s) / s);
  cached_ = v * factor;
  has_cached_ = true;
  return u * factor;
}

void GaussianSampler::NextBatch(std::span<double> out) {
  std::size_t i = 0;
  if (has_cached_ && i < out.size()) {
    has_cached_ = false;
    out[i++] = cached_;
  }
  // Chunked polar method in three passes per chunk of pairs. The
  // expressions are the scalar Next()'s, so every sample is
  // bit-identical to the scalar path's.
  constexpr std::size_t kChunk = 256;
  double us[kChunk], vs[kChunk], ss[kChunk], logs[kChunk];
  while (i < out.size()) {
    const std::size_t pairs =
        std::min(kChunk, (out.size() - i + 1) / 2);  // last may be half-used
    // 1. Accept/reject in rounds: a round draws one candidate per pair
    // still needed and keeps the accepted ones by advancing `got`
    // (rejects are overwritten), so no round can draw a candidate the
    // scalar loop would not have drawn before its last accept.
    for (std::size_t got = 0; got < pairs;) {
      for (std::size_t need = pairs - got; need > 0; --need) {
        const double u = 2.0 * rng_.NextDouble() - 1.0;
        const double v = 2.0 * rng_.NextDouble() - 1.0;
        const double s = u * u + v * v;
        us[got] = u;
        vs[got] = v;
        ss[got] = s;
        // s >= 0, so s > 0.0 is Next()'s s != 0.0 in one compare.
        got += static_cast<std::size_t>((s < 1.0) & (s > 0.0));
      }
    }
    // 2. The logs (library calls).
    for (std::size_t k = 0; k < pairs; ++k) logs[k] = std::log(ss[k]);
    // 3. Multipliers and outputs, u * factor then v * factor per pair.
    // An odd batch end leaves the last pair's second variate cached
    // for the next draw, exactly like Next() would have.
    const std::size_t full = std::min(pairs, (out.size() - i) / 2);
    double* pair_out = out.data() + i;
    for (std::size_t k = 0; k < full; ++k) {
      const double factor = std::sqrt(-2.0 * logs[k] / ss[k]);
      pair_out[2 * k] = us[k] * factor;
      pair_out[2 * k + 1] = vs[k] * factor;
    }
    i += 2 * full;
    if (full < pairs) {
      const double factor = std::sqrt(-2.0 * logs[full] / ss[full]);
      out[i++] = us[full] * factor;
      cached_ = vs[full] * factor;
      has_cached_ = true;
    }
  }
}

void GaussianSampler::NextBatch(std::span<double> out, double mean,
                                double stddev) {
  NextBatch(out);
  for (auto& z : out) z = mean + stddev * z;
}

}  // namespace cldpc
