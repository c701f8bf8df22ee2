#include "ldpc/encoder.hpp"

#include <gtest/gtest.h>

#include <set>
#include <string>

#include "codes/alist.hpp"
#include "codes/catalog.hpp"
#include "gf2/bitmat.hpp"
#include "ldpc/c2_system.hpp"
#include "qc/qc_builder.hpp"
#include "qc/small_codes.hpp"
#include "util/rng.hpp"

namespace cldpc::ldpc {
namespace {

std::vector<std::uint8_t> RandomBits(std::size_t n, std::uint64_t seed) {
  Xoshiro256pp rng(seed);
  std::vector<std::uint8_t> bits(n);
  for (auto& b : bits) b = rng.NextBit() ? 1 : 0;
  return bits;
}

TEST(LdpcCode, HammingDimensions) {
  const LdpcCode code(qc::MakeHammingH());
  EXPECT_EQ(code.n(), 7u);
  EXPECT_EQ(code.num_checks(), 3u);
  EXPECT_EQ(code.Rank(), 3u);
  EXPECT_EQ(code.k(), 4u);
}

TEST(LdpcCode, SyndromeOfZeroWordIsZero) {
  const LdpcCode code(qc::MakeSmallQcCode().Expand());
  const std::vector<std::uint8_t> zero(code.n(), 0);
  EXPECT_TRUE(code.IsCodeword(zero));
}

TEST(LdpcCode, InfoAndPivotColsPartitionColumns) {
  const LdpcCode code(qc::MakeSmallQcCode().Expand());
  std::vector<bool> seen(code.n(), false);
  for (const auto c : code.InfoCols()) {
    EXPECT_FALSE(seen[c]);
    seen[c] = true;
  }
  for (const auto c : code.PivotCols()) {
    EXPECT_FALSE(seen[c]);
    seen[c] = true;
  }
  for (const auto s : seen) EXPECT_TRUE(s);
  EXPECT_EQ(code.InfoCols().size(), code.k());
  EXPECT_EQ(code.PivotCols().size(), code.Rank());
}

TEST(Encoder, HammingEnumeratesExactlyTheNullspace) {
  // The 16 encoder outputs must be 16 *distinct* codewords — i.e.
  // exactly the null space of H (which has 2^4 elements).
  const LdpcCode code(qc::MakeHammingH());
  const Encoder enc(code);
  std::set<std::vector<std::uint8_t>> encoded;
  for (unsigned w = 0; w < 16; ++w) {
    std::vector<std::uint8_t> info(4);
    for (unsigned b = 0; b < 4; ++b) info[b] = (w >> b) & 1u;
    const auto cw = enc.Encode(info);
    EXPECT_TRUE(code.IsCodeword(cw));
    encoded.insert(cw);
  }
  EXPECT_EQ(encoded.size(), 16u);
  // Brute-force the null space and compare.
  std::size_t nullspace = 0;
  for (unsigned w = 0; w < 128; ++w) {
    std::vector<std::uint8_t> x(7);
    for (unsigned b = 0; b < 7; ++b) x[b] = (w >> b) & 1u;
    if (code.IsCodeword(x)) {
      ++nullspace;
      EXPECT_TRUE(encoded.count(x)) << w;
    }
  }
  EXPECT_EQ(nullspace, 16u);
}

TEST(Encoder, AllCodewordsSatisfyH) {
  const LdpcCode code(qc::MakeHammingH());
  const Encoder enc(code);
  for (unsigned w = 0; w < 16; ++w) {
    std::vector<std::uint8_t> info(4);
    for (unsigned b = 0; b < 4; ++b) info[b] = (w >> b) & 1u;
    EXPECT_TRUE(code.IsCodeword(enc.Encode(info)));
  }
}

TEST(Encoder, LinearityProperty) {
  const LdpcCode code(qc::MakeSmallQcCode().Expand());
  const Encoder enc(code);
  const auto a = RandomBits(code.k(), 1);
  const auto b = RandomBits(code.k(), 2);
  std::vector<std::uint8_t> sum(code.k());
  for (std::size_t i = 0; i < sum.size(); ++i) sum[i] = a[i] ^ b[i];
  const auto ca = enc.Encode(a);
  const auto cb = enc.Encode(b);
  const auto csum = enc.Encode(sum);
  for (std::size_t i = 0; i < csum.size(); ++i) {
    EXPECT_EQ(csum[i], ca[i] ^ cb[i]);
  }
}

TEST(Encoder, SystematicRoundTrip) {
  const LdpcCode code(qc::MakeSmallQcCode().Expand());
  const Encoder enc(code);
  for (std::uint64_t seed = 0; seed < 10; ++seed) {
    const auto info = RandomBits(code.k(), seed);
    const auto cw = enc.Encode(info);
    EXPECT_TRUE(code.IsCodeword(cw));
    EXPECT_EQ(enc.ExtractInfo(cw), info);
  }
}

TEST(Encoder, WrongInfoLengthThrows) {
  const LdpcCode code(qc::MakeHammingH());
  const Encoder enc(code);
  EXPECT_THROW(enc.Encode(std::vector<std::uint8_t>(3)), ContractViolation);
  EXPECT_THROW(enc.ExtractInfo(std::vector<std::uint8_t>(6)),
               ContractViolation);
}

TEST(Encoder, C2FullFrameRoundTrip) {
  const auto system = MakeC2System();
  const auto info = RandomBits(system.code->k(), 42);
  const auto cw = system.encoder->Encode(info);
  EXPECT_EQ(cw.size(), 8176u);
  EXPECT_TRUE(system.code->IsCodeword(cw));
  EXPECT_EQ(system.encoder->ExtractInfo(cw), info);
}

TEST(Encoder, C2WeightOneInfoWords) {
  // Single-bit info words exercise one information column alone.
  const auto system = MakeC2System();
  Xoshiro256pp rng(7);
  for (int trial = 0; trial < 5; ++trial) {
    std::vector<std::uint8_t> info(system.code->k(), 0);
    info[rng.NextBounded(info.size())] = 1;
    EXPECT_TRUE(system.code->IsCodeword(system.encoder->Encode(info)));
  }
}

/// Reference: the table encoder built from the reduced row echelon
/// form of H. Row i of the RREF has its pivot at PivotCols()[i] and
/// no other pivot column, so x[p_i] = XOR over information columns j
/// of R[i][j] x[j]: one rank-bit contribution vector per information
/// bit, XORed in for every set one.
class RrefTableEncoder {
 public:
  explicit RrefTableEncoder(const LdpcCode& code) : code_(code) {
    auto rref = code.h().ToDense();
    const auto reduction = rref.RowReduce();
    EXPECT_EQ(reduction.pivot_cols, code.PivotCols());
    EXPECT_EQ(reduction.free_cols, code.InfoCols());
    std::vector<std::size_t> info_index(code.n(), code.n());
    for (std::size_t j = 0; j < code.k(); ++j)
      info_index[code.InfoCols()[j]] = j;
    parity_of_info_.assign(code.k(), gf2::BitVec(reduction.rank));
    for (std::size_t i = 0; i < reduction.rank; ++i) {
      const auto& row = rref.Row(i);
      for (std::size_t c = row.FirstSet(); c < code.n(); c = row.NextSet(c + 1))
        if (info_index[c] != code.n()) parity_of_info_[info_index[c]].Set(i, true);
    }
  }

  std::vector<std::uint8_t> Encode(const std::vector<std::uint8_t>& info) const {
    std::vector<std::uint8_t> codeword(code_.n(), 0);
    gf2::BitVec parity(code_.Rank());
    for (std::size_t j = 0; j < info.size(); ++j) {
      if (info[j] & 1u) {
        codeword[code_.InfoCols()[j]] = 1;
        parity ^= parity_of_info_[j];
      }
    }
    for (std::size_t i = 0; i < code_.Rank(); ++i)
      if (parity.Get(i)) codeword[code_.PivotCols()[i]] = 1;
    return codeword;
  }

 private:
  const LdpcCode& code_;
  std::vector<gf2::BitVec> parity_of_info_;
};

/// Encode all-zero, all-ones, weight-1 (every position, or `stride`
/// apart plus the last) and random words with both encoders; the
/// outputs must be identical codewords.
void ExpectMatchesReference(const LdpcCode& code, std::uint64_t seed,
                            std::size_t stride = 1) {
  const Encoder enc(code);
  const RrefTableEncoder reference(code);
  const std::size_t k = code.k();
  std::vector<std::vector<std::uint8_t>> words;
  words.emplace_back(k, 0);
  words.emplace_back(k, 1);
  for (std::size_t j = 0; j < k; j += stride) {
    words.emplace_back(k, 0);
    words.back()[j] = 1;
  }
  words.emplace_back(k, 0);
  words.back()[k - 1] = 1;
  for (std::uint64_t r = 0; r < 8; ++r) words.push_back(RandomBits(k, seed + r));
  // Bytes other than 0/1 encode their low bit, in both encoders.
  Xoshiro256pp rng(seed);
  words.emplace_back(k);
  for (auto& b : words.back()) b = static_cast<std::uint8_t>(rng.Next());

  gf2::BitVec scratch;  // reused across calls, as the engine does
  std::vector<std::uint8_t> into(code.n());
  for (std::size_t w = 0; w < words.size(); ++w) {
    const auto expected = reference.Encode(words[w]);
    const auto got = enc.Encode(words[w]);
    ASSERT_EQ(got, expected) << "word " << w;
    ASSERT_TRUE(code.IsCodeword(got)) << "word " << w;
    enc.EncodeInto(words[w], into, scratch);
    ASSERT_EQ(into, expected) << "word " << w;
  }
}

TEST(EncoderEquivalence, C2) {
  const auto system = MakeC2System();
  EXPECT_EQ(system.code->num_checks(), 1022u);
  EXPECT_EQ(system.code->Rank(), 1020u);
  ExpectMatchesReference(*system.code, 1, 97);
}

TEST(EncoderEquivalence, CatalogCodes) {
  for (const std::string spec :
       {"wifi", "ft8", "hamming", "medium", "small", "small:seed=1",
        "small:seed=2", "small:seed=77,q=31,cols=6"}) {
    SCOPED_TRACE(spec);
    const auto system = codes::LoadCode(spec);
    ExpectMatchesReference(*system.code, 11, spec == "medium" ? 7 : 1);
  }
}

TEST(EncoderEquivalence, RandomQcBuilderCodes) {
  // Varied lifting sizes, block-row counts and circulant weights. Like
  // C2, every one of these is rank deficient (checks > rank).
  const qc::QcBuildSpec specs[] = {
      {.q = 31, .block_rows = 2, .block_cols = 8, .circulant_weight = 1, .seed = 1},
      {.q = 97, .block_rows = 2, .block_cols = 10, .circulant_weight = 2, .seed = 2},
      {.q = 43, .block_rows = 3, .block_cols = 9, .circulant_weight = 1, .seed = 3},
      {.q = 61, .block_rows = 4, .block_cols = 12, .circulant_weight = 1, .seed = 4},
      {.q = 127, .block_rows = 2, .block_cols = 6, .circulant_weight = 2, .seed = 5},
  };
  for (const auto& spec : specs) {
    SCOPED_TRACE(spec.seed);
    const LdpcCode code(qc::BuildGirth6QcMatrix(spec).Expand(), spec.q);
    ExpectMatchesReference(code, spec.seed);
  }
}

TEST(EncoderEquivalence, AlistRoundTrip) {
  const auto system = codes::LoadCode("small:seed=5");
  const LdpcCode code(codes::ParseAlist(codes::WriteAlist(system.code->h())));
  EXPECT_EQ(code.InfoCols(), system.code->InfoCols());
  ExpectMatchesReference(code, 5);
  // Same matrix, same information columns: the same codewords.
  const auto info = RandomBits(code.k(), 6);
  EXPECT_EQ(Encoder(code).Encode(info), system.encoder->Encode(info));
}

}  // namespace
}  // namespace cldpc::ldpc
