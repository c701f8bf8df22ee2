#include "ldpc/encoder.hpp"

#include <algorithm>
#include <limits>

#include "gf2/bitmat.hpp"
#include "util/contracts.hpp"

namespace cldpc::ldpc {

std::vector<Encoder::Run> Encoder::RunsOf(
    const std::vector<std::size_t>& cols) {
  std::vector<Run> runs;
  for (std::size_t i = 0; i < cols.size(); ++i) {
    if (runs.empty() || cols[i] != runs.back().col + runs.back().length)
      runs.push_back({static_cast<std::uint32_t>(cols[i]),
                      static_cast<std::uint32_t>(i), 0});
    ++runs.back().length;
  }
  return runs;
}

Encoder::Encoder(const LdpcCode& code) : code_(code) {
  const auto& h = code_.h();
  const auto& info_cols = code_.InfoCols();
  const auto& pivot_cols = code_.PivotCols();
  const std::size_t checks = code_.num_checks();
  const std::size_t rank = pivot_cols.size();
  CLDPC_EXPECTS(std::max(h.nnz(), code_.n()) <=
                    std::numeric_limits<std::uint32_t>::max(),
                "parity-check matrix too large for 32-bit encoder tables");
  info_runs_ = RunsOf(info_cols);
  parity_runs_ = RunsOf(pivot_cols);

  // CSR of H over the information columns, indexed by info position.
  constexpr std::uint32_t kParity = std::numeric_limits<std::uint32_t>::max();
  std::vector<std::uint32_t> info_index(code_.n(), kParity);
  for (std::size_t j = 0; j < info_cols.size(); ++j)
    info_index[info_cols[j]] = static_cast<std::uint32_t>(j);
  check_start_.reserve(checks + 1);
  check_start_.push_back(0);
  for (std::size_t c = 0; c < checks; ++c) {
    for (const auto col : h.RowEntries(c))
      if (info_index[col] != kParity) info_of_check_.push_back(info_index[col]);
    check_start_.push_back(static_cast<std::uint32_t>(info_of_check_.size()));
  }

  // Gauss-Jordan on [H_P | I]: the row operations that reduce H_P to
  // [I; 0] are the rows of [E; N], so the top `rank` rows end in E.
  // (The reduction may go on to pivot identity columns of the null
  // rows N and fold them into E; E + X N is still a left inverse and
  // agrees with E on every syndrome H can produce, since N H_P = 0.)
  gf2::BitMat augmented(checks, rank + checks);
  for (std::size_t i = 0; i < rank; ++i)
    for (const auto row : h.ColEntries(pivot_cols[i]))
      augmented.Set(row, i, true);
  for (std::size_t c = 0; c < checks; ++c) augmented.Set(c, rank + c, true);
  const auto reduction = augmented.RowReduce();
  for (std::size_t i = 0; i < rank; ++i)
    CLDPC_ENSURES(reduction.pivot_cols[i] == i,
                  "pivot columns of H must be linearly independent");

  parity_words_ = (rank + 63) / 64;
  parity_of_check_.assign(checks * parity_words_, 0);
  for (std::size_t i = 0; i < rank; ++i) {
    const auto& row = augmented.Row(i);
    for (std::size_t col = row.NextSet(rank); col < row.size();
         col = row.NextSet(col + 1)) {
      parity_of_check_[(col - rank) * parity_words_ + i / 64] |=
          std::uint64_t{1} << (i % 64);
    }
  }
}

std::vector<std::uint8_t> Encoder::Encode(
    std::span<const std::uint8_t> info) const {
  std::vector<std::uint8_t> codeword(code_.n());
  gf2::BitVec parity;
  EncodeInto(info, codeword, parity);
  return codeword;
}

void Encoder::EncodeInto(std::span<const std::uint8_t> info,
                         std::span<std::uint8_t> codeword,
                         gf2::BitVec& parity) const {
  CLDPC_EXPECTS(info.size() == code_.k(), "info length must equal k");
  CLDPC_EXPECTS(codeword.size() == code_.n(), "codeword length must equal n");

  // Resize zeroes the words in place; it only allocates the first
  // time (vector::assign reuses capacity on subsequent calls).
  parity.Resize(code_.Rank());
  std::uint64_t* CLDPC_RESTRICT acc = parity.MutableWords().data();
  const std::uint8_t* in = info.data();
  const std::size_t words = parity_words_;
  // p = E s, one masked E^T row per check: branch-free, since about
  // half the syndrome bits are set in no predictable order.
  for (std::size_t c = 0; c + 1 < check_start_.size(); ++c) {
    unsigned s = 0;
    for (std::uint32_t e = check_start_[c]; e < check_start_[c + 1]; ++e)
      s ^= in[info_of_check_[e]];
    const std::uint64_t mask = 0 - static_cast<std::uint64_t>(s & 1u);
    const std::uint64_t* CLDPC_RESTRICT row = &parity_of_check_[c * words];
    for (std::size_t w = 0; w < words; ++w) acc[w] ^= row[w] & mask;
  }

  std::uint8_t* CLDPC_RESTRICT out = codeword.data();
  for (const auto& run : info_runs_) {
    for (std::uint32_t t = 0; t < run.length; ++t)
      out[run.col + t] = in[run.first + t] & 1u;
  }
  for (const auto& run : parity_runs_) {
    for (std::uint32_t t = 0; t < run.length; ++t) {
      const std::uint32_t i = run.first + t;
      out[run.col + t] = (acc[i / 64] >> (i % 64)) & 1u;
    }
  }
}

std::vector<std::uint8_t> Encoder::ExtractInfo(
    std::span<const std::uint8_t> codeword) const {
  CLDPC_EXPECTS(codeword.size() == code_.n(), "codeword length must equal n");
  const auto& info_cols = code_.InfoCols();
  std::vector<std::uint8_t> info(info_cols.size());
  for (std::size_t j = 0; j < info_cols.size(); ++j)
    info[j] = codeword[info_cols[j]] & 1u;
  return info;
}

}  // namespace cldpc::ldpc
