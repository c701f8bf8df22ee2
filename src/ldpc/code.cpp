#include "ldpc/code.hpp"

namespace cldpc::ldpc {

LdpcCode::LdpcCode(gf2::SparseMat h, std::size_t checks_per_layer)
    : h_(std::move(h)), graph_(h_), schedule_(graph_, checks_per_layer) {}

const LdpcCode::RankData& LdpcCode::EnsureRankData() const {
  if (!rank_data_) {
    RankData data;
    auto dense = h_.ToDense();
    const auto reduction = dense.RowReduce();
    data.rank = reduction.rank;
    data.pivot_cols = reduction.pivot_cols;
    data.info_cols = reduction.free_cols;
    rank_data_ = std::move(data);
  }
  return *rank_data_;
}

std::size_t LdpcCode::k() const { return n() - Rank(); }

std::size_t LdpcCode::Rank() const { return EnsureRankData().rank; }

const std::vector<std::size_t>& LdpcCode::InfoCols() const {
  return EnsureRankData().info_cols;
}

const std::vector<std::size_t>& LdpcCode::PivotCols() const {
  return EnsureRankData().pivot_cols;
}

gf2::BitVec LdpcCode::Syndrome(const std::vector<std::uint8_t>& x) const {
  return h_.MulVec(x);
}

bool LdpcCode::IsCodeword(const std::vector<std::uint8_t>& x) const {
  return !Syndrome(x).AnySet();
}

}  // namespace cldpc::ldpc
