// LdpcCode: a parity-check matrix together with everything decoding
// and encoding need — the Tanner graph, the rank structure, and
// syndrome computation.
//
// Rank data (the rank and the pivot/information column split, needed
// by the encoder and by k()) is computed lazily and cached, because
// decoding-only users should not pay for a dense elimination of a
// 1022x8176 matrix. Only the column split is kept; the reduced matrix
// is dropped once it has been read.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <span>
#include <vector>

#include "gf2/sparse.hpp"
#include "ldpc/core/layer_schedule.hpp"
#include "tanner/graph.hpp"

namespace cldpc::ldpc {

class LdpcCode {
 public:
  /// `checks_per_layer` sets the decode schedule's layer granularity:
  /// pass the QC expansion factor q to get one layer per circulant
  /// block row (the hardware's sequencing epoch); the default 0 means
  /// one layer per check. Layering never changes decode results.
  explicit LdpcCode(gf2::SparseMat h, std::size_t checks_per_layer = 0);

  /// Code length n (number of bit nodes).
  std::size_t n() const { return h_.cols(); }
  /// Number of parity-check rows (may exceed the rank).
  std::size_t num_checks() const { return h_.rows(); }
  /// Code dimension k = n - rank(H). Triggers elimination on first use.
  std::size_t k() const;
  std::size_t Rank() const;
  double Rate() const {
    return static_cast<double>(k()) / static_cast<double>(n());
  }

  const gf2::SparseMat& h() const { return h_; }
  const tanner::Graph& graph() const { return graph_; }
  /// The precomputed decode schedule, built once with the code and
  /// shared immutably by every decoder instance (engine clones
  /// included) — decoders never re-walk the Tanner graph.
  const core::LayerSchedule& schedule() const { return schedule_; }

  /// Information positions: the columns of H without a pivot in its
  /// reduced row echelon form, ascending. size() == k().
  const std::vector<std::size_t>& InfoCols() const;
  /// Parity positions (pivot columns), ascending. size() == rank.
  /// H restricted to them has full column rank.
  const std::vector<std::size_t>& PivotCols() const;

  /// Syndrome H x (x as 0/1 bytes of length n).
  gf2::BitVec Syndrome(const std::vector<std::uint8_t>& x) const;
  bool IsCodeword(const std::vector<std::uint8_t>& x) const;

 private:
  struct RankData {
    std::size_t rank = 0;
    std::vector<std::size_t> pivot_cols;
    std::vector<std::size_t> info_cols;
  };
  const RankData& EnsureRankData() const;

  gf2::SparseMat h_;
  tanner::Graph graph_;
  core::LayerSchedule schedule_;
  mutable std::optional<RankData> rank_data_;
};

}  // namespace cldpc::ldpc
