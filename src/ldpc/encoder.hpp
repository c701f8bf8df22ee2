// Systematic syndrome encoder, one construction for every code.
//
// Information bits go to the code's information columns (InfoCols)
// and parity bits to its pivot columns (PivotCols). With the parity
// still zero, the check syndrome s = H c holds the contribution of
// the information bits alone, and the parity p must cancel it:
// H_P p = s, where H_P (H restricted to the pivot columns) has full
// column rank. A left inverse E of H_P (E H_P = I, rank x checks)
// solves this as p = E s. The codeword is unique given the
// information bits, so any construction that places them at
// InfoCols() produces the same codewords.
//
// Per frame the encoder gathers s over the sparse rows of H (one
// byte load per nonzero of H on an information column, ~28.6k for
// CCSDS C2) and XORs one rank-bit row of E^T per check, masked by
// the syndrome bit (1022 rows of 16 words for C2). The tables are a
// uint32 CSR of H's information columns and E^T: ~245 KB for C2, of
// which E^T is 127 KB.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "gf2/bitvec.hpp"
#include "ldpc/code.hpp"

namespace cldpc::ldpc {

class Encoder {
 public:
  /// The code must outlive the encoder.
  explicit Encoder(const LdpcCode& code);

  /// info.size() must be code.k(); returns the n-bit codeword with
  /// info bits at the code's information positions.
  std::vector<std::uint8_t> Encode(std::span<const std::uint8_t> info) const;

  /// Allocation-free Encode: writes the n-bit codeword into
  /// `codeword` (size n) using `parity` as scratch — pass a
  /// caller-owned BitVec and reuse it across calls (it is sized on
  /// first use; the encoder itself is shared and immutable, so each
  /// worker brings its own scratch).
  void EncodeInto(std::span<const std::uint8_t> info,
                  std::span<std::uint8_t> codeword,
                  gf2::BitVec& parity) const;

  /// Recover the information bits from a codeword (systematic gather).
  std::vector<std::uint8_t> ExtractInfo(
      std::span<const std::uint8_t> codeword) const;

  const LdpcCode& code() const { return code_; }

 private:
  const LdpcCode& code_;
  /// CSR of H over the information columns: check c's entries are
  /// info_of_check_[check_start_[c] .. check_start_[c + 1]), each an
  /// index into the info word.
  std::vector<std::uint32_t> check_start_;
  std::vector<std::uint32_t> info_of_check_;
  /// E^T, row-major: row c (parity_words_ words) is the parity flipped
  /// by syndrome bit c.
  std::size_t parity_words_ = 0;
  std::vector<std::uint64_t> parity_of_check_;
  /// Maximal runs of consecutive columns holding consecutive info (or
  /// parity) bits. C2 has three of each, so placing the codeword is a
  /// few block copies instead of n scattered stores.
  struct Run {
    std::uint32_t col = 0;
    std::uint32_t first = 0;
    std::uint32_t length = 0;
  };
  static std::vector<Run> RunsOf(const std::vector<std::size_t>& cols);
  std::vector<Run> info_runs_;
  std::vector<Run> parity_runs_;
};

}  // namespace cldpc::ldpc
