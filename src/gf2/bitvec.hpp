// Dynamic bit vector over 64-bit words — the element type of GF(2)
// linear algebra. XOR-heavy operations run word-at-a-time.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "util/contracts.hpp"

namespace cldpc::gf2 {

class BitVec {
 public:
  BitVec() = default;
  explicit BitVec(std::size_t size) { Resize(size); }

  /// From a 0/1 byte sequence (convenience for tests / frame I/O).
  static BitVec FromBits(const std::vector<std::uint8_t>& bits);

  void Resize(std::size_t size);
  std::size_t size() const { return size_; }
  bool empty() const { return size_ == 0; }

  bool Get(std::size_t i) const {
    CheckIndex(i);
    return (words_[i >> 6] >> (i & 63)) & 1ULL;
  }
  void Set(std::size_t i, bool value) {
    CheckIndex(i);
    const std::uint64_t mask = 1ULL << (i & 63);
    if (value)
      words_[i >> 6] |= mask;
    else
      words_[i >> 6] &= ~mask;
  }
  void Flip(std::size_t i) {
    CheckIndex(i);
    words_[i >> 6] ^= 1ULL << (i & 63);
  }

  /// In-place XOR with another vector of the same size.
  BitVec& operator^=(const BitVec& other);
  /// In-place AND.
  BitVec& operator&=(const BitVec& other);

  friend BitVec operator^(BitVec a, const BitVec& b) { return a ^= b; }

  bool operator==(const BitVec& other) const;
  bool operator!=(const BitVec& other) const { return !(*this == other); }

  /// Number of set bits.
  std::size_t Popcount() const;
  bool AnySet() const;
  /// Parity of all bits (sum mod 2).
  bool Parity() const { return (Popcount() & 1) != 0; }
  /// GF(2) inner product <a, b>.
  static bool Dot(const BitVec& a, const BitVec& b);

  void Clear();

  /// Index of the first set bit, or size() if none.
  std::size_t FirstSet() const;
  /// Index of the first set bit at or after `from`, or size() if none.
  std::size_t NextSet(std::size_t from) const;

  /// Export as 0/1 bytes.
  std::vector<std::uint8_t> ToBits() const;

  /// Raw word access (read-only), for bulk algorithms.
  const std::vector<std::uint64_t>& words() const { return words_; }
  /// Raw word access (writable). Callers must keep the bits past
  /// size() in the last word zero, the canonical form Popcount and
  /// comparisons rely on.
  std::span<std::uint64_t> MutableWords() { return words_; }

 private:
  void CheckIndex(std::size_t i) const {
    (void)i;
    CLDPC_EXPECTS(i < size_, "BitVec index out of range");
  }
  /// Zero out bits past size() in the last word so that Popcount and
  /// comparisons see a canonical representation.
  void TrimTail();

  std::size_t size_ = 0;
  std::vector<std::uint64_t> words_;
};

}  // namespace cldpc::gf2
