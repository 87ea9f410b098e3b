// Packed bit sequence container.
//
// Every TRNG backend emits into a BitStream and every statistical test
// consumes one, so this is the common currency of the repository.  Bits are
// stored LSB-first inside 64-bit words; indexing is in emission order.
#pragma once

#include <cassert>
#include <cstdint>
#include <cstddef>
#include <span>
#include <string>
#include <vector>

namespace dhtrng::support {

class BitStream {
 public:
  BitStream() = default;
  explicit BitStream(std::size_t nbits, bool value = false);

  /// Parse from a string of '0'/'1' characters (whitespace ignored).
  static BitStream from_string(const std::string& s);
  /// Unpack bytes MSB-first (the usual transmission order of NIST data files).
  static BitStream from_bytes(const std::vector<std::uint8_t>& bytes);

  void push_back(bool bit);
  /// Append the low `nbits` (<= 64) bits of `bits`, LSB first — the word
  /// counterpart of push_back, one shift-or per word instead of per bit.
  void append_word(std::uint64_t bits, std::size_t nbits);
  void append(const BitStream& other);
  void clear() { words_.clear(); size_ = 0; }
  void reserve(std::size_t nbits) { words_.reserve((nbits + 63) / 64); }

  bool operator[](std::size_t i) const {
    assert(i < size_ && "BitStream index out of range");
    return (words_[i >> 6] >> (i & 63)) & 1u;
  }
  void set(std::size_t i, bool v) {
    assert(i < size_ && "BitStream index out of range");
    const std::uint64_t mask = 1ULL << (i & 63);
    if (v) words_[i >> 6] |= mask; else words_[i >> 6] &= ~mask;
  }

  /// Bounds-checked operator[]: throws std::out_of_range.
  bool at(std::size_t i) const;

  std::size_t size() const { return size_; }
  bool empty() const { return size_ == 0; }

  /// Word view of the packed storage: ceil(size()/64) words, bit i of the
  /// stream at bit (i & 63) of word (i >> 6).  Invariant: bits at positions
  /// >= size() in the final word are zero, so word-parallel kernels can
  /// popcount whole words without masking the tail.
  std::span<const std::uint64_t> words() const {
    return {words_.data(), words_.size()};
  }

  /// Number of 1 bits in the whole stream.
  std::size_t count_ones() const;
  /// Number of 1 bits in [begin, begin+len).
  std::size_t count_ones(std::size_t begin, std::size_t len) const;

  /// Sub-sequence copy of [begin, begin+len).
  BitStream slice(std::size_t begin, std::size_t len) const;

  /// Interpret bits [begin, begin+len) as an unsigned integer, first bit is
  /// the most significant (len <= 64).
  std::uint64_t word(std::size_t begin, std::size_t len) const;

  /// Pack to bytes MSB-first (padding the final byte with zeros).
  std::vector<std::uint8_t> to_bytes() const;
  /// to_bytes() into a caller buffer of at least (size()+7)/8 bytes, so a
  /// hot loop can reuse one buffer instead of allocating per call.
  void pack_bytes(std::span<std::uint8_t> out) const;
  std::string to_string() const;

  bool operator==(const BitStream& other) const;

  /// Bitwise XOR of two equal-length streams.
  static BitStream exclusive_or(const BitStream& a, const BitStream& b);

  /// 64 bits starting at position `pos` (LSB = bit at pos); bits past the
  /// end read as 0.  Word-parallel building block.
  std::uint64_t chunk64(std::size_t pos) const;

  /// Hamming distance between the windows [off_a, off_a+len) and
  /// [off_b, off_b+len) of this stream (word-parallel).
  std::size_t hamming_distance(std::size_t off_a, std::size_t off_b,
                               std::size_t len) const;

  /// Write an ASCII PBM (P1) image, row-major, `width` bits per row.  Used by
  /// the Figure 7 bitstream-image experiment.  `invert` renders 1 as white.
  std::string to_pbm(std::size_t width, std::size_t height,
                     bool invert = false) const;

 private:
  std::vector<std::uint64_t> words_;
  std::size_t size_ = 0;
};

}  // namespace dhtrng::support
