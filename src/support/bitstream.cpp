#include "support/bitstream.h"

#include <array>
#include <bit>
#include <cctype>
#include <stdexcept>

namespace dhtrng::support {

BitStream::BitStream(std::size_t nbits, bool value)
    : words_((nbits + 63) / 64, value ? ~0ULL : 0ULL), size_(nbits) {
  if (value && (size_ & 63) != 0) {
    words_.back() &= (1ULL << (size_ & 63)) - 1;
  }
}

BitStream BitStream::from_string(const std::string& s) {
  BitStream bs;
  bs.reserve(s.size());
  for (char c : s) {
    if (c == '0' || c == '1') {
      bs.push_back(c == '1');
    } else if (!std::isspace(static_cast<unsigned char>(c))) {
      throw std::invalid_argument("BitStream::from_string: bad character");
    }
  }
  return bs;
}

BitStream BitStream::from_bytes(const std::vector<std::uint8_t>& bytes) {
  BitStream bs;
  bs.reserve(bytes.size() * 8);
  for (std::uint8_t b : bytes) {
    for (int i = 7; i >= 0; --i) bs.push_back((b >> i) & 1);
  }
  return bs;
}

bool BitStream::at(std::size_t i) const {
  if (i >= size_) throw std::out_of_range("BitStream::at");
  return (words_[i >> 6] >> (i & 63)) & 1u;
}

void BitStream::push_back(bool bit) {
  if ((size_ & 63) == 0) words_.push_back(0);
  if (bit) words_.back() |= 1ULL << (size_ & 63);
  ++size_;
}

void BitStream::append_word(std::uint64_t bits, std::size_t nbits) {
  assert(nbits <= 64);
  if (nbits == 0) return;
  if (nbits < 64) bits &= (std::uint64_t{1} << nbits) - 1;
  const std::size_t offset = size_ & 63;
  if (offset == 0) {
    words_.push_back(bits);
  } else {
    words_.back() |= bits << offset;
    if (offset + nbits > 64) words_.push_back(bits >> (64 - offset));
  }
  size_ += nbits;
}

void BitStream::append(const BitStream& other) {
  // Fast path when this stream is word-aligned.
  if ((size_ & 63) == 0) {
    words_.insert(words_.end(), other.words_.begin(), other.words_.end());
    size_ += other.size_;
    return;
  }
  for (std::size_t i = 0; i < other.size_; ++i) push_back(other[i]);
}

std::size_t BitStream::count_ones() const {
  std::size_t total = 0;
  for (std::uint64_t w : words_) total += static_cast<std::size_t>(std::popcount(w));
  return total;
}

std::size_t BitStream::count_ones(std::size_t begin, std::size_t len) const {
  if (begin + len > size_) throw std::out_of_range("BitStream::count_ones");
  std::size_t total = 0;
  std::size_t i = begin;
  const std::size_t end = begin + len;
  // Align to a word boundary, then count whole words.
  while (i < end && (i & 63) != 0) total += (*this)[i++] ? 1u : 0u;
  while (i + 64 <= end) {
    total += static_cast<std::size_t>(std::popcount(words_[i >> 6]));
    i += 64;
  }
  while (i < end) total += (*this)[i++] ? 1u : 0u;
  return total;
}

BitStream BitStream::slice(std::size_t begin, std::size_t len) const {
  if (begin + len > size_) throw std::out_of_range("BitStream::slice");
  BitStream out;
  out.reserve(len);
  for (std::size_t i = 0; i < len; ++i) out.push_back((*this)[begin + i]);
  return out;
}

std::uint64_t BitStream::word(std::size_t begin, std::size_t len) const {
  if (len > 64 || begin + len > size_) throw std::out_of_range("BitStream::word");
  std::uint64_t v = 0;
  for (std::size_t i = 0; i < len; ++i) v = (v << 1) | ((*this)[begin + i] ? 1u : 0u);
  return v;
}

std::vector<std::uint8_t> BitStream::to_bytes() const {
  std::vector<std::uint8_t> out((size_ + 7) / 8);
  pack_bytes(out);
  return out;
}

void BitStream::pack_bytes(std::span<std::uint8_t> out) const {
  // Byte k holds stream bits 8k..8k+7, i.e. byte k % 8 of word k / 8,
  // bit-reversed into MSB-first order.  Bits past size() are zero in the
  // final word (class invariant), so the last byte is zero-padded.
  static constexpr auto kReverse = [] {
    std::array<std::uint8_t, 256> table{};
    for (unsigned v = 0; v < 256; ++v) {
      unsigned r = 0;
      for (unsigned b = 0; b < 8; ++b) r |= ((v >> b) & 1u) << (7 - b);
      table[v] = static_cast<std::uint8_t>(r);
    }
    return table;
  }();
  const std::size_t nbytes = (size_ + 7) / 8;
  assert(out.size() >= nbytes);
  for (std::size_t k = 0; k < nbytes; ++k) {
    out[k] = kReverse[(words_[k >> 3] >> ((k & 7) * 8)) & 0xffu];
  }
}

std::string BitStream::to_string() const {
  std::string s;
  s.reserve(size_);
  for (std::size_t i = 0; i < size_; ++i) s.push_back((*this)[i] ? '1' : '0');
  return s;
}

bool BitStream::operator==(const BitStream& other) const {
  if (size_ != other.size_) return false;
  for (std::size_t w = 0; w < words_.size(); ++w) {
    if (words_[w] != other.words_[w]) return false;
  }
  return true;
}

BitStream BitStream::exclusive_or(const BitStream& a, const BitStream& b) {
  if (a.size_ != b.size_) throw std::invalid_argument("BitStream::exclusive_or: size mismatch");
  BitStream out;
  out.size_ = a.size_;
  out.words_.resize(a.words_.size());
  for (std::size_t w = 0; w < a.words_.size(); ++w) {
    out.words_[w] = a.words_[w] ^ b.words_[w];
  }
  return out;
}

std::uint64_t BitStream::chunk64(std::size_t pos) const {
  const std::size_t w = pos >> 6;
  const std::size_t s = pos & 63;
  std::uint64_t v = w < words_.size() ? words_[w] >> s : 0;
  if (s != 0 && w + 1 < words_.size()) v |= words_[w + 1] << (64 - s);
  // Mask off bits beyond size_.
  if (pos + 64 > size_) {
    const std::size_t valid = size_ > pos ? size_ - pos : 0;
    v = valid == 0 ? 0 : v & (valid >= 64 ? ~0ULL : ((1ULL << valid) - 1));
  }
  return v;
}

std::size_t BitStream::hamming_distance(std::size_t off_a, std::size_t off_b,
                                        std::size_t len) const {
  if (off_a + len > size_ || off_b + len > size_) {
    throw std::out_of_range("BitStream::hamming_distance");
  }
  std::size_t total = 0;
  std::size_t i = 0;
  for (; i + 64 <= len; i += 64) {
    total += static_cast<std::size_t>(
        std::popcount(chunk64(off_a + i) ^ chunk64(off_b + i)));
  }
  if (i < len) {
    const std::uint64_t mask = (1ULL << (len - i)) - 1;
    total += static_cast<std::size_t>(
        std::popcount((chunk64(off_a + i) ^ chunk64(off_b + i)) & mask));
  }
  return total;
}

std::string BitStream::to_pbm(std::size_t width, std::size_t height,
                              bool invert) const {
  if (width * height > size_) throw std::out_of_range("BitStream::to_pbm");
  std::string out = "P1\n" + std::to_string(width) + " " +
                    std::to_string(height) + "\n";
  for (std::size_t y = 0; y < height; ++y) {
    for (std::size_t x = 0; x < width; ++x) {
      const bool bit = (*this)[y * width + x];
      out.push_back((bit != invert) ? '1' : '0');
      out.push_back(x + 1 == width ? '\n' : ' ');
    }
  }
  return out;
}

}  // namespace dhtrng::support
