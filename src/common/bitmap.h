// Fixed-size bitmaps used to record which words of a page were accessed
// during one interval (the paper's per-page access bitmaps) and, more
// generally, as dense page sets for the O(pages) overlap variant of §6.2.
#ifndef CVM_COMMON_BITMAP_H_
#define CVM_COMMON_BITMAP_H_

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "src/common/check.h"

namespace cvm {

// Population count without a library call: the baseline x86-64 target has
// no POPCNT instruction, so __builtin_popcountll would call into libgcc.
inline uint32_t PopCount(uint64_t w) {
  w -= (w >> 1) & 0x5555555555555555ull;
  w = (w & 0x3333333333333333ull) + ((w >> 2) & 0x3333333333333333ull);
  w = (w + (w >> 4)) & 0x0f0f0f0f0f0f0f0full;
  return static_cast<uint32_t>((w * 0x0101010101010101ull) >> 56);
}

// A dynamically-sized bitmap with word-parallel intersection tests.
// Bit i corresponds to word i of a page (or page i of the segment).
// Invariant: the bits of the last word past size() are zero, so every
// operation below is a plain loop over whole 64-bit words.
class Bitmap {
 public:
  Bitmap() = default;
  explicit Bitmap(uint32_t num_bits)
      : num_bits_(num_bits), words_((num_bits + 63) / 64, 0ull) {}

  uint32_t size() const { return num_bits_; }
  bool empty() const {
    for (uint64_t w : words_) {
      if (w != 0) {
        return false;
      }
    }
    return true;
  }

  void Set(uint32_t bit) {
    CVM_CHECK_LT(bit, num_bits_);
    words_[bit >> 6] |= 1ull << (bit & 63);
  }

  void Clear(uint32_t bit) {
    CVM_CHECK_LT(bit, num_bits_);
    words_[bit >> 6] &= ~(1ull << (bit & 63));
  }

  bool Test(uint32_t bit) const {
    CVM_CHECK_LT(bit, num_bits_);
    return (words_[bit >> 6] >> (bit & 63)) & 1ull;
  }

  void Reset() { std::fill(words_.begin(), words_.end(), 0ull); }

  // Number of set bits.
  uint32_t popcount() const {
    uint32_t total = 0;
    for (uint64_t w : words_) {
      total += PopCount(w);
    }
    return total;
  }

  // True iff this and other share at least one set bit. This is the paper's
  // constant-time (per page) bitmap comparison of §4 step 5, the hottest
  // detector operation.
  bool Intersects(const Bitmap& other) const {
    CVM_CHECK_EQ(num_bits_, other.num_bits_);
    for (size_t i = 0; i < words_.size(); ++i) {
      if ((words_[i] & other.words_[i]) != 0) {
        return true;
      }
    }
    return false;
  }

  // Bit indices present in both maps — the racing words.
  std::vector<uint32_t> IntersectionBits(const Bitmap& other) const {
    CVM_CHECK_EQ(num_bits_, other.num_bits_);
    std::vector<uint32_t> bits;
    for (size_t i = 0; i < words_.size(); ++i) {
      AppendBitsOfWord(words_[i] & other.words_[i], i, &bits);
    }
    return bits;
  }

  // All set bit indices, ascending.
  std::vector<uint32_t> SetBits() const {
    std::vector<uint32_t> bits;
    for (size_t i = 0; i < words_.size(); ++i) {
      AppendBitsOfWord(words_[i], i, &bits);
    }
    return bits;
  }

  void UnionWith(const Bitmap& other) {
    CVM_CHECK_EQ(num_bits_, other.num_bits_);
    for (size_t i = 0; i < words_.size(); ++i) {
      words_[i] |= other.words_[i];
    }
  }

  void IntersectWith(const Bitmap& other) {
    CVM_CHECK_EQ(num_bits_, other.num_bits_);
    for (size_t i = 0; i < words_.size(); ++i) {
      words_[i] &= other.words_[i];
    }
  }

  bool operator==(const Bitmap& other) const {
    return num_bits_ == other.num_bits_ && words_ == other.words_;
  }

  // Wire form: raw 64-bit words (little-endian host order; the simulated
  // network never crosses machines).
  const std::vector<uint64_t>& words() const { return words_; }
  // The words themselves, for a caller that sets bits in place (the node's
  // access shim). It must keep to bits below size(). The pointer is stable
  // until the bitmap is reassigned or destroyed.
  uint64_t* word_data() { return words_.data(); }
  size_t ByteSize() const { return words_.size() * sizeof(uint64_t); }

  // True iff `words` is a valid wire form for a num_bits-bit map: the right
  // word count and no bit set past num_bits.
  static bool ValidWords(uint32_t num_bits, const std::vector<uint64_t>& words) {
    if (words.size() != (num_bits + 63) / 64) {
      return false;
    }
    const uint32_t tail = num_bits & 63;
    return tail == 0 || (words.back() >> tail) == 0;
  }

  static Bitmap FromWords(uint32_t num_bits, std::vector<uint64_t> words) {
    CVM_CHECK(ValidWords(num_bits, words));
    Bitmap bm;
    bm.num_bits_ = num_bits;
    bm.words_ = std::move(words);
    return bm;
  }

  std::string ToString() const;

 private:
  // Appends the ascending indices of w's set bits, w being word `index`.
  static void AppendBitsOfWord(uint64_t w, size_t index, std::vector<uint32_t>* out) {
    const uint32_t base = static_cast<uint32_t>(index * 64);
    while (w != 0) {
      out->push_back(base + static_cast<uint32_t>(__builtin_ctzll(w)));
      w &= w - 1;
    }
  }

  uint32_t num_bits_ = 0;
  std::vector<uint64_t> words_;
};

}  // namespace cvm

#endif  // CVM_COMMON_BITMAP_H_
