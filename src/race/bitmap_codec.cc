#include "src/race/bitmap_codec.h"

#include <limits>

#include "src/common/check.h"

namespace cvm {

const char* BitmapEncodingName(BitmapEncoding encoding) {
  switch (encoding) {
    case BitmapEncoding::kRaw:
      return "raw";
    case BitmapEncoding::kEmpty:
      return "empty";
    case BitmapEncoding::kSparse:
      return "sparse";
    case BitmapEncoding::kRuns:
      return "runs";
  }
  return "?";
}

EncodedBitmap BitmapCodec::Encode(const Bitmap& bitmap, bool allow_compression) {
  EncodedBitmap encoded;
  encoded.num_bits = bitmap.size();
  encoded.encoding = BitmapEncoding::kRaw;
  encoded.payload_bytes = bitmap.ByteSize();
  if (allow_compression) {
    // Set bits, and maximal runs of set bits, counted a word at a time: a
    // run starts at every set bit whose lower neighbour is clear, and across
    // a word boundary that neighbour is the previous word's top bit.
    size_t set_bits = 0;
    size_t runs = 0;
    uint64_t carry = 0;
    for (uint64_t w : bitmap.words()) {
      if (w != 0) {
        set_bits += PopCount(w);
        runs += PopCount(w & ~((w << 1) | carry));
      }
      carry = w >> 63;
    }
    // Empty bitmaps (untouched pages) dominate in steady state.
    if (set_bits == 0) {
      encoded.encoding = BitmapEncoding::kEmpty;
      encoded.payload_bytes = 0;
      return encoded;
    }
    // uint16 payloads cannot address bits past 65535; page-word bitmaps are
    // far below that, but dense page-set bitmaps of very large segments may
    // not be. A run's uint16 length caps it at 65535 bits, so a longer run
    // costs two pairs; within 65536 bits only the all-set map holds one.
    constexpr size_t kMaxU16 = std::numeric_limits<uint16_t>::max();
    if (bitmap.size() - 1 <= kMaxU16) {
      const size_t sparse_bytes = set_bits * sizeof(uint16_t);
      const size_t runs_bytes = (runs + (set_bits > kMaxU16 ? 1 : 0)) * 2 * sizeof(uint16_t);
      if (sparse_bytes <= runs_bytes && sparse_bytes < encoded.payload_bytes) {
        encoded.encoding = BitmapEncoding::kSparse;
        encoded.payload_bytes = sparse_bytes;
      } else if (runs_bytes < encoded.payload_bytes) {
        encoded.encoding = BitmapEncoding::kRuns;
        encoded.payload_bytes = runs_bytes;
      }
    }
  }
  encoded.raw = bitmap.words();
  return encoded;
}

Bitmap BitmapCodec::Decode(const EncodedBitmap& encoded) {
  if (encoded.encoding == BitmapEncoding::kEmpty) {
    return Bitmap(encoded.num_bits);
  }
  return Bitmap::FromWords(encoded.num_bits, encoded.raw);
}

}  // namespace cvm
