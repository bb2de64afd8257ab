#include "src/race/bitmap_codec.h"

#include <limits>

#include "src/common/check.h"
#include "src/perf/kernels.h"

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

  // Empty bitmaps (untouched pages) dominate in steady state; decide them
  // with one vectorized scan before materializing any set-bit list.
  if (allow_compression &&
      !perf::AnyWordNonzero(bitmap.words().data(), bitmap.words().size())) {
    encoded.encoding = BitmapEncoding::kEmpty;
    return encoded;
  }

  const std::vector<uint32_t> set_bits = bitmap.SetBits();
  // uint16 payloads cannot address bits past 65535; page-word bitmaps are far
  // below that, but dense page-set bitmaps of very large segments may not be.
  const bool fits_u16 =
      bitmap.size() == 0 || bitmap.size() - 1 <= std::numeric_limits<uint16_t>::max();

  if (allow_compression && fits_u16) {
    // Maximal runs of consecutive set bits.
    std::vector<uint16_t> runs;
    size_t i = 0;
    while (i < set_bits.size()) {
      size_t j = i + 1;
      while (j < set_bits.size() && set_bits[j] == set_bits[j - 1] + 1 &&
             set_bits[j] - set_bits[i] < std::numeric_limits<uint16_t>::max()) {
        ++j;
      }
      runs.push_back(static_cast<uint16_t>(set_bits[i]));
      runs.push_back(static_cast<uint16_t>(j - i));
      i = j;
    }

    const size_t raw_bytes = bitmap.ByteSize();
    const size_t sparse_bytes = set_bits.size() * sizeof(uint16_t);
    const size_t runs_bytes = runs.size() * sizeof(uint16_t);
    if (sparse_bytes <= runs_bytes && sparse_bytes < raw_bytes) {
      encoded.encoding = BitmapEncoding::kSparse;
      encoded.values.reserve(set_bits.size());
      for (uint32_t bit : set_bits) {
        encoded.values.push_back(static_cast<uint16_t>(bit));
      }
      return encoded;
    }
    if (runs_bytes < raw_bytes) {
      encoded.encoding = BitmapEncoding::kRuns;
      encoded.values = std::move(runs);
      return encoded;
    }
  }

  encoded.encoding = BitmapEncoding::kRaw;
  encoded.raw = bitmap.words();
  return encoded;
}

Bitmap BitmapCodec::Decode(const EncodedBitmap& encoded) {
  switch (encoded.encoding) {
    case BitmapEncoding::kRaw:
      return Bitmap::FromWords(encoded.num_bits, encoded.raw);
    case BitmapEncoding::kEmpty:
      return Bitmap(encoded.num_bits);
    case BitmapEncoding::kSparse: {
      Bitmap bitmap(encoded.num_bits);
      for (uint16_t bit : encoded.values) {
        bitmap.Set(bit);
      }
      return bitmap;
    }
    case BitmapEncoding::kRuns: {
      Bitmap bitmap(encoded.num_bits);
      CVM_CHECK_EQ(encoded.values.size() % 2, 0u);
      for (size_t i = 0; i < encoded.values.size(); i += 2) {
        const uint32_t start = encoded.values[i];
        const uint32_t length = encoded.values[i + 1];
        for (uint32_t b = 0; b < length; ++b) {
          bitmap.Set(start + b);
        }
      }
      return bitmap;
    }
  }
  CVM_CHECK(false) << "unknown bitmap encoding";
  return Bitmap();
}

}  // namespace cvm
