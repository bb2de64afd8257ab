// BitmapCodec: compact wire encodings for the word-granularity access
// bitmaps that the barrier-time bitmap-retrieval round ships between nodes
// (§4 step 4). Access bitmaps are extremely skewed in practice — most
// intervals touch a handful of words of a page, or sweep a dense contiguous
// range — so the codec picks, per bitmap, the smallest of:
//
//   kEmpty   no set bits; header only.
//   kSparse  the set-bit indices as uint16 values (2 bytes per set bit).
//   kRuns    (start, length) uint16 pairs for maximal runs of set bits
//            (4 bytes per run, each at most 65535 bits long; wins on dense
//            contiguous sweeps).
//   kRaw     the raw 64-bit words (the legacy BitmapReplyMsg payload);
//            always correct, never larger than the original.
//
// Encoding is lossless and deterministic: the same bitmap always yields the
// same encoding, so message byte accounting stays reproducible.
#ifndef CVM_RACE_BITMAP_CODEC_H_
#define CVM_RACE_BITMAP_CODEC_H_

#include <cstdint>
#include <vector>

#include "src/common/bitmap.h"

namespace cvm {

enum class BitmapEncoding : uint8_t {
  kRaw = 0,
  kEmpty = 1,
  kSparse = 2,
  kRuns = 3,
};

const char* BitmapEncodingName(BitmapEncoding encoding);

// One encoded bitmap plus enough header to decode it. Wire layout (modeled,
// not serialized — the fabric is in-process): 1 byte encoding tag, 4 bytes
// num_bits, then the payload. The in-process copy is always the raw words
// (empty for kEmpty); the encoding only sets what the payload costs.
struct EncodedBitmap {
  BitmapEncoding encoding = BitmapEncoding::kEmpty;
  uint32_t num_bits = 0;
  std::vector<uint64_t> raw;  // The bitmap's words (none for kEmpty).
  // Modeled payload: the raw words, 2 bytes per set bit (kSparse) or 4 bytes
  // per run (kRuns); none for kEmpty.
  size_t payload_bytes = 0;

  static constexpr size_t kHeaderBytes = 1 + sizeof(uint32_t);

  size_t WireBytes() const { return kHeaderBytes + payload_bytes; }

  // What the same bitmap costs uncompressed (the legacy reply payload), for
  // the bytes-saved accounting.
  static size_t RawWireBytes(uint32_t num_bits) {
    return kHeaderBytes + ((num_bits + 63) / 64) * sizeof(uint64_t);
  }
};

class BitmapCodec {
 public:
  // Encodes `bitmap`, choosing the smallest representation. With
  // `allow_compression` false the result is always kRaw (the legacy wire
  // format, used to keep the serial baseline byte-comparable).
  static EncodedBitmap Encode(const Bitmap& bitmap, bool allow_compression = true);

  // Inverse of Encode: reconstructs the exact original bitmap.
  static Bitmap Decode(const EncodedBitmap& encoded);
};

}  // namespace cvm

#endif  // CVM_RACE_BITMAP_CODEC_H_
