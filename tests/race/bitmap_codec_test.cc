// BitmapCodec: lossless round-trips for every encoding, smallest-encoding
// selection, and the wire-byte accounting the bitmap round's byte metrics
// are built on.
#include <gtest/gtest.h>

#include <limits>
#include <map>
#include <random>
#include <string>
#include <vector>

#include "src/race/bitmap_codec.h"

namespace cvm {
namespace {

Bitmap MakeBitmap(uint32_t num_bits, const std::vector<uint32_t>& set_bits) {
  Bitmap bitmap(num_bits);
  for (uint32_t bit : set_bits) {
    bitmap.Set(bit);
  }
  return bitmap;
}

void ExpectRoundTrip(const Bitmap& original) {
  const EncodedBitmap encoded = BitmapCodec::Encode(original, true);
  const Bitmap decoded = BitmapCodec::Decode(encoded);
  ASSERT_EQ(decoded.size(), original.size());
  EXPECT_EQ(decoded.words(), original.words());
}

TEST(BitmapCodecTest, EmptyBitmapIsHeaderOnly) {
  const Bitmap empty(1024);
  const EncodedBitmap encoded = BitmapCodec::Encode(empty, true);
  EXPECT_EQ(encoded.encoding, BitmapEncoding::kEmpty);
  EXPECT_EQ(encoded.WireBytes(), EncodedBitmap::kHeaderBytes);
  ExpectRoundTrip(empty);
}

TEST(BitmapCodecTest, SparseBitmapEncodesIndices) {
  const Bitmap sparse = MakeBitmap(1024, {3, 100, 1023});
  const EncodedBitmap encoded = BitmapCodec::Encode(sparse, true);
  EXPECT_EQ(encoded.encoding, BitmapEncoding::kSparse);
  EXPECT_EQ(encoded.WireBytes(), EncodedBitmap::kHeaderBytes + 3 * sizeof(uint16_t));
  ExpectRoundTrip(sparse);
}

TEST(BitmapCodecTest, DenseRunEncodesAsRuns) {
  // One maximal run of 512 bits: 2 uint16 values vs 512 sparse indices.
  Bitmap dense(1024);
  for (uint32_t bit = 100; bit < 612; ++bit) {
    dense.Set(bit);
  }
  const EncodedBitmap encoded = BitmapCodec::Encode(dense, true);
  EXPECT_EQ(encoded.encoding, BitmapEncoding::kRuns);
  EXPECT_EQ(encoded.WireBytes(), EncodedBitmap::kHeaderBytes + 2 * sizeof(uint16_t));
  ExpectRoundTrip(dense);
}

TEST(BitmapCodecTest, PathologicalBitmapFallsBackToRaw) {
  // Alternating bits: sparse needs 2 bytes per set bit, runs need 4 bytes
  // per 1-bit run — both exceed the raw words, so raw must win.
  Bitmap alternating(1024);
  for (uint32_t bit = 0; bit < 1024; bit += 2) {
    alternating.Set(bit);
  }
  const EncodedBitmap encoded = BitmapCodec::Encode(alternating, true);
  EXPECT_EQ(encoded.encoding, BitmapEncoding::kRaw);
  EXPECT_EQ(encoded.WireBytes(), EncodedBitmap::RawWireBytes(1024));
  ExpectRoundTrip(alternating);
}

TEST(BitmapCodecTest, CompressionDisabledAlwaysYieldsRaw) {
  for (const Bitmap& bitmap :
       {Bitmap(512), MakeBitmap(512, {1, 2, 3}), MakeBitmap(512, {0})}) {
    const EncodedBitmap encoded = BitmapCodec::Encode(bitmap, false);
    EXPECT_EQ(encoded.encoding, BitmapEncoding::kRaw);
    EXPECT_EQ(encoded.WireBytes(), EncodedBitmap::RawWireBytes(512));
    const Bitmap decoded = BitmapCodec::Decode(encoded);
    EXPECT_EQ(decoded.words(), bitmap.words());
  }
}

TEST(BitmapCodecTest, CompressedNeverLargerThanRaw) {
  std::mt19937 rng(7);
  for (int trial = 0; trial < 200; ++trial) {
    const uint32_t num_bits = 64 + (rng() % 2048);
    Bitmap bitmap(num_bits);
    const uint32_t set_count = rng() % num_bits;
    for (uint32_t i = 0; i < set_count; ++i) {
      bitmap.Set(rng() % num_bits);
    }
    // Occasionally splice in a dense run so kRuns gets exercised.
    if (trial % 3 == 0) {
      const uint32_t start = rng() % (num_bits / 2);
      for (uint32_t bit = start; bit < start + num_bits / 4; ++bit) {
        bitmap.Set(bit);
      }
    }
    const EncodedBitmap encoded = BitmapCodec::Encode(bitmap, true);
    EXPECT_LE(encoded.WireBytes(), EncodedBitmap::RawWireBytes(num_bits));
    const Bitmap decoded = BitmapCodec::Decode(encoded);
    ASSERT_EQ(decoded.words(), bitmap.words()) << "trial " << trial;
  }
}

TEST(BitmapCodecTest, EncodingIsDeterministic) {
  const Bitmap bitmap = MakeBitmap(1024, {5, 6, 7, 300});
  const EncodedBitmap a = BitmapCodec::Encode(bitmap, true);
  const EncodedBitmap b = BitmapCodec::Encode(bitmap, true);
  EXPECT_EQ(a.encoding, b.encoding);
  EXPECT_EQ(a.num_bits, b.num_bits);
  EXPECT_EQ(a.WireBytes(), b.WireBytes());
  EXPECT_EQ(a.raw, b.raw);
}

// The codec's sizing as it was first written, kept as a reference: the
// set-bit list, then maximal runs built from it (capped at 65535 bits each),
// then the smallest of sparse, runs and raw. The codec now sizes the same
// choice from word popcounts; the two must agree bit for bit.
struct ReferenceSizing {
  BitmapEncoding encoding;
  size_t wire_bytes;
};

ReferenceSizing ReferenceEncode(const Bitmap& bitmap, bool allow_compression) {
  const size_t raw_wire = EncodedBitmap::RawWireBytes(bitmap.size());
  if (allow_compression && bitmap.empty()) {
    return {BitmapEncoding::kEmpty, EncodedBitmap::kHeaderBytes};
  }
  const std::vector<uint32_t> set_bits = bitmap.SetBits();
  const bool fits_u16 =
      bitmap.size() == 0 || bitmap.size() - 1 <= std::numeric_limits<uint16_t>::max();
  if (allow_compression && fits_u16) {
    size_t runs = 0;
    size_t i = 0;
    while (i < set_bits.size()) {
      size_t j = i + 1;
      while (j < set_bits.size() && set_bits[j] == set_bits[j - 1] + 1 &&
             set_bits[j] - set_bits[i] < std::numeric_limits<uint16_t>::max()) {
        ++j;
      }
      ++runs;
      i = j;
    }
    const size_t raw_bytes = bitmap.ByteSize();
    const size_t sparse_bytes = set_bits.size() * sizeof(uint16_t);
    const size_t runs_bytes = runs * 2 * sizeof(uint16_t);
    if (sparse_bytes <= runs_bytes && sparse_bytes < raw_bytes) {
      return {BitmapEncoding::kSparse, EncodedBitmap::kHeaderBytes + sparse_bytes};
    }
    if (runs_bytes < raw_bytes) {
      return {BitmapEncoding::kRuns, EncodedBitmap::kHeaderBytes + runs_bytes};
    }
  }
  return {BitmapEncoding::kRaw, raw_wire};
}

// Checks both compression settings; returns the compressed encoding.
BitmapEncoding ExpectMatchesReference(const Bitmap& bitmap, const std::string& label) {
  BitmapEncoding chosen = BitmapEncoding::kRaw;
  for (const bool compress : {true, false}) {
    const ReferenceSizing want = ReferenceEncode(bitmap, compress);
    const EncodedBitmap got = BitmapCodec::Encode(bitmap, compress);
    EXPECT_EQ(got.encoding, want.encoding)
        << label << " compress=" << compress << ": " << BitmapEncodingName(got.encoding)
        << " vs " << BitmapEncodingName(want.encoding);
    EXPECT_EQ(got.WireBytes(), want.wire_bytes) << label << " compress=" << compress;
    EXPECT_EQ(got.num_bits, bitmap.size()) << label;
    EXPECT_EQ(BitmapCodec::Decode(got).words(), bitmap.words()) << label;
    if (compress) {
      chosen = got.encoding;
    }
  }
  return chosen;
}

// A random bitmap of `num_bits` bits: scattered bits at a random density,
// sometimes overlaid with dense runs (some crossing word boundaries, some
// ending on the last bit), so sparse, runs and raw all get chosen.
Bitmap RandomBitmap(std::mt19937& rng, uint32_t num_bits) {
  Bitmap bitmap(num_bits);
  const uint32_t shape = rng() % 4;
  const uint32_t scattered = shape == 3 ? num_bits / 2 : rng() % (1 + num_bits / (1 + rng() % 64));
  for (uint32_t i = 0; i < scattered; ++i) {
    bitmap.Set(rng() % num_bits);
  }
  if (shape >= 1) {
    const uint32_t runs = 1 + rng() % 8;
    for (uint32_t r = 0; r < runs; ++r) {
      const uint32_t start = rng() % num_bits;
      const uint32_t length = 1 + rng() % (1 + (shape == 2 ? num_bits : 200));
      for (uint32_t bit = start; bit < num_bits && bit < start + length; ++bit) {
        bitmap.Set(bit);
      }
    }
  }
  return bitmap;
}

TEST(BitmapCodecTest, CountedSizingMatchesTheSetBitListReference) {
  std::mt19937 rng(20261019);
  std::map<BitmapEncoding, int> chosen;
  for (int trial = 0; trial < 10000; ++trial) {
    // Mostly page-sized maps, with a tail of large ones up to the 65536-bit
    // limit of the uint16 payloads.
    const uint32_t band = rng() % 20;
    const uint32_t num_bits = band < 14   ? 64 + rng() % (4096 - 64 + 1)
                              : band < 19 ? 4097 + rng() % (16384 - 4097 + 1)
                                          : 16385 + rng() % (65536 - 16385 + 1);
    ++chosen[ExpectMatchesReference(RandomBitmap(rng, num_bits), "trial " + std::to_string(trial))];
    if (HasFailure()) {
      return;
    }
  }
  // Every non-empty encoding is exercised, each many times.
  EXPECT_GE(chosen[BitmapEncoding::kSparse], 500);
  EXPECT_GE(chosen[BitmapEncoding::kRuns], 500);
  EXPECT_GE(chosen[BitmapEncoding::kRaw], 500);
}

TEST(BitmapCodecTest, CountedSizingMatchesTheReferenceAtTheEdges) {
  // The 65535-bit run cap: an all-set 65536-bit map is one run too long for
  // one pair and costs two; one bit short of it, or a map past the uint16
  // range, does not split.
  for (const uint32_t num_bits : {64u, 65u, 127u, 128u, 1024u, 65535u, 65536u, 65537u, 70000u}) {
    Bitmap all(num_bits);
    for (uint32_t bit = 0; bit < num_bits; ++bit) {
      all.Set(bit);
    }
    ExpectMatchesReference(all, "all set, " + std::to_string(num_bits) + " bits");
    ExpectMatchesReference(Bitmap(num_bits), "empty, " + std::to_string(num_bits) + " bits");
    Bitmap last = Bitmap(num_bits);
    last.Set(num_bits - 1);
    ExpectMatchesReference(last, "last bit, " + std::to_string(num_bits) + " bits");
    Bitmap alternating(num_bits);
    for (uint32_t bit = 0; bit < num_bits; bit += 2) {
      alternating.Set(bit);
    }
    ExpectMatchesReference(alternating, "alternating, " + std::to_string(num_bits) + " bits");
  }
  Bitmap all(65536);
  for (uint32_t bit = 0; bit < 65536; ++bit) {
    all.Set(bit);
  }
  const EncodedBitmap encoded = BitmapCodec::Encode(all, true);
  EXPECT_EQ(encoded.encoding, BitmapEncoding::kRuns);
  EXPECT_EQ(encoded.WireBytes(), EncodedBitmap::kHeaderBytes + 2 * 2 * sizeof(uint16_t));
  all.Clear(65535);
  EXPECT_EQ(BitmapCodec::Encode(all, true).WireBytes(),
            EncodedBitmap::kHeaderBytes + 2 * sizeof(uint16_t));
}

}  // namespace
}  // namespace cvm
