#include "src/race/trace_io.h"

#include <cstdint>
#include <fstream>
#include <vector>

namespace cvm {
namespace {

template <typename T>
void Put(std::ostream& out, T value) {
  out.write(reinterpret_cast<const char*>(&value), sizeof(value));
}

template <typename T>
bool Get(std::istream& in, T* value) {
  in.read(reinterpret_cast<char*>(value), sizeof(*value));
  return static_cast<bool>(in);
}

void PutPages(std::ostream& out, const std::vector<PageId>& pages) {
  Put<uint32_t>(out, static_cast<uint32_t>(pages.size()));
  for (PageId page : pages) {
    Put<int32_t>(out, page);
  }
}

bool GetPages(std::istream& in, std::vector<PageId>* pages) {
  uint32_t count = 0;
  if (!Get(in, &count) || count > (1u << 24)) {
    return false;
  }
  pages->resize(count);
  for (uint32_t i = 0; i < count; ++i) {
    if (!Get(in, &(*pages)[i])) {
      return false;
    }
  }
  return true;
}

void PutBitmap(std::ostream& out, const Bitmap& bitmap) {
  Put<uint32_t>(out, bitmap.size());
  for (uint64_t word : bitmap.words()) {
    Put<uint64_t>(out, word);
  }
}

bool GetBitmap(std::istream& in, Bitmap* bitmap) {
  uint32_t bits = 0;
  if (!Get(in, &bits) || bits > (1u << 24)) {
    return false;
  }
  std::vector<uint64_t> words((bits + 63) / 64);
  for (uint64_t& word : words) {
    if (!Get(in, &word)) {
      return false;
    }
  }
  if (!Bitmap::ValidWords(bits, words)) {
    return false;  // A bit set past `bits` would break the bitmap invariant.
  }
  *bitmap = Bitmap::FromWords(bits, std::move(words));
  return true;
}

}  // namespace

bool WriteTraceFile(const PostMortemTrace& trace, const std::string& path) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  if (!out) {
    return false;
  }
  Put<uint32_t>(out, kTraceMagic);
  Put<uint32_t>(out, kTraceVersion);

  Put<uint64_t>(out, trace.NumRecords());
  trace.ForEachRecord([&out](const IntervalRecord& record) {
    Put<int32_t>(out, record.id.node);
    Put<int32_t>(out, record.id.index);
    Put<int32_t>(out, record.epoch);
    Put<uint32_t>(out, static_cast<uint32_t>(record.vc.size()));
    for (IntervalIndex entry : record.vc.entries()) {
      Put<int32_t>(out, entry);
    }
    PutPages(out, record.write_pages);
    PutPages(out, record.read_pages);
  });

  Put<uint64_t>(out, trace.NumBitmapPairs());
  trace.ForEachBitmapPair(
      [&out](const IntervalId& id, PageId page, const PageAccessBitmaps& pair) {
        Put<int32_t>(out, id.node);
        Put<int32_t>(out, id.index);
        Put<int32_t>(out, page);
        PutBitmap(out, pair.read);
        PutBitmap(out, pair.write);
      });
  out.flush();
  return static_cast<bool>(out);
}

bool ReadTraceFile(const std::string& path, PostMortemTrace* out) {
  PostMortemTrace& trace = *out;
  std::ifstream in(path, std::ios::binary);
  if (!in) {
    return false;
  }
  uint32_t magic = 0;
  uint32_t version = 0;
  if (!Get(in, &magic) || magic != kTraceMagic || !Get(in, &version) ||
      version != kTraceVersion) {
    return false;
  }

  uint64_t record_count = 0;
  if (!Get(in, &record_count) || record_count > (1ull << 32)) {
    return false;
  }
  for (uint64_t i = 0; i < record_count; ++i) {
    IntervalRecord record;
    uint32_t vc_len = 0;
    if (!Get(in, &record.id.node) || !Get(in, &record.id.index) || !Get(in, &record.epoch) ||
        !Get(in, &vc_len) || vc_len > (1u << 16)) {
      return false;
    }
    record.vc = VectorClock(static_cast<int>(vc_len));
    for (uint32_t v = 0; v < vc_len; ++v) {
      IntervalIndex entry = 0;
      if (!Get(in, &entry)) {
        return false;
      }
      record.vc.Set(static_cast<NodeId>(v), entry);
    }
    if (!GetPages(in, &record.write_pages) || !GetPages(in, &record.read_pages)) {
      return false;
    }
    trace.AddRecord(record);
  }

  uint64_t bitmap_count = 0;
  if (!Get(in, &bitmap_count) || bitmap_count > (1ull << 32)) {
    return false;
  }
  for (uint64_t i = 0; i < bitmap_count; ++i) {
    IntervalId id;
    PageId page = -1;
    PageAccessBitmaps pair;
    if (!Get(in, &id.node) || !Get(in, &id.index) || !Get(in, &page) ||
        !GetBitmap(in, &pair.read) || !GetBitmap(in, &pair.write)) {
      return false;
    }
    trace.AddBitmaps(id, page, pair);
  }
  return true;
}

}  // namespace cvm
