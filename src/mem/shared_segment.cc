#include "src/mem/shared_segment.h"

#include <algorithm>
#include <cstring>
#include <sstream>

namespace cvm {

SharedSegment::SharedSegment(uint64_t page_size, uint64_t max_bytes) : page_size_(page_size) {
  CVM_CHECK_GT(page_size, 0u);
  CVM_CHECK_EQ(page_size % kWordSize, 0u);
  num_pages_ = (max_bytes + page_size - 1) / page_size;
  CVM_CHECK_GT(num_pages_, 0u);
}

GlobalAddr SharedSegment::Alloc(const std::string& name, uint64_t bytes, bool page_align) {
  CVM_CHECK_GT(bytes, 0u);
  uint64_t base = next_free_;
  if (page_align && base % page_size_ != 0) {
    base += page_size_ - base % page_size_;
  }
  // Keep scalar allocations word-aligned so bitmap bits map 1:1 to variables.
  if (base % kWordSize != 0) {
    base += kWordSize - base % kWordSize;
  }
  CVM_CHECK_LE(base + bytes, size_bytes())
      << "shared segment exhausted allocating " << name << " (" << bytes << " bytes)";
  next_free_ = base + bytes;
  symbols_.push_back(Symbol{name, base, bytes});
  return base;
}

std::string SharedSegment::Symbolize(GlobalAddr addr) const {
  for (const Symbol& sym : symbols_) {
    if (addr >= sym.base && addr < sym.base + sym.size) {
      std::ostringstream out;
      out << sym.name;
      if (addr != sym.base) {
        out << "+" << (addr - sym.base);
      }
      return out.str();
    }
  }
  std::ostringstream out;
  out << "0x" << std::hex << addr;
  return out.str();
}

std::vector<uint8_t> SharedSegment::InitialPage(PageId page) const {
  const std::vector<uint8_t>* poked = PokedPage(page);
  return poked != nullptr ? *poked : std::vector<uint8_t>(page_size_, 0);
}

const std::vector<uint8_t>* SharedSegment::PokedPage(PageId page) const {
  CVM_CHECK_GE(page, 0);
  CVM_CHECK_LT(static_cast<uint64_t>(page), num_pages_);
  const auto it = poked_.find(page);
  return it != poked_.end() ? &it->second : nullptr;
}

void SharedSegment::PokeInitial(GlobalAddr addr, const void* data, uint64_t bytes) {
  CVM_CHECK_LE(addr + bytes, size_bytes());
  const auto* src = static_cast<const uint8_t*>(data);
  while (bytes > 0) {
    const uint64_t offset = OffsetInPage(addr);
    const uint64_t chunk = std::min(bytes, page_size_ - offset);
    std::vector<uint8_t>& page = poked_[PageOf(addr)];
    page.resize(page_size_, 0);
    std::memcpy(page.data() + offset, src, chunk);
    addr += chunk;
    src += chunk;
    bytes -= chunk;
  }
}

}  // namespace cvm
