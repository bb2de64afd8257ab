#include "src/mem/diff.h"

#include <algorithm>
#include <cstring>

#include "src/common/check.h"

namespace cvm {

Diff MakeDiff(PageId page, IntervalId interval, const std::vector<uint8_t>& twin,
              const std::vector<uint8_t>& current, const DiffObs* obs) {
  CVM_CHECK_EQ(twin.size(), current.size());
  CVM_CHECK_EQ(twin.size() % kWordSize, 0u);
  Diff diff;
  diff.page = page;
  diff.interval = interval;
  // Twin vs page, word by word: every changed word, ascending. A whole
  // 64-byte block that compares equal is skipped without the word loop.
  constexpr size_t kBlockBytes = 64;
  for (size_t block = 0; block < twin.size(); block += kBlockBytes) {
    const size_t block_end = std::min(twin.size(), block + kBlockBytes);
    if (std::memcmp(twin.data() + block, current.data() + block, block_end - block) == 0) {
      continue;
    }
    for (size_t w = block / kWordSize; w < block_end / kWordSize; ++w) {
      uint32_t old_value;
      uint32_t new_value;
      std::memcpy(&old_value, twin.data() + w * kWordSize, kWordSize);
      std::memcpy(&new_value, current.data() + w * kWordSize, kWordSize);
      if (old_value != new_value) {
        diff.words.push_back(DiffWord{static_cast<uint32_t>(w), new_value});
      }
    }
  }
  if (obs != nullptr) {
    if (obs->diffs_created != nullptr) {
      obs->diffs_created->Increment();
    }
    if (obs->diff_size_words != nullptr) {
      obs->diff_size_words->Observe(diff.words.size());
    }
    if (obs->tracer != nullptr) {
      obs::TraceEvent event;
      event.name = "diff.create";
      event.cat = "mem";
      event.phase = 'i';
      event.node = obs->node;
      event.arg_name = "words";
      event.arg_value = diff.words.size();
      event.arg2_name = "page";
      event.arg2_value = static_cast<uint64_t>(page);
      obs->tracer->Emit(event);
    }
  }
  return diff;
}

void ApplyDiff(const Diff& diff, std::vector<uint8_t>& frame, const DiffObs* obs) {
  const size_t num_words = frame.size() / kWordSize;
  for (const DiffWord& dw : diff.words) {
    CVM_CHECK_LT(dw.word, num_words);
    std::memcpy(frame.data() + static_cast<size_t>(dw.word) * kWordSize, &dw.value, kWordSize);
  }
  if (obs != nullptr) {
    if (obs->words_applied != nullptr) {
      obs->words_applied->Add(diff.words.size());
    }
    if (obs->tracer != nullptr) {
      obs::TraceEvent event;
      event.name = "diff.apply";
      event.cat = "mem";
      event.phase = 'i';
      event.node = obs->node;
      event.arg_name = "words";
      event.arg_value = diff.words.size();
      event.arg2_name = "page";
      event.arg2_value = static_cast<uint64_t>(diff.page);
      obs->tracer->Emit(event);
    }
  }
}

}  // namespace cvm
