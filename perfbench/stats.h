// The benchmark's arithmetic: order statistics over samples, percentiles of a
// log2-bucketed histogram, and span self time. Header-only and free of any
// simulator type so the tests pin it down on hand-made inputs.
#ifndef CVM_PERFBENCH_STATS_H_
#define CVM_PERFBENCH_STATS_H_

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <vector>

namespace perfbench {

// Quantile q in [0, 1] with linear interpolation between order statistics
// (numpy's default "linear" method). 0 for an empty sample.
inline double Quantile(std::vector<double> values, double q) {
  if (values.empty()) {
    return 0;
  }
  std::sort(values.begin(), values.end());
  const double pos = q * static_cast<double>(values.size() - 1);
  const size_t lo = static_cast<size_t>(std::floor(pos));
  const size_t hi = std::min(lo + 1, values.size() - 1);
  return values[lo] + (values[hi] - values[lo]) * (pos - static_cast<double>(lo));
}

inline double Median(std::vector<double> values) { return Quantile(std::move(values), 0.5); }

// (max - min) / median, as a percentage. 0 for fewer than two samples.
inline double RangePct(const std::vector<double>& values) {
  if (values.size() < 2) {
    return 0;
  }
  const auto [lo, hi] = std::minmax_element(values.begin(), values.end());
  const double median = Median(values);
  return median == 0 ? 0 : (*hi - *lo) / median * 100.0;
}

// Quantile of a histogram whose bucket 0 holds the value 0 and whose bucket
// b >= 1 covers [2^(b-1), 2^b). Interpolates linearly inside the bucket that
// holds the rank, so the answer is exact only to within that bucket.
inline double Log2HistogramQuantile(const std::vector<uint64_t>& buckets, double q) {
  uint64_t count = 0;
  for (uint64_t c : buckets) {
    count += c;
  }
  if (count == 0) {
    return 0;
  }
  const double rank = q * static_cast<double>(count);
  double seen = 0;
  for (size_t b = 0; b < buckets.size(); ++b) {
    if (buckets[b] == 0) {
      continue;
    }
    const double next = seen + static_cast<double>(buckets[b]);
    if (rank <= next) {
      if (b == 0) {
        return 0;
      }
      const double lo = std::ldexp(1.0, static_cast<int>(b) - 1);
      const double frac = std::clamp((rank - seen) / static_cast<double>(buckets[b]), 0.0, 1.0);
      return lo + lo * frac;  // The bucket is [lo, 2 * lo).
    }
    seen = next;
  }
  return 0;
}

// A closed stretch of one clock, in that clock's unit.
struct Span1D {
  double begin = 0;
  double end = 0;
  double length() const { return end > begin ? end - begin : 0; }
};

// Length of the union of `spans`, each clipped to `window`.
inline double UnionLength(std::vector<Span1D> spans, Span1D window) {
  for (Span1D& s : spans) {
    s.begin = std::max(s.begin, window.begin);
    s.end = std::min(s.end, window.end);
  }
  std::sort(spans.begin(), spans.end(),
            [](const Span1D& a, const Span1D& b) { return a.begin < b.begin; });
  double total = 0;
  double cur_begin = 0;
  double cur_end = 0;
  bool open = false;
  for (const Span1D& s : spans) {
    if (s.length() <= 0) {
      continue;
    }
    if (open && s.begin <= cur_end) {
      cur_end = std::max(cur_end, s.end);
      continue;
    }
    if (open) {
      total += cur_end - cur_begin;
    }
    cur_begin = s.begin;
    cur_end = s.end;
    open = true;
  }
  if (open) {
    total += cur_end - cur_begin;
  }
  return total;
}

// A span's self time: its length minus the part of it that `children`
// cover. Children may overlap each other or stick out of the parent.
inline double SelfTime(Span1D parent, const std::vector<Span1D>& children) {
  return parent.length() - UnionLength(children, parent);
}

}  // namespace perfbench

#endif  // CVM_PERFBENCH_STATS_H_
