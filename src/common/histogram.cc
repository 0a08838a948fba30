#include "common/histogram.h"

#include <algorithm>
#include <cmath>

namespace ember {

size_t LatencyHistogram::BucketOf(double value) {
  if (!(value > 1.0)) return 0;  // NaN and everything <= 1 land in bucket 0
  const double octaves = std::log2(value);
  const auto bucket = static_cast<size_t>(octaves * 4.0);
  return bucket < kBuckets ? bucket : kBuckets - 1;
}

double LatencyHistogram::BucketUpperBound(size_t i) {
  return std::exp2(static_cast<double>(i + 1) / 4.0);
}

void LatencyHistogram::Record(double value) {
  if (value < 0 || std::isnan(value)) value = 0;
  counts_[BucketOf(value)].fetch_add(1, std::memory_order_relaxed);
  count_.fetch_add(1, std::memory_order_relaxed);
  sum_.fetch_add(value, std::memory_order_relaxed);
  double seen = max_.load(std::memory_order_relaxed);
  while (value > seen &&
         !max_.compare_exchange_weak(seen, value, std::memory_order_relaxed)) {
  }
}

HistogramSnapshot LatencyHistogram::Snapshot() const {
  HistogramSnapshot snap;
  for (size_t i = 0; i < kBuckets; ++i) {
    snap.counts[i] = counts_[i].load(std::memory_order_relaxed);
  }
  snap.count = count_.load(std::memory_order_relaxed);
  snap.sum = sum_.load(std::memory_order_relaxed);
  snap.max = max_.load(std::memory_order_relaxed);
  return snap;
}

double HistogramSnapshot::Percentile(double p) const {
  if (count == 0) return 0;
  if (p < 0) p = 0;
  if (p > 1) p = 1;
  // Total from the buckets, not `count`: under concurrent Record() the
  // counters are not a consistent cut and the rank must stay in range.
  uint64_t total = 0;
  for (const uint64_t c : counts) total += c;
  if (total == 0) return 0;
  // One sample has no within-bucket distribution to interpolate over: the
  // recorded max IS that sample, exactly.
  if (total == 1) return max;
  const double rank = p * static_cast<double>(total);
  uint64_t seen = 0;
  for (size_t i = 0; i < kBuckets; ++i) {
    if (counts[i] == 0) continue;
    const auto below = static_cast<double>(seen);
    seen += counts[i];
    if (static_cast<double>(seen) >= rank) {
      const double lower =
          i == 0 ? 0.0 : LatencyHistogram::BucketUpperBound(i - 1);
      double upper = LatencyHistogram::BucketUpperBound(i);
      // The top bucket absorbs every value >= 2^24, so its nominal bound
      // says nothing about the mass inside it; interpolate toward the
      // observed max instead of collapsing all-outlier histograms to the
      // bound.
      if (i == kBuckets - 1 && max > upper) upper = max;
      const double fraction =
          (rank - below) / static_cast<double>(counts[i]);
      const double value = lower + (upper - lower) * fraction;
      // Never report beyond the observed max: without this, an all-zero
      // histogram (max == 0) would yield a positive "latency" interpolated
      // out of bucket 0.
      return value > max ? max : value;
    }
  }
  return max;
}

void HistogramSnapshot::Add(const HistogramSnapshot& other) {
  for (size_t i = 0; i < kBuckets; ++i) counts[i] += other.counts[i];
  count += other.count;
  sum += other.sum;
  if (other.max > max) max = other.max;
}

void HistogramSnapshot::Subtract(const HistogramSnapshot& earlier) {
  double top = 0;
  for (size_t i = 0; i < kBuckets; ++i) {
    counts[i] -= earlier.counts[i];
    if (counts[i] > 0) top = LatencyHistogram::BucketUpperBound(i);
  }
  count -= earlier.count;
  sum -= earlier.sum;
  max = std::min(max, top);
}

}  // namespace ember
