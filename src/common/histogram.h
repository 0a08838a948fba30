#ifndef EMBER_COMMON_HISTOGRAM_H_
#define EMBER_COMMON_HISTOGRAM_H_

#include <array>
#include <atomic>
#include <cstdint>

namespace ember {

/// Frozen copy of a LatencyHistogram, safe to aggregate and query.
struct HistogramSnapshot {
  static constexpr size_t kBuckets = 96;

  std::array<uint64_t, kBuckets> counts{};
  uint64_t count = 0;
  double sum = 0;
  double max = 0;

  double Mean() const { return count == 0 ? 0.0 : sum / count; }

  /// Approximate quantile for p in [0, 1] (0.5 = median, 0.99 = p99) by
  /// linear interpolation inside the holding bucket; exact to within one
  /// bucket width (~19%, quarter-octave buckets).
  double Percentile(double p) const;

  /// Element-wise merge (for aggregating per-worker histograms).
  void Add(const HistogramSnapshot& other);

  /// Element-wise difference from an earlier snapshot of the same
  /// histogram: what was recorded in between. A running max cannot be
  /// unwound, so `max` becomes the upper bound of the highest bucket still
  /// holding a sample, capped by the running max.
  void Subtract(const HistogramSnapshot& earlier);
};

/// Fixed-bucket concurrent histogram for non-negative values (latencies in
/// microseconds, batch sizes). 96 geometric buckets at 4 per octave cover
/// [1, 2^24) — 1 µs to ~16.7 s when recording microseconds — with values
/// outside the range clamped into the edge buckets. Record() is lock-free
/// (relaxed atomics): counters are statistics, never synchronization, and
/// Snapshot() is a read of monotone counters, not a consistent cut.
class LatencyHistogram {
 public:
  static constexpr size_t kBuckets = HistogramSnapshot::kBuckets;

  void Record(double value);

  HistogramSnapshot Snapshot() const;

  /// Bucket index for a value; exposed for tests. Bucket i spans
  /// [2^(i/4), 2^((i+1)/4)) with both tails clamped.
  static size_t BucketOf(double value);

  /// Upper bound of bucket i (the value Percentile interpolates toward).
  static double BucketUpperBound(size_t i);

 private:
  std::array<std::atomic<uint64_t>, kBuckets> counts_{};
  std::atomic<uint64_t> count_{0};
  std::atomic<double> sum_{0};
  std::atomic<double> max_{0};
};

}  // namespace ember

#endif  // EMBER_COMMON_HISTOGRAM_H_
