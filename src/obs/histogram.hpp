// Log-linear ("HDR"-style) histograms for latency and cycle distributions.
//
// Fixed bucket layout over the full u64 range: values below 2^kSubBits get
// one bucket each; every higher power-of-two decade is subdivided into
// 2^kSubBits linear buckets, bounding the relative bucket width at
// 2^-kSubBits (6.25% with the default 4 sub-bits).  Recording is lock-free
// (relaxed atomic adds) and wait-free for the common single-writer-per-
// histogram case (one histogram per farm worker); snapshot() may run on any
// thread concurrently with recording and yields a mergeable, immutable
// `HistogramSnapshot` from which p50/p90/p99/p999 are derived without ever
// storing individual samples — this replaces the sort-every-sample
// percentile code the benches used to carry.
#pragma once

#include <atomic>
#include <cstddef>
#include <vector>

#include "common/types.hpp"

namespace adres::obs {

/// Immutable point-in-time view of a histogram; mergeable across workers.
struct HistogramSnapshot {
  u64 count = 0;  ///< sum of bucket counts (self-consistent with buckets)
  u64 sum = 0;    ///< sum of recorded values
  u64 min = 0;    ///< smallest recorded value (0 when count == 0)
  u64 max = 0;    ///< largest recorded value
  std::vector<u64> buckets;  ///< dense per-bucket counts (may be empty)

  /// Accumulates another snapshot (bucket-wise add, min/max fold).
  void merge(const HistogramSnapshot& other);

  double mean() const {
    return count ? static_cast<double>(sum) / static_cast<double>(count) : 0.0;
  }

  /// Quantile estimate (q in [0,1]): the midpoint of the bucket holding the
  /// rank-floor(q*(count-1)) sample — within one bucket width of the exact
  /// sorted-sample percentile, clamped to the recorded min/max.
  double quantile(double q) const;

  /// Samples recorded above `v`: the count in every bucket strictly after
  /// the one holding `v`.  Bucketized, so samples sharing v's bucket are
  /// counted as <= v — the estimate errs low by at most one bucket's worth
  /// (<= 6.25% relative bucket width).  The SLO deadline-miss source.
  u64 countAbove(u64 v) const;
};

class LogLinearHistogram {
 public:
  static constexpr int kSubBits = 4;
  static constexpr int kSubBuckets = 1 << kSubBits;
  static constexpr std::size_t kNumBuckets =
      static_cast<std::size_t>((64 - kSubBits) * kSubBuckets) + kSubBuckets;

  /// Bucket index for a value (total order preserved across buckets).
  static std::size_t bucketIndex(u64 v);
  /// Inclusive lower bound of a bucket.
  static u64 bucketLo(std::size_t index);
  /// Exclusive upper bound of a bucket.
  static u64 bucketHi(std::size_t index);

  LogLinearHistogram();
  LogLinearHistogram(const LogLinearHistogram&) = delete;
  LogLinearHistogram& operator=(const LogLinearHistogram&) = delete;

  /// Records one value; lock-free, callable from any thread.
  void record(u64 v);

  /// Point-in-time copy; safe concurrently with record() (relaxed reads:
  /// each bucket value is valid, the view may lag in-flight records).
  HistogramSnapshot snapshot() const;

  /// Clears every bucket.  Not safe concurrently with record().
  void reset();

  u64 count() const { return count_.load(std::memory_order_relaxed); }
  u64 sum() const { return sum_.load(std::memory_order_relaxed); }

 private:
  std::vector<std::atomic<u64>> buckets_;
  std::atomic<u64> count_{0};
  std::atomic<u64> sum_{0};
  std::atomic<u64> min_{~0ull};
  std::atomic<u64> max_{0};
};

}  // namespace adres::obs
