/// \file metrics.hpp
/// Cross-subsystem metrics registry: named counters, gauges, and
/// histograms with per-thread shards (lock-free record path) and a
/// deterministic fixed-order aggregation.
///
/// Determinism invariant (the PR 3/6 discipline applied to metrics): every
/// aggregated quantity is an integer — counter shards are uint64, histogram
/// bucket counts are uint64, histogram sums are fixed-point int64 ticks,
/// min/max use an order-preserving integer encoding of the double — so the
/// shard reduction is associative and a snapshot of the same observation
/// multiset is bit-identical no matter how many threads recorded it or how
/// they were scheduled. Snapshots list metrics in name-sorted order.
/// Enforced by tests/common/test_obs.cpp.
///
/// Gauges are the one exception: set() is last-write-wins by design
/// (they describe "current state", not an accumulation).
///
/// Usage: resolve once, record hot —
///   obs::Counter& steps = obs::Registry::global().counter("pic.steps");
///   ... per step: steps.add();
/// Name lookups take the registry mutex; Counter/Gauge/Histogram
/// references stay valid for the registry's lifetime.
#pragma once

#include <array>
#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <vector>

namespace artsci::obs {

/// Shards per metric. Threads map to slot (sequential id % kMaxShards);
/// two threads sharing a shard stay correct (atomic adds), merely
/// contended. Integer aggregation keeps any sharding bit-identical.
inline constexpr std::size_t kMaxShards = 32;

/// Stable small id for the calling thread, used as the shard index.
inline std::size_t threadSlot() {
  static std::atomic<std::size_t> next{0};
  thread_local const std::size_t slot =
      next.fetch_add(1, std::memory_order_relaxed) % kMaxShards;
  return slot;
}

/// Monotone event count (uint64, exact).
class Counter {
 public:
  Counter() = default;
  Counter(const Counter&) = delete;
  Counter& operator=(const Counter&) = delete;

  void add(std::uint64_t delta = 1) {
    shards_[threadSlot()].v.fetch_add(delta, std::memory_order_relaxed);
  }
  /// Fixed-order shard sum (exact; associative integer addition).
  std::uint64_t value() const {
    std::uint64_t total = 0;
    for (const auto& s : shards_) total += s.v.load(std::memory_order_relaxed);
    return total;
  }

 private:
  struct alignas(64) Shard {
    std::atomic<std::uint64_t> v{0};
  };
  std::array<Shard, kMaxShards> shards_;
};

/// Last-write-wins instantaneous value (queue depth, buffer occupancy).
class Gauge {
 public:
  Gauge() = default;
  Gauge(const Gauge&) = delete;
  Gauge& operator=(const Gauge&) = delete;

  void set(double v) { value_.store(v, std::memory_order_relaxed); }
  double value() const { return value_.load(std::memory_order_relaxed); }

 private:
  std::atomic<double> value_{0.0};
};

/// Power-of-two-bucketed distribution with exact integer aggregation.
class Histogram {
 public:
  /// Bucket i holds observations in (2^(i-1+kMinExp), 2^(i+kMinExp)];
  /// bucket 0 additionally holds everything <= its bound (including
  /// zeros/negatives), the last bucket everything above.
  static constexpr int kBuckets = 44;
  static constexpr int kMinExp = -12;  ///< first upper bound 2^-12
  /// Fixed-point scale of the sum: 2^20 ticks per unit (~1e-6 absolute
  /// resolution per observation, exact associative accumulation).
  static constexpr double kSumScale = 1048576.0;

  Histogram() = default;
  Histogram(const Histogram&) = delete;
  Histogram& operator=(const Histogram&) = delete;

  void observe(double v);

  struct Snapshot {
    std::uint64_t count = 0;
    double sum = 0;  ///< ticks / kSumScale
    double min = 0;  ///< 0 when count == 0
    double max = 0;
    std::array<std::uint64_t, kBuckets> buckets{};

    double mean() const { return count > 0 ? sum / static_cast<double>(count) : 0.0; }
    /// Upper bound of the bucket containing the q-quantile, clamped to
    /// [min, max] so it never reports a value outside the observed range
    /// (coarse — factor-2 resolution — but monotone in q and
    /// deterministic).
    double quantile(double q) const;
  };
  Snapshot snapshot() const;

  static int bucketOf(double v);
  /// Upper bound of bucket i.
  static double bucketBound(int i);

 private:
  struct alignas(64) Shard {
    std::atomic<std::uint64_t> count{0};
    std::atomic<std::int64_t> sumTicks{0};
    std::array<std::atomic<std::uint64_t>, kBuckets> buckets{};
  };
  std::array<Shard, kMaxShards> shards_;
  /// Metric-level extremes, order-preserving integer encoding (exact,
  /// order-free CAS min/max).
  std::atomic<std::uint64_t> minEnc_{~std::uint64_t{0}};
  std::atomic<std::uint64_t> maxEnc_{0};
};

/// Named metrics, one namespace per kind. Lookup creates on first use.
class Registry {
 public:
  Registry() = default;
  Registry(const Registry&) = delete;
  Registry& operator=(const Registry&) = delete;

  /// The process-wide default registry the built-in instrumentation
  /// (pic/train/replay/stream) records into.
  static Registry& global();

  Counter& counter(const std::string& name);
  Gauge& gauge(const std::string& name);
  Histogram& histogram(const std::string& name);

  struct Snapshot {
    std::vector<std::pair<std::string, std::uint64_t>> counters;
    std::vector<std::pair<std::string, double>> gauges;
    std::vector<std::pair<std::string, Histogram::Snapshot>> histograms;
  };
  /// Name-sorted, integer-aggregated snapshot (the deterministic order).
  Snapshot snapshot() const;

  /// Snapshot as a JSON object ({"counters": {...}, "gauges": {...},
  /// "histograms": {...}}), keys in name-sorted order.
  std::string toJson() const;

 private:
  mutable std::mutex mutex_;
  std::map<std::string, std::unique_ptr<Counter>> counters_;
  std::map<std::string, std::unique_ptr<Gauge>> gauges_;
  std::map<std::string, std::unique_ptr<Histogram>> histograms_;
};

/// Periodic one-line progress report over a registry: every `everySteps`
/// onStep() calls, formats all gauges plus the counter deltas since the
/// previous report (name-sorted). The pipeline logs it as the step report
/// (particles/s, trainer ms/step, replay occupancy, serve queue depth).
class StepReporter {
 public:
  explicit StepReporter(Registry& registry, long everySteps = 10);

  /// Count one step; returns the report line on every `everySteps`-th call.
  std::optional<std::string> onStep();
  /// The line onStep would return, without advancing the cadence.
  std::string reportLine();

 private:
  Registry& registry_;
  long every_;
  long steps_ = 0;
  std::map<std::string, std::uint64_t> lastCounters_;
};

}  // namespace artsci::obs
