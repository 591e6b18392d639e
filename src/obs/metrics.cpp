#include "obs/metrics.hpp"

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdio>
#include <sstream>

namespace artsci::obs {

namespace {

/// Order-preserving encoding of double into uint64: for any finite a < b,
/// enc(a) < enc(b). (Standard sign-flip trick; NaN never recorded here —
/// bucketOf/observe treat non-finite via fmin/fmax semantics upstream.)
std::uint64_t encodeOrdered(double d) {
  const std::uint64_t u = std::bit_cast<std::uint64_t>(d);
  return (u & (std::uint64_t{1} << 63)) != 0 ? ~u
                                             : u | (std::uint64_t{1} << 63);
}

double decodeOrdered(std::uint64_t e) {
  const std::uint64_t u =
      (e & (std::uint64_t{1} << 63)) != 0 ? e & ~(std::uint64_t{1} << 63) : ~e;
  return std::bit_cast<double>(u);
}

void atomicMaxU64(std::atomic<std::uint64_t>& slot, std::uint64_t v) {
  std::uint64_t cur = slot.load(std::memory_order_relaxed);
  while (cur < v &&
         !slot.compare_exchange_weak(cur, v, std::memory_order_relaxed)) {
  }
}

void atomicMinU64(std::atomic<std::uint64_t>& slot, std::uint64_t v) {
  std::uint64_t cur = slot.load(std::memory_order_relaxed);
  while (cur > v &&
         !slot.compare_exchange_weak(cur, v, std::memory_order_relaxed)) {
  }
}

std::string formatDouble(double v) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.6g", v);
  return buf;
}

}  // namespace

int Histogram::bucketOf(double v) {
  if (!(v > 0.0)) return 0;
  // Upper bound of bucket i is 2^(i + kMinExp); v belongs to the first
  // bucket whose bound is >= v, i.e. i = ceil(log2 v) - kMinExp.
  const int e = std::ilogb(v);  // floor(log2 |v|) for finite v
  const bool isPow2 = std::ldexp(1.0, e) == v;
  int idx = e + (isPow2 ? 0 : 1) - kMinExp;
  if (idx < 0) idx = 0;
  if (idx >= kBuckets) idx = kBuckets - 1;
  return idx;
}

double Histogram::bucketBound(int i) { return std::ldexp(1.0, i + kMinExp); }

void Histogram::observe(double v) {
  Shard& s = shards_[threadSlot()];
  s.count.fetch_add(1, std::memory_order_relaxed);
  // Saturating fixed-point conversion: exact associative integer ticks.
  const double ticks = v * kSumScale;
  const std::int64_t t =
      ticks >= 9.2e18 ? std::int64_t{1} << 62
                      : (ticks <= -9.2e18 ? -(std::int64_t{1} << 62)
                                          : std::llround(ticks));
  s.sumTicks.fetch_add(t, std::memory_order_relaxed);
  s.buckets[static_cast<std::size_t>(bucketOf(v))].fetch_add(
      1, std::memory_order_relaxed);
  const std::uint64_t enc = encodeOrdered(v);
  atomicMinU64(minEnc_, enc);
  atomicMaxU64(maxEnc_, enc);
}

Histogram::Snapshot Histogram::snapshot() const {
  Snapshot out;
  std::int64_t ticks = 0;
  // Fixed shard order; all sums are integers, so the reduction is exact
  // and independent of which threads fed which shards.
  for (const auto& s : shards_) {
    out.count += s.count.load(std::memory_order_relaxed);
    ticks += s.sumTicks.load(std::memory_order_relaxed);
    for (int b = 0; b < kBuckets; ++b)
      out.buckets[static_cast<std::size_t>(b)] +=
          s.buckets[static_cast<std::size_t>(b)].load(
              std::memory_order_relaxed);
  }
  out.sum = static_cast<double>(ticks) / kSumScale;
  if (out.count > 0) {
    out.min = decodeOrdered(minEnc_.load(std::memory_order_relaxed));
    out.max = decodeOrdered(maxEnc_.load(std::memory_order_relaxed));
  }
  return out;
}

double Histogram::Snapshot::quantile(double q) const {
  if (count == 0) return 0.0;
  if (q < 0.0) q = 0.0;
  if (q > 1.0) q = 1.0;
  // Rank of the target observation (1-based), then walk the buckets.
  const std::uint64_t rank = std::max<std::uint64_t>(
      1, static_cast<std::uint64_t>(std::ceil(q * static_cast<double>(count))));
  int b = 0;
  for (std::uint64_t seen = 0; b < kBuckets - 1; ++b) {
    seen += buckets[static_cast<std::size_t>(b)];
    if (seen >= rank) break;
  }
  // A bucket's upper bound can lie past the largest observation; clamp to
  // the observed range so no quantile exceeds max (nor, trivially, falls
  // below min).
  return std::clamp(bucketBound(b), min, max);
}

Registry& Registry::global() {
  static Registry registry;
  return registry;
}

Counter& Registry::counter(const std::string& name) {
  std::lock_guard<std::mutex> lock(mutex_);
  auto& slot = counters_[name];
  if (!slot) slot = std::make_unique<Counter>();
  return *slot;
}

Gauge& Registry::gauge(const std::string& name) {
  std::lock_guard<std::mutex> lock(mutex_);
  auto& slot = gauges_[name];
  if (!slot) slot = std::make_unique<Gauge>();
  return *slot;
}

Histogram& Registry::histogram(const std::string& name) {
  std::lock_guard<std::mutex> lock(mutex_);
  auto& slot = histograms_[name];
  if (!slot) slot = std::make_unique<Histogram>();
  return *slot;
}

Registry::Snapshot Registry::snapshot() const {
  std::lock_guard<std::mutex> lock(mutex_);
  Snapshot out;
  // std::map iteration = name-sorted = the fixed aggregation order.
  for (const auto& [name, c] : counters_) out.counters.emplace_back(name, c->value());
  for (const auto& [name, g] : gauges_) out.gauges.emplace_back(name, g->value());
  for (const auto& [name, h] : histograms_)
    out.histograms.emplace_back(name, h->snapshot());
  return out;
}

std::string Registry::toJson() const {
  const Snapshot snap = snapshot();
  std::ostringstream os;
  os << "{\n  \"counters\": {";
  for (std::size_t i = 0; i < snap.counters.size(); ++i)
    os << (i > 0 ? ", " : "") << "\"" << snap.counters[i].first
       << "\": " << snap.counters[i].second;
  os << "},\n  \"gauges\": {";
  for (std::size_t i = 0; i < snap.gauges.size(); ++i)
    os << (i > 0 ? ", " : "") << "\"" << snap.gauges[i].first
       << "\": " << formatDouble(snap.gauges[i].second);
  os << "},\n  \"histograms\": {";
  for (std::size_t i = 0; i < snap.histograms.size(); ++i) {
    const auto& [name, h] = snap.histograms[i];
    os << (i > 0 ? ", " : "") << "\n    \"" << name << "\": {\"count\": "
       << h.count << ", \"sum\": " << formatDouble(h.sum)
       << ", \"mean\": " << formatDouble(h.mean())
       << ", \"min\": " << formatDouble(h.min)
       << ", \"max\": " << formatDouble(h.max)
       << ", \"p50\": " << formatDouble(h.quantile(0.5))
       << ", \"p99\": " << formatDouble(h.quantile(0.99)) << "}";
  }
  os << "\n  }\n}\n";
  return os.str();
}

StepReporter::StepReporter(Registry& registry, long everySteps)
    : registry_(registry), every_(everySteps > 0 ? everySteps : 1) {}

std::string StepReporter::reportLine() {
  const Registry::Snapshot snap = registry_.snapshot();
  std::ostringstream os;
  os << "step " << steps_;
  for (const auto& [name, v] : snap.gauges)
    os << " | " << name << " " << formatDouble(v);
  for (const auto& [name, v] : snap.counters) {
    const auto it = lastCounters_.find(name);
    const std::uint64_t before = it == lastCounters_.end() ? 0 : it->second;
    os << " | " << name << " +" << (v - before);
    lastCounters_[name] = v;
  }
  return os.str();
}

std::optional<std::string> StepReporter::onStep() {
  ++steps_;
  if (steps_ % every_ != 0) return std::nullopt;
  return reportLine();
}

}  // namespace artsci::obs
