/// \file report.hpp
/// Shared plumbing of the end-to-end benchmark: raw-sample quantiles,
/// named metrics, the result line, and folding the spans that
/// obs::TraceRecorder already records into per-thread totals.
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double secondsBetween(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

/// Linear-interpolated quantile (q in [0,1]) of raw samples. Never a
/// histogram bucket bound: the value lies within [min, max] of the data.
double quantile(std::vector<double> samples, double q);
double median(std::vector<double> samples);
double mean(const std::vector<double>& samples);

/// A latency distribution as reported: median, the highest of p99.9 /
/// p99 / p90 / p50 that still has >= 10 samples beyond it, and the count.
struct TailSummary {
  double p50 = 0;
  double tail = 0;
  double tailPercentile = 50;
  std::size_t count = 0;
};
TailSummary summarize(const std::vector<double>& samples);

struct Metric {
  std::string name;
  std::string unit;
  double value = 0;
};

/// Ordered metric list; add() keeps the insertion order of the JSON.
class Metrics {
 public:
  void add(const std::string& name, const std::string& unit, double value);
  void append(const Metrics& other);
  const std::vector<Metric>& items() const { return items_; }
  double get(const std::string& name) const;

 private:
  std::vector<Metric> items_;
};

/// Output checks: every failed check is kept with its reason.
class Checks {
 public:
  void expect(bool ok, const std::string& what);
  bool allPassed() const { return failures_.empty(); }
  const std::vector<std::string>& failures() const { return failures_; }
  std::size_t count() const { return count_; }

 private:
  std::vector<std::string> failures_;
  std::size_t count_ = 0;
};

std::string jsonEscape(const std::string& s);
/// A double with all its significant digits (non-finite -> null).
std::string jsonNumber(double v);

/// {"name": {"value": v, "unit": u}, ...}
std::string metricsJson(const Metrics& m);

/// One completed span recorded by obs::TraceRecorder.
struct Span {
  std::string category;
  std::string name;
  std::string thread;  ///< thread label ("thread <tid>" when unnamed)
  double durUs = 0;
};

/// Flush the trace recorder (quiescent point) and parse its spans.
std::vector<Span> collectSpans();

/// Sum / count of the spans `category.name` recorded on threads whose
/// label starts with `threadPrefix` ("" = any thread).
struct SpanTotal {
  double ms = 0;
  std::size_t count = 0;
};
SpanTotal spanTotal(const std::vector<Span>& spans, const std::string& category,
                    const std::string& name, const std::string& threadPrefix);

}  // namespace perfbench
