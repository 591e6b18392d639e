#include "report.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <sstream>
#include <stdexcept>

#include "obs/trace.hpp"

namespace perfbench {

double quantile(std::vector<double> samples, double q) {
  if (samples.empty()) return 0;
  std::sort(samples.begin(), samples.end());
  const double pos = q * static_cast<double>(samples.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, samples.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return samples[lo] + (samples[hi] - samples[lo]) * frac;
}

double median(std::vector<double> samples) {
  return quantile(std::move(samples), 0.5);
}

double mean(const std::vector<double>& samples) {
  if (samples.empty()) return 0;
  double s = 0;
  for (double v : samples) s += v;
  return s / static_cast<double>(samples.size());
}

TailSummary summarize(const std::vector<double>& samples) {
  TailSummary s;
  s.count = samples.size();
  if (samples.empty()) return s;
  s.p50 = quantile(samples, 0.5);
  s.tail = s.p50;
  for (double pct : {99.9, 99.0, 90.0}) {
    const double beyond =
        static_cast<double>(samples.size()) * (1.0 - pct / 100.0);
    if (beyond >= 10.0) {
      s.tailPercentile = pct;
      s.tail = quantile(samples, pct / 100.0);
      break;
    }
  }
  return s;
}

void Metrics::add(const std::string& name, const std::string& unit,
                  double value) {
  for (auto& m : items_) {
    if (m.name == name) throw std::logic_error("duplicate metric " + name);
  }
  items_.push_back({name, unit, value});
}

void Metrics::append(const Metrics& other) {
  for (const auto& m : other.items_) add(m.name, m.unit, m.value);
}

double Metrics::get(const std::string& name) const {
  for (const auto& m : items_)
    if (m.name == name) return m.value;
  throw std::logic_error("no metric " + name);
}

void Checks::expect(bool ok, const std::string& what) {
  ++count_;
  if (!ok) failures_.push_back(what);
}

std::string jsonEscape(const std::string& s) {
  std::string out;
  for (char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      out += ' ';
    } else {
      out += c;
    }
  }
  return out;
}

std::string jsonNumber(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

std::string metricsJson(const Metrics& m) {
  std::string out = "{";
  bool first = true;
  for (const auto& item : m.items()) {
    if (!first) out += ", ";
    first = false;
    out += '"';
    out += jsonEscape(item.name);
    out += "\": {\"value\": ";
    out += jsonNumber(item.value);
    out += ", \"unit\": \"";
    out += jsonEscape(item.unit);
    out += "\"}";
  }
  return out + "}";
}

namespace {

/// Value of `"key": ` in one flushed trace line, up to the next delimiter.
std::string field(const std::string& line, const std::string& key) {
  const std::string tag = "\"" + key + "\": ";
  const auto at = line.find(tag);
  if (at == std::string::npos) return {};
  auto begin = at + tag.size();
  if (line[begin] == '"') {
    const auto end = line.find('"', begin + 1);
    return line.substr(begin + 1, end - begin - 1);
  }
  auto end = line.find_first_of(",}", begin);
  return line.substr(begin, end - begin);
}

}  // namespace

std::vector<Span> collectSpans() {
  // writeJson emits one event per line: thread_name metadata first, then
  // the "X" complete events.
  std::ostringstream os;
  artsci::obs::TraceRecorder::instance().writeJson(os);
  std::istringstream is(os.str());
  std::map<std::string, std::string> threadNames;  // "pid/tid" -> label
  std::vector<Span> spans;
  std::string line;
  while (std::getline(is, line)) {
    const std::string ph = field(line, "ph");
    const std::string key = field(line, "pid") + "/" + field(line, "tid");
    if (ph == "M" && field(line, "name") == "thread_name") {
      const auto args = line.find("\"args\"");
      threadNames[key] = field(line.substr(args + 8), "name");
    } else if (ph == "X") {
      Span s;
      s.category = field(line, "cat");
      s.name = field(line, "name");
      s.thread = threadNames[key];
      s.durUs = std::stod(field(line, "dur"));
      spans.push_back(std::move(s));
    }
  }
  return spans;
}

SpanTotal spanTotal(const std::vector<Span>& spans, const std::string& category,
                    const std::string& name, const std::string& threadPrefix) {
  SpanTotal t;
  for (const auto& s : spans) {
    if (s.category != category || s.name != name) continue;
    if (s.thread.compare(0, threadPrefix.size(), threadPrefix) != 0) continue;
    t.ms += s.durUs * 1e-3;
    ++t.count;
  }
  return t;
}

}  // namespace perfbench
