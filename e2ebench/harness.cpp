#include "harness.hpp"

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <stdexcept>

#include "util/json.hpp"

namespace e2ebench {

double Percentile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double rank = std::ceil(q * static_cast<double>(v.size()));
  const std::size_t i =
      rank < 1.0 ? 0 : static_cast<std::size_t>(rank) - 1;
  return v[std::min(i, v.size() - 1)];
}

double PeakRssMb() {
  rusage self{}, children{};
  getrusage(RUSAGE_SELF, &self);
  getrusage(RUSAGE_CHILDREN, &children);
  // ru_maxrss is in KiB on Linux.
  return static_cast<double>(std::max(self.ru_maxrss, children.ru_maxrss)) /
         1024.0;
}

double Tracer::TotalSeconds(const std::string& name) const {
  std::int64_t ns = 0;
  for (const auto& s : spans_)
    if (name == s.name) ns += s.end_ns - s.start_ns;
  return static_cast<double>(ns) * 1e-9;
}

std::vector<double> Tracer::Durations(const std::string& name) const {
  std::vector<double> out;
  for (const auto& s : spans_)
    if (name == s.name)
      out.push_back(static_cast<double>(s.end_ns - s.start_ns) * 1e-9);
  return out;
}

void Tracer::WriteChromeJson(const std::string& path) const {
  std::ofstream out(path);
  if (!out) throw std::runtime_error("cannot write " + path);
  const std::int64_t t0 = spans_.empty() ? 0 : spans_.front().start_ns;
  out << "{\"traceEvents\":[\n";
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    char line[256];
    std::snprintf(line, sizeof(line),
                  "{\"name\":\"%s\",\"ph\":\"X\",\"pid\":1,\"tid\":1,"
                  "\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"span\":%zu,"
                  "\"parent\":%d,\"id\":%llu}}%s\n",
                  s.name, static_cast<double>(s.start_ns - t0) * 1e-3,
                  static_cast<double>(s.end_ns - s.start_ns) * 1e-3, i,
                  s.parent, static_cast<unsigned long long>(s.id),
                  i + 1 < spans_.size() ? "," : "");
    out << line;
  }
  out << "]}\n";
}

Report::Report(const std::string& spec_path, bool trace) : trace_(trace) {
  std::ifstream in(spec_path);
  if (!in) throw std::runtime_error("cannot read " + spec_path);
  std::stringstream text;
  text << in.rdbuf();
  const auto spec = cldpc::util::JsonValue::Parse(text.str());
  for (const char* list : {"end_to_end", "per_layer"}) {
    const bool e2e = std::string(list) == "end_to_end";
    for (const auto& m : spec.At(list).AsArray()) {
      const std::string& name = m.At("name").AsString();
      declared_[name] = {m.At("unit").AsString(), e2e};
      if (e2e != trace_) order_.push_back(name);
    }
  }
}

void Report::Set(const std::string& name, double value,
                 const std::string& unit) {
  const auto it = declared_.find(name);
  if (it == declared_.end())
    throw std::logic_error("metric not declared in BENCHMARK.json: " + name);
  if (it->second.unit != unit)
    throw std::logic_error("metric " + name + " declared in " +
                           it->second.unit + ", measured in " + unit);
  if (!std::isfinite(value))
    throw std::logic_error("metric " + name + " is not finite");
  values_[name] = value;
}

void Report::Attr(const std::string& key, const std::string& value) {
  attrs_.emplace_back(key, value);
}

void Report::Fail(const std::string& what) {
  correct = false;
  std::fprintf(stderr, "e2ebench: correctness gate failed: %s\n",
               what.c_str());
}

void Report::Print() const {
  for (const auto& [key, value] : attrs_)
    std::printf("attr %-34s %s\n", key.c_str(), value.c_str());
  std::string json = "{\"correct\": ";
  json += correct ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(attempted);
  json += ", \"failed\": " + std::to_string(failed);
  json += ", \"metrics\": {";
  for (std::size_t i = 0; i < order_.size(); ++i) {
    const std::string& name = order_[i];
    const Declared& d = declared_.at(name);
    const auto it = values_.find(name);
    if (it == values_.end() && d.end_to_end)
      throw std::logic_error("end-to-end metric not measured: " + name);
    const double value = it == values_.end() ? 0.0 : it->second;
    std::printf("metric %-40s %.6g %s%s\n", name.c_str(), value,
                d.unit.c_str(), it == values_.end() ? " (bypassed)" : "");
    char entry[256];
    std::snprintf(entry, sizeof(entry),
                  "%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                  i == 0 ? "" : ", ", name.c_str(), value, d.unit.c_str());
    json += entry;
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  std::fflush(stdout);
}

void ReportLatency(Report& report, const std::vector<double>& ms,
                   Centre centre, const std::string& what) {
  const double p50 = Percentile(ms, 0.50);
  double mean = 0.0;
  for (const double v : ms) mean += v;
  if (!ms.empty()) mean /= static_cast<double>(ms.size());
  report.Set("latency_ms", centre == Centre::kMean ? mean : p50, "ms");
  report.Attr("latency_centre",
              centre == Centre::kMean ? "mean" : "median");
  char median[96];
  std::snprintf(median, sizeof(median), "%.4g ms", p50);
  report.Attr("latency_p50", median);
  const double n = static_cast<double>(ms.size());
  for (const double q : {0.999, 0.99, 0.95, 0.90}) {
    if (n * (1.0 - q) < 10.0) continue;
    char tail[128];
    std::snprintf(tail, sizeof(tail), "p%g = %.4g ms over %zu %s",
                  q * 100.0, Percentile(ms, q), ms.size(), what.c_str());
    report.Attr("latency_tail", tail);
    return;
  }
  report.Attr("latency_tail", "fewer than 100 " + what);
}

}  // namespace e2ebench
