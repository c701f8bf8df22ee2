// Shared plumbing of the end-to-end benchmark: clocks and order
// statistics, the in-memory span tracer, and the report that prints
// every declared metric by name with its unit.
//
// Metric names and units are declared once, in BENCHMARK.json at the
// repository root. The report reads that file, refuses a metric the
// workload sets but the file does not declare (or declares with another
// unit), and refuses to print a run that left an end-to-end metric
// unmeasured. A per-layer metric of a layer the workload does not
// exercise is printed as 0 and marked "bypassed".
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace e2ebench {

using Clock = std::chrono::steady_clock;

inline double SecondsSince(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}
inline double ToMs(Clock::duration d) {
  return std::chrono::duration<double, std::milli>(d).count();
}

/// Nearest-rank percentile (q in [0, 1]) of `v`; 0 for an empty set.
double Percentile(std::vector<double> v, double q);
inline double Median(std::vector<double> v) {
  return Percentile(std::move(v), 0.5);
}

/// Peak resident set of this process and of its largest reaped child,
/// whichever is higher, in MiB.
double PeakRssMb();

/// Command-line options every workload receives.
struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  /// Test hook: perturb one result so the workload's correctness gate
  /// must fail (the run then exits nonzero).
  bool inject_mismatch = false;
};

/// The metric declarations, and where span files and scratch state go;
/// both relative to the repository root the benchmark runs from.
inline constexpr char kSpecPath[] = "BENCHMARK.json";
inline constexpr char kOutDir[] = ".bench_out";

/// One closed span: [start, end) on the steady clock, the index of the
/// span that caused it (-1 for a root) and the frame or request id.
struct Span {
  const char* name;
  std::int64_t start_ns;
  std::int64_t end_ns;
  std::int32_t parent;
  std::uint64_t id;
};

/// Spans kept in memory and written out once, at the end of the run.
/// A disabled tracer records nothing and costs one branch per call.
class Tracer {
 public:
  explicit Tracer(bool enabled) : enabled_(enabled) {
    if (enabled_) spans_.reserve(1 << 16);
  }

  /// Open a span now; returns its index (-1 when disabled).
  std::int32_t Open(const char* name, std::int32_t parent,
                    std::uint64_t id) {
    if (!enabled_) return -1;
    spans_.push_back({name, Now(), 0, parent, id});
    return static_cast<std::int32_t>(spans_.size() - 1);
  }
  void Close(std::int32_t index) {
    if (index >= 0) spans_[static_cast<std::size_t>(index)].end_ns = Now();
  }
  /// Record a span whose bounds were measured elsewhere.
  void Add(const char* name, Clock::time_point start, Clock::time_point end,
           std::int32_t parent, std::uint64_t id) {
    if (!enabled_) return;
    spans_.push_back({name, Ns(start), Ns(end), parent, id});
  }

  /// Total duration of every span called `name`, in seconds.
  double TotalSeconds(const std::string& name) const;
  /// Duration of each span called `name`, in seconds.
  std::vector<double> Durations(const std::string& name) const;
  std::size_t size() const { return spans_.size(); }

  /// Write the spans as chrome://tracing JSON ("X" events; parent and
  /// id in args).
  void WriteChromeJson(const std::string& path) const;

 private:
  static std::int64_t Ns(Clock::time_point t) {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               t.time_since_epoch())
        .count();
  }
  static std::int64_t Now() { return Ns(Clock::now()); }

  bool enabled_;
  std::vector<Span> spans_;
};

/// Scoped span: opens on construction, closes on destruction.
class ScopedSpan {
 public:
  ScopedSpan(Tracer& tracer, const char* name, std::int32_t parent,
             std::uint64_t id)
      : tracer_(tracer), index_(tracer.Open(name, parent, id)) {}
  ~ScopedSpan() { tracer_.Close(index_); }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;
  std::int32_t index() const { return index_; }

 private:
  Tracer& tracer_;
  std::int32_t index_;
};

/// The run's outcome. Workloads Set() metrics and Attr() run
/// attributes; Print() writes the human-readable lines and, last, the
/// one-line JSON result.
class Report {
 public:
  /// Loads the declared metrics from `spec_path`; throws when the file
  /// is missing or malformed.
  Report(const std::string& spec_path, bool trace);

  void Set(const std::string& name, double value, const std::string& unit);
  void Attr(const std::string& key, const std::string& value);

  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  /// Every correctness gate of the run held.
  bool correct = true;
  /// Record a failed gate (printed on stderr; the run exits nonzero).
  void Fail(const std::string& what);

  /// Print attributes, metrics and the final JSON line. Throws when an
  /// end-to-end metric of an untraced run was not measured.
  void Print() const;

 private:
  struct Declared {
    std::string unit;
    bool end_to_end;
  };
  std::map<std::string, Declared> declared_;
  std::vector<std::string> order_;  // declaration order of this mode
  std::map<std::string, double> values_;
  std::vector<std::pair<std::string, std::string>> attrs_;
  bool trace_;
};

/// Which centre of the latency samples the end-to-end metric reports:
/// kMedian for the service's frames; kMean where the median moves in
/// jumps - the engine's back-to-back chunks, whose median jumps between
/// the host's speed states, and the shards, whose latencies fall on the
/// coordinator's 5 ms poll grid (see README.md here).
enum class Centre { kMedian, kMean };

/// Set the end-to-end latency metric latency_ms from per-sample
/// latencies (ms). The median and the tail are printed as attributes,
/// the tail at the highest of p99.9 / p99 / p95 / p90 that has at least
/// ten samples beyond it, with the sample count and `what` the samples
/// are.
void ReportLatency(Report& report, const std::vector<double>& ms,
                   Centre centre, const std::string& what);

}  // namespace e2ebench
