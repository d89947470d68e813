// Shared plumbing of the benchmark: run options, sample sets, the
// benchmark's own span log (spans around calls into the layers' public
// APIs, recorded from outside the program), self time of the program's
// existing telemetry spans, and the result report every workload fills.
#pragma once

#include <chrono>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "telemetry/telemetry.hpp"

namespace nuebench {

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  /// Traced run: per-layer metrics instead of end-to-end ones.
  bool trace = false;
  /// Self-test: feed the workload a deliberately broken input so the
  /// output checks must count failures.
  bool corrupt = false;
  /// Where the traced run writes its spans ("" = do not write).
  std::string trace_out;
};

/// One timing or count series; quantiles interpolate linearly between
/// order statistics (numpy's default).
class Samples {
 public:
  void add(double v) { v_.push_back(v); }
  std::size_t size() const { return v_.size(); }
  bool empty() const { return v_.empty(); }
  double quantile(double q) const;
  double median() const { return quantile(0.5); }
  /// Mean of the largest `share` of the samples (at least one of them).
  double top_mean(double share) const;
  double sum() const;

 private:
  std::vector<double> v_;
};

/// Spans the benchmark records around the public calls it makes: name,
/// start, end, parent span and the id of the request they serve. Kept in
/// memory and written once when the run ends.
class SpanLog {
 public:
  struct Span {
    const char* name = nullptr;  // string literal
    std::int64_t start_ns = 0;
    std::int64_t end_ns = 0;
    std::int64_t parent = -1;    // index into spans(), -1 = root
    std::uint64_t request = 0;   // 0 = not part of a request
  };

  /// RAII span; a no-op while the log is disabled.
  class Scope {
   public:
    Scope(SpanLog& log, const char* name);
    ~Scope();
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    SpanLog* log_ = nullptr;
    std::size_t index_ = 0;
  };

  void set_enabled(bool on) { enabled_ = on; }
  /// Request id stamped on every span opened from now on.
  void set_request(std::uint64_t id) { request_ = id; }

  /// Durations (ms) of the closed spans called `name`.
  Samples durations_ms(const char* name) const;
  /// Per span called `name`: its duration minus its direct children's
  /// (ms) — the time no traced call accounts for.
  Samples unattributed_ms(const char* name) const;
  void write_json(const std::string& path) const;

 private:
  bool enabled_ = false;
  std::uint64_t request_ = 0;
  std::vector<Span> spans_;
  std::vector<std::size_t> open_;  // stack of open span indices
};

/// Self time (ms) per span name of the program's collected telemetry
/// spans: a span's duration minus that of its direct children on the
/// same thread. Collects and then clears the tracer; spans the tracer
/// dropped on overflow are added to `dropped`.
std::map<std::string, double> drain_program_self_ms(std::uint64_t& dropped);

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
  std::size_t samples = 0;
};

/// What one run measured and checked.
struct Outcome {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  /// First few failure descriptions, for the log.
  std::vector<std::string> problems;
  std::vector<Metric> end_to_end;
  std::vector<Metric> per_layer;
  /// Deterministic work counts: equal across runs with the same seed.
  std::vector<std::pair<std::string, double>> counts;

  /// Count one attempted operation; record a failure unless `ok`.
  void attempt(bool ok, const std::string& why);
  void e2e(const std::string& name, double value, const std::string& unit,
           std::size_t samples);
  void layer(const std::string& name, double value, const std::string& unit,
             std::size_t samples = 1);
  void count(const std::string& name, double value);
};

/// Trace-mode bookkeeping shared by the workloads. A traced run does
/// some units of work (jobs, simulations, 16-event windows) untraced and
/// the same work again traced, so one run yields both the per-layer
/// breakdown (traced units only) and the tracing overhead (median traced
/// unit time minus median untraced unit time). In an untraced run this
/// records nothing.
class TracedUnits {
 public:
  TracedUnits(SpanLog& log, bool trace) : log_(log), trace_(trace) {}

  /// Start a unit; `traced` turns on the spans and the program's
  /// telemetry for it (ignored in an untraced run).
  void begin(bool traced);
  /// Close the unit begun last, which took `unit_ms`.
  void end(double unit_ms);
  /// A traced run has at least one traced and one untraced unit.
  bool enough() const {
    return !trace_ || (!traced_ms_.empty() && !untraced_ms_.empty());
  }
  /// telemetry.* per-layer metrics; `unit_span` names the bench span
  /// around one unit (for the unattributed time).
  void report(Outcome& out, const char* unit_span) const;

 private:
  SpanLog& log_;
  bool trace_;
  bool current_ = false;
  Samples traced_ms_, untraced_ms_;
  std::map<std::string, double> self_ms_;  // summed over traced units
  std::uint64_t dropped_ = 0;
};

/// Moves the thread that created it to the next CPU it may run on, round
/// robin, and restores the thread's affinity at once, so threads it
/// creates later still get every CPU. On a VM whose vCPUs run at
/// different speeds, a thread that stays on one vCPU reads that vCPU's
/// speed throughout a run; hopping makes every run sample all of them.
/// The workloads hop between units of work; a unit too long for that (a
/// simulation) is hopped by a helper thread every `period`.
class CpuHopper {
 public:
  /// A non-zero `period` starts the helper thread.
  explicit CpuHopper(std::chrono::milliseconds period = {});
  ~CpuHopper();
  CpuHopper(const CpuHopper&) = delete;
  CpuHopper& operator=(const CpuHopper&) = delete;

  /// Move the thread to the next CPU now.
  void hop();

 private:
  std::vector<int> cpus_;  // allowed CPUs; fewer than two = no hopping
  int tid_ = 0;            // the hopped thread
  std::mutex mu_;
  std::size_t next_ = 0;   // guarded by mu_
  bool stop_ = false;      // guarded by mu_
  std::condition_variable cv_;
  std::thread helper_;     // last: started once the fields above are set
};

/// Print the human-readable metric table (with sample counts), the
/// deterministic counts line, and last the one-line JSON result.
void print_report(const Outcome& out, bool trace);

/// Time since an arbitrary process-wide origin, in nanoseconds.
inline std::int64_t now_ns() { return nue::telemetry::now_ns(); }

inline double ms_since(std::int64_t t0_ns) {
  return static_cast<double>(now_ns() - t0_ns) / 1e6;
}

}  // namespace nuebench
