#include "report.hpp"

#include <sched.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <functional>
#include <iostream>
#include <iterator>
#include <stdexcept>
#include <string_view>

namespace nuebench {

namespace {

struct MetricSpec {
  const char* name;
  const char* unit;
};

// Must match BENCHMARK.json's "end_to_end" list: every untraced run of
// every workload prints each of these.
constexpr MetricSpec kEndToEnd[] = {
    {"setup_s", "s"},          {"op_p50_ms", "ms"},
    {"op_tail_ms", "ms"},      {"ops_per_s", "1/s"},
    {"query_p50_us", "us"},    {"query_p99_us", "us"},
    {"peak_rss_mb", "MB"},     {"ok_share", "share"},
};

// Must match BENCHMARK.json's "per_layer" list. A layer a workload leaves
// idle reports 0 (no work, no time).
constexpr MetricSpec kPerLayer[] = {
    {"topology.generate_ms", "ms"},
    {"topology.inject_ms", "ms"},
    {"topology.faults_achieved", "count"},
    {"topology.fabric_read_ms", "ms"},
    {"topology.trace_draw_ms", "ms"},
    {"nue.route_ms", "ms"},
    {"nue.fallbacks", "count"},
    {"nue.cycle_searches", "count"},
    {"nue.cycle_search_steps", "count"},
    {"nue.fast_accepts", "count"},
    {"nue.impasses", "count"},
    {"nue.islands_resolved", "count"},
    {"nue.islands_unresolved", "count"},
    {"nue.shortcuts_taken", "count"},
    {"routing.validate_ms", "ms"},
    {"routing.validate_paths", "count"},
    {"routing.validate_paths_per_s", "1/s"},
    {"routing.ib_compile_ms", "ms"},
    {"routing.ib_verify_ms", "ms"},
    {"routing.ib_lft_entries", "count"},
    {"metrics.efi_ms", "ms"},
    {"metrics.gamma_max", "count"},
    {"resilience.noops", "count"},
    {"resilience.hitless", "count"},
    {"resilience.drains", "count"},
    {"resilience.wave_chains", "count"},
    {"resilience.wave_commits", "count"},
    {"resilience.affected_dests", "count"},
    {"resilience.step.incremental", "count"},
    {"resilience.step.full-recompute", "count"},
    {"resilience.step.more-vls", "count"},
    {"resilience.step.nue-fallback", "count"},
    {"resilience.step.noop", "count"},
    {"resilience.repair_p50_ms", "ms"},
    {"resilience.repair_p99_ms", "ms"},
    {"service.load_ms", "ms"},
    {"service.json_parse_us", "us"},
    {"service.json_dump_us", "us"},
    {"service.scrape_ms", "ms"},
    {"service.event_overhead_ms", "ms"},
    {"sim.traffic_ms", "ms"},
    {"sim.events_processed", "count"},
    {"sim.queue_peak", "count"},
    {"sim.flit_hops", "count"},
    {"sim.cycles", "count"},
    {"sim.delivered_packets", "count"},
    {"sim.events_per_s", "1/s"},
    {"sim.flit_hops_per_s", "1/s"},
    {"sim.throughput", "share"},
    {"telemetry.overhead", "ms"},
    {"telemetry.unattributed_ms", "ms"},
    {"telemetry.dropped_spans", "count"},
    {"telemetry.self.nue.dest", "ms"},
    {"telemetry.self.nue.escape_root", "ms"},
    {"telemetry.self.nue.escape_paths", "ms"},
    {"telemetry.self.nue.reroute", "ms"},
    {"telemetry.self.validate.routing", "ms"},
    {"telemetry.self.validate.columns", "ms"},
    {"telemetry.self.validate.union_gate", "ms"},
    {"telemetry.self.resilience.wave_schedule", "ms"},
    {"telemetry.self.sim.run", "ms"},
};

/// Shortest decimal form that reads back as the same double.
std::string number(double v) {
  if (!std::isfinite(v)) {
    throw std::logic_error("non-finite metric value");
  }
  char buf[40];
  if (v == std::floor(v) && std::fabs(v) < 1e15) {
    std::snprintf(buf, sizeof(buf), "%.0f", v);
    return buf;
  }
  for (int prec = 1; prec <= 17; ++prec) {
    std::snprintf(buf, sizeof(buf), "%.*g", prec, v);
    if (std::strtod(buf, nullptr) == v) break;
  }
  return buf;
}

std::string quoted(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    out += c;
  }
  return out + "\"";
}

/// The metrics of `specs`, in order, taken from `have`; missing ones
/// default to 0 when `idle_is_zero`, else they are a benchmark bug.
std::vector<Metric> complete(const std::vector<Metric>& have,
                             const MetricSpec* specs, std::size_t n,
                             bool idle_is_zero) {
  for (const Metric& m : have) {
    const bool known = std::any_of(specs, specs + n, [&](const MetricSpec& s) {
      return m.name == s.name && m.unit == s.unit;
    });
    if (!known) throw std::logic_error("undeclared metric " + m.name);
  }
  std::vector<Metric> out;
  for (std::size_t i = 0; i < n; ++i) {
    const auto it = std::find_if(have.begin(), have.end(), [&](const Metric& m) {
      return m.name == specs[i].name;
    });
    if (it != have.end()) {
      out.push_back(*it);
    } else if (idle_is_zero) {
      out.push_back({specs[i].name, 0.0, specs[i].unit, 0});
    } else {
      throw std::logic_error(std::string("workload did not measure ") +
                             specs[i].name);
    }
  }
  return out;
}

// The program's own telemetry spans whose self time a traced run reports
// (the benchmark adds no tracing inside the program).
constexpr const char* kProgramSpans[] = {
    "nue.dest",         "nue.escape_root",     "nue.escape_paths",
    "nue.reroute",      "validate.routing",    "validate.columns",
    "validate.union_gate", "resilience.wave_schedule", "sim.run",
};

}  // namespace

double Samples::quantile(double q) const {
  if (v_.empty()) return 0.0;
  std::vector<double> s = v_;
  std::sort(s.begin(), s.end());
  const double rank = q * static_cast<double>(s.size() - 1);
  const auto lo = static_cast<std::size_t>(rank);
  const std::size_t hi = std::min(lo + 1, s.size() - 1);
  return s[lo] + (rank - static_cast<double>(lo)) * (s[hi] - s[lo]);
}

double Samples::top_mean(double share) const {
  if (v_.empty()) return 0.0;
  std::vector<double> s = v_;
  std::sort(s.begin(), s.end(), std::greater<>());
  const auto n = std::max<std::size_t>(
      1, static_cast<std::size_t>(share * static_cast<double>(s.size())));
  double total = 0.0;
  for (std::size_t i = 0; i < n; ++i) total += s[i];
  return total / static_cast<double>(n);
}

double Samples::sum() const {
  double total = 0.0;
  for (const double v : v_) total += v;
  return total;
}

SpanLog::Scope::Scope(SpanLog& log, const char* name) {
  if (!log.enabled_) return;
  log_ = &log;
  index_ = log.spans_.size();
  Span s;
  s.name = name;
  s.start_ns = now_ns();
  s.parent = log.open_.empty() ? -1
                               : static_cast<std::int64_t>(log.open_.back());
  s.request = log.request_;
  log.spans_.push_back(s);
  log.open_.push_back(index_);
}

SpanLog::Scope::~Scope() {
  if (log_ == nullptr) return;
  log_->spans_[index_].end_ns = now_ns();
  log_->open_.pop_back();
}

Samples SpanLog::durations_ms(const char* name) const {
  Samples out;
  for (const Span& s : spans_) {
    if (std::string_view(s.name) == name) {
      out.add(static_cast<double>(s.end_ns - s.start_ns) / 1e6);
    }
  }
  return out;
}

Samples SpanLog::unattributed_ms(const char* name) const {
  std::vector<std::int64_t> child_ns(spans_.size(), 0);
  for (const Span& s : spans_) {
    if (s.parent >= 0) child_ns[s.parent] += s.end_ns - s.start_ns;
  }
  Samples out;
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    if (std::string_view(spans_[i].name) != name) continue;
    const std::int64_t dur = spans_[i].end_ns - spans_[i].start_ns;
    out.add(static_cast<double>(dur - child_ns[i]) / 1e6);
  }
  return out;
}

void SpanLog::write_json(const std::string& path) const {
  std::ofstream os(path);
  if (!os) throw std::runtime_error("cannot write span log " + path);
  os << "{\"spans\": [\n";
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    os << "  {\"id\": " << i << ", \"name\": " << quoted(s.name)
       << ", \"start_ns\": " << s.start_ns << ", \"end_ns\": " << s.end_ns
       << ", \"parent\": " << s.parent << ", \"request\": " << s.request
       << "}" << (i + 1 < spans_.size() ? "," : "") << "\n";
  }
  os << "]}\n";
}

std::map<std::string, double> drain_program_self_ms(std::uint64_t& dropped) {
  auto& tracer = nue::telemetry::Tracer::instance();
  dropped += tracer.dropped();
  // Sorted by (thread, start, longest first): parents precede children.
  const std::vector<nue::telemetry::Span> spans = tracer.snapshot();
  std::vector<std::int64_t> child_ns(spans.size(), 0);
  std::vector<std::size_t> open;
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const auto& s = spans[i];
    while (!open.empty()) {
      const auto& top = spans[open.back()];
      if (top.tid == s.tid && top.start_ns + top.dur_ns > s.start_ns) break;
      open.pop_back();
    }
    if (!open.empty()) child_ns[open.back()] += s.dur_ns;
    open.push_back(i);
  }
  std::map<std::string, double> self_ms;
  for (std::size_t i = 0; i < spans.size(); ++i) {
    self_ms[spans[i].name] +=
        static_cast<double>(spans[i].dur_ns - child_ns[i]) / 1e6;
  }
  tracer.reset();
  return self_ms;
}

void TracedUnits::begin(bool traced) {
  current_ = trace_ && traced;
  log_.set_enabled(current_);
  nue::telemetry::set_enabled(current_);
}

void TracedUnits::end(double unit_ms) {
  if (!trace_) return;
  if (current_) {
    traced_ms_.add(unit_ms);
    for (const auto& [name, ms] : drain_program_self_ms(dropped_)) {
      self_ms_[name] += ms;
    }
  } else {
    untraced_ms_.add(unit_ms);
  }
  log_.set_enabled(false);
  nue::telemetry::set_enabled(false);
}

void TracedUnits::report(Outcome& out, const char* unit_span) const {
  out.layer("telemetry.overhead",
            traced_ms_.median() - untraced_ms_.median(), "ms",
            traced_ms_.size() + untraced_ms_.size());
  const Samples gap = log_.unattributed_ms(unit_span);
  out.layer("telemetry.unattributed_ms", gap.median(), "ms", gap.size());
  out.layer("telemetry.dropped_spans", static_cast<double>(dropped_),
            "count");
  const auto units = static_cast<double>(traced_ms_.size());
  for (const char* name : kProgramSpans) {
    const auto it = self_ms_.find(name);
    const double total = it == self_ms_.end() ? 0.0 : it->second;
    out.layer(std::string("telemetry.self.") + name,
              units > 0 ? total / units : 0.0, "ms", traced_ms_.size());
  }
}

CpuHopper::CpuHopper(std::chrono::milliseconds period) : tid_(gettid()) {
  cpu_set_t allowed;
  CPU_ZERO(&allowed);
  if (sched_getaffinity(0, sizeof(allowed), &allowed) != 0) return;
  for (int c = 0; c < CPU_SETSIZE; ++c) {
    if (CPU_ISSET(c, &allowed)) cpus_.push_back(c);
  }
  if (cpus_.size() < 2 || period.count() <= 0) return;
  helper_ = std::thread([this, period] {
    std::unique_lock<std::mutex> lock(mu_);
    while (!cv_.wait_for(lock, period, [this] { return stop_; })) {
      lock.unlock();
      hop();
      lock.lock();
    }
  });
}

CpuHopper::~CpuHopper() {
  if (!helper_.joinable()) return;
  {
    std::lock_guard<std::mutex> lock(mu_);
    stop_ = true;
  }
  cv_.notify_one();
  helper_.join();
}

void CpuHopper::hop() {
  if (cpus_.size() < 2) return;
  cpu_set_t one, all;
  CPU_ZERO(&one);
  CPU_ZERO(&all);
  for (const int c : cpus_) CPU_SET(c, &all);
  {
    std::lock_guard<std::mutex> lock(mu_);
    CPU_SET(cpus_[next_++ % cpus_.size()], &one);
  }
  // Restricting the mask migrates the thread at once; restoring it
  // leaves the thread where it landed.
  if (sched_setaffinity(tid_, sizeof(one), &one) == 0) {
    sched_setaffinity(tid_, sizeof(all), &all);
  }
}

void Outcome::attempt(bool ok, const std::string& why) {
  ++attempted;
  if (ok) return;
  ++failed;
  if (problems.size() < 8) problems.push_back(why);
}

void Outcome::e2e(const std::string& name, double value,
                  const std::string& unit, std::size_t samples) {
  end_to_end.push_back({name, value, unit, samples});
}

void Outcome::layer(const std::string& name, double value,
                    const std::string& unit, std::size_t samples) {
  per_layer.push_back({name, value, unit, samples});
}

void Outcome::count(const std::string& name, double value) {
  counts.emplace_back(name, value);
}

void print_report(const Outcome& out, bool trace) {
  const std::vector<Metric> metrics =
      trace ? complete(out.per_layer, kPerLayer, std::size(kPerLayer), true)
            : complete(out.end_to_end, kEndToEnd, std::size(kEndToEnd),
                       false);
  for (const std::string& p : out.problems) {
    std::cerr << "nuebench: check failed: " << p << "\n";
  }
  std::printf("%-42s %16s %-6s %8s\n", "metric", "value", "unit", "samples");
  for (const Metric& m : metrics) {
    std::printf("%-42s %16.6g %-6s %8zu\n", m.name.c_str(), m.value,
                m.unit.c_str(), m.samples);
  }
  std::printf("attempted %llu failed %llu\n",
              static_cast<unsigned long long>(out.attempted),
              static_cast<unsigned long long>(out.failed));
  std::string counts = "counts {";
  for (std::size_t i = 0; i < out.counts.size(); ++i) {
    counts += (i ? ", " : "") + quoted(out.counts[i].first) + ": " +
              number(out.counts[i].second);
  }
  std::printf("%s}\n", counts.c_str());

  const bool correct = out.failed == 0 && out.attempted > 0;
  std::string line = std::string("{\"correct\": ") +
                     (correct ? "true" : "false") +
                     ", \"attempted\": " + std::to_string(out.attempted) +
                     ", \"failed\": " + std::to_string(out.failed) +
                     ", \"metrics\": {";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    line += (i ? ", " : "") + quoted(metrics[i].name) + ": {\"value\": " +
            number(metrics[i].value) + ", \"unit\": " +
            quoted(metrics[i].unit) + "}";
  }
  std::printf("%s}}\n", line.c_str());
  std::fflush(stdout);
}

}  // namespace nuebench
