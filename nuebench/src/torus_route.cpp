// torus-route: a cold full routing job on the paper's Fig. 11 family —
// an 8x8x8 torus, 4 terminals per switch, 1% of the inter-switch links
// failed, Nue with 8 VLs on 4 worker threads. Set-up generates the
// fabric, injects the failures, writes it as fabric text and reads it
// back with read_fabric. One job is route_nue -> validate_routing ->
// edge_forwarding_index -> compile_ib_tables -> verify_compiled; after
// each job the benchmark queries routes through the compiled tables.
#include <cmath>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include "metrics/metrics.hpp"
#include "nue/nue_routing.hpp"
#include "routing/ib_tables.hpp"
#include "routing/validate.hpp"
#include "topology/fabric_io.hpp"
#include "topology/faults.hpp"
#include "topology/generate.hpp"
#include "util/rng.hpp"
#include "workloads.hpp"

namespace nuebench {

namespace {

constexpr const char* kFabric = "torus:8x8x8:4";
constexpr double kFailedLinkShare = 0.01;
constexpr std::uint32_t kVls = 8;
constexpr std::uint32_t kThreads = 4;
constexpr int kSetupsPerJob = 8;
constexpr std::size_t kQueriesPerJob = 1024;

std::size_t switch_links(const nue::Network& net) {
  std::size_t n = 0;
  for (nue::ChannelId c = 0; c < net.num_channels(); c += 2) {
    if (net.channel_alive(c) && net.is_switch(net.src(c)) &&
        net.is_switch(net.dst(c))) {
      ++n;
    }
  }
  return n;
}

/// Generate, fail links, write as text, read back: the fabric the job
/// sees. `faults` receives the number of links actually failed.
nue::Network build_fabric(std::uint64_t seed, SpanLog& log,
                          std::size_t& requested, std::size_t& faults) {
  nue::Network net;
  {
    SpanLog::Scope s(log, "topology.generate_topology");
    net = nue::generate_topology(kFabric).net;
  }
  requested = static_cast<std::size_t>(
      std::ceil(kFailedLinkShare * static_cast<double>(switch_links(net))));
  {
    SpanLog::Scope s(log, "topology.inject_link_failures");
    nue::Rng rng(seed);
    faults = nue::inject_link_failures(net, requested, rng);
  }
  std::ostringstream text;
  {
    SpanLog::Scope s(log, "topology.write_fabric");
    nue::write_fabric(text, net);
  }
  SpanLog::Scope s(log, "topology.read_fabric");
  std::istringstream in(text.str());
  return nue::read_fabric(in);
}

/// Point one switch's next hop toward a destination at a neighbouring
/// terminal instead: a packet there bounces back and forth forever.
void misdirect_next_hop(const nue::Network& net, nue::RoutingResult& rr) {
  const nue::NodeId dst = rr.destinations().front();
  for (nue::NodeId v = 0; v < net.num_nodes(); ++v) {
    if (!net.node_alive(v) || !net.is_switch(v)) continue;
    for (const nue::ChannelId c : net.out(v)) {
      if (net.is_terminal(net.dst(c)) && net.dst(c) != dst) {
        rr.set_next(v, 0, c);
        return;
      }
    }
  }
}

/// Work counts of one job: identical for every job on the same fabric.
struct JobCounts {
  double gamma_max = 0;
  std::size_t paths = 0;
  std::size_t lft_entries = 0;
  nue::NueStats nue;

  bool operator==(const JobCounts& o) const {
    return gamma_max == o.gamma_max && paths == o.paths &&
           lft_entries == o.lft_entries &&
           nue.fallbacks == o.nue.fallbacks &&
           nue.cycle_searches == o.nue.cycle_searches &&
           nue.cycle_search_steps == o.nue.cycle_search_steps &&
           nue.fast_accepts == o.nue.fast_accepts &&
           nue.islands_resolved == o.nue.islands_resolved &&
           nue.islands_unresolved == o.nue.islands_unresolved &&
           nue.shortcuts_taken == o.nue.shortcuts_taken;
  }
};

}  // namespace

Outcome run_torus_route(const Options& opt) {
  Outcome out;
  SpanLog log;
  CpuHopper cpus;

  // Set-up runs once before the jobs and kSetupsPerJob times after each,
  // so that its median samples the same stretch of the run as the jobs.
  Samples setup_s;
  std::size_t requested = 0, faults = 0;
  const auto set_up = [&] {
    cpus.hop();
    log.set_enabled(opt.trace);
    const std::int64_t t0 = now_ns();
    nue::Network built = build_fabric(opt.seed, log, requested, faults);
    setup_s.add(ms_since(t0) / 1e3);
    log.set_enabled(false);
    return built;
  };
  const nue::Network net = set_up();
  const std::vector<nue::NodeId> terminals = net.terminals();

  const auto pairs = query_pairs(terminals, opt.seed, kQueriesPerJob);

  nue::NueOptions nopt;
  nopt.num_vls = kVls;
  nopt.num_threads = kThreads;

  Samples job_ms, query_us;
  std::optional<JobCounts> first;
  TracedUnits units(log, opt.trace);
  const std::int64_t loop_t0 = now_ns();
  while (job_ms.empty() || !units.enough() ||
         ms_since(loop_t0) < opt.seconds * 1e3) {
    // A traced run alternates untraced and traced repeats of the same
    // job.
    cpus.hop();
    units.begin(job_ms.size() % 2 == 1);
    JobCounts counts;
    std::string problem;
    std::optional<nue::RoutingResult> rr;
    nue::ValidationReport rep;
    std::vector<std::uint64_t> gamma;
    nue::IbTables tables;
    bool verified = false;
    const std::int64_t t0 = now_ns();
    {
      // A broken table stops the job at the stage that detects it, as it
      // would stop a subnet manager: validation, or a stage that throws.
      SpanLog::Scope job(log, "job");
      try {
        {
          SpanLog::Scope s(log, "nue.route_nue");
          rr.emplace(nue::route_nue(net, terminals, nopt, &counts.nue));
        }
        if (opt.corrupt) misdirect_next_hop(net, *rr);
        {
          SpanLog::Scope s(log, "routing.validate_routing");
          rep = nue::validate_routing(net, *rr);
        }
        if (rep.ok()) {
          {
            SpanLog::Scope s(log, "metrics.edge_forwarding_index");
            gamma = nue::edge_forwarding_index(net, *rr);
          }
          {
            SpanLog::Scope s(log, "routing.compile_ib_tables");
            tables = nue::compile_ib_tables(net, *rr);
          }
          SpanLog::Scope s(log, "routing.verify_compiled");
          verified = nue::verify_compiled(net, *rr, tables);
        }
      } catch (const std::exception& e) {
        problem = e.what();
      }
    }
    const double ms = ms_since(t0);
    job_ms.add(ms);

    if (problem.empty() && !rep.ok()) {
      problem = "validate_routing: " + rep.detail;
    }
    if (problem.empty() && !verified) problem = "verify_compiled failed";
    if (problem.empty()) {
      for (const auto& [src, dst] : pairs) {
        const std::int64_t q0 = now_ns();
        try {
          SpanLog::Scope s(log, "routing.ib_walk");
          const std::vector<nue::ChannelId> path =
              nue::ib_walk(net, tables, src, dst);
          query_us.add(static_cast<double>(now_ns() - q0) / 1e3);
          if (problem.empty() &&
              (path.empty() || net.dst(path.back()) != dst)) {
            problem = "ib_walk did not reach its destination";
          }
        } catch (const std::exception& e) {
          query_us.add(static_cast<double>(now_ns() - q0) / 1e3);
          if (problem.empty()) problem = std::string("ib_walk: ") + e.what();
        }
      }
      counts.gamma_max = nue::summarize_forwarding_index(net, gamma).max;
      counts.paths = rep.num_paths;
      counts.lft_entries = tables.total_lft_entries();
      if (!first) first = counts;
      if (problem.empty() && !(counts == *first)) {
        problem = "job repeated on the same fabric did different work";
      }
    }
    units.end(ms);
    out.attempt(problem.empty(), problem);
    for (int i = 0; i < kSetupsPerJob; ++i) set_up();
  }
  const JobCounts c = first.value_or(JobCounts{});

  out.count("topology.faults_achieved", static_cast<double>(faults));
  out.count("gamma_max", c.gamma_max);
  out.count("nue.cycle_search_steps",
            static_cast<double>(c.nue.cycle_search_steps));
  out.count("nue.fallbacks", static_cast<double>(c.nue.fallbacks));
  out.count("routing.validate_paths", static_cast<double>(c.paths));
  out.count("routing.ib_lft_entries", static_cast<double>(c.lft_entries));
  if (faults != requested) {
    out.attempt(false, "only " + std::to_string(faults) + " of " +
                           std::to_string(requested) + " link failures");
  }

  if (!opt.trace) {
    out.e2e("setup_s", setup_s.median(), "s", setup_s.size());
    out.e2e("op_p50_ms", job_ms.median(), "ms", job_ms.size());
    // A run holds a handful of jobs: no tail percentile has ten of them
    // beyond it, so the tail reported is the median.
    out.e2e("op_tail_ms", job_ms.median(), "ms", job_ms.size());
    out.e2e("ops_per_s", static_cast<double>(job_ms.size()) / job_ms.sum() * 1e3,
            "1/s", job_ms.size());
    out.e2e("query_p50_us", query_us.median(), "us", query_us.size());
    out.e2e("query_p99_us", query_us.quantile(0.99), "us", query_us.size());
    return out;
  }

  out.layer("metrics.gamma_max", c.gamma_max, "count");

  const auto span_ms = [&](const char* span, const char* metric) {
    const Samples d = log.durations_ms(span);
    out.layer(metric, d.median(), "ms", d.size());
    return d.median();
  };
  span_ms("topology.generate_topology", "topology.generate_ms");
  span_ms("topology.inject_link_failures", "topology.inject_ms");
  span_ms("topology.read_fabric", "topology.fabric_read_ms");
  out.layer("topology.faults_achieved", static_cast<double>(faults), "count");
  span_ms("nue.route_nue", "nue.route_ms");
  out.layer("nue.fallbacks", static_cast<double>(c.nue.fallbacks), "count");
  out.layer("nue.cycle_searches", static_cast<double>(c.nue.cycle_searches),
            "count");
  out.layer("nue.cycle_search_steps",
            static_cast<double>(c.nue.cycle_search_steps), "count");
  out.layer("nue.fast_accepts", static_cast<double>(c.nue.fast_accepts),
            "count");
  out.layer("nue.impasses",
            static_cast<double>(c.nue.islands_resolved +
                                c.nue.islands_unresolved),
            "count");
  out.layer("nue.islands_resolved",
            static_cast<double>(c.nue.islands_resolved), "count");
  out.layer("nue.islands_unresolved",
            static_cast<double>(c.nue.islands_unresolved), "count");
  out.layer("nue.shortcuts_taken", static_cast<double>(c.nue.shortcuts_taken),
            "count");
  const double validate_ms =
      span_ms("routing.validate_routing", "routing.validate_ms");
  out.layer("routing.validate_paths", static_cast<double>(c.paths), "count");
  out.layer("routing.validate_paths_per_s",
            validate_ms > 0 ? static_cast<double>(c.paths) / validate_ms * 1e3
                            : 0.0,
            "1/s");
  span_ms("routing.compile_ib_tables", "routing.ib_compile_ms");
  span_ms("routing.verify_compiled", "routing.ib_verify_ms");
  out.layer("routing.ib_lft_entries", static_cast<double>(c.lft_entries),
            "count");
  span_ms("metrics.edge_forwarding_index", "metrics.efi_ms");
  units.report(out, "job");
  if (!opt.trace_out.empty()) log.write_json(opt.trace_out);
  return out;
}

}  // namespace nuebench
