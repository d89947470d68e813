// dragonfly-sim: the paper's Fig. 10 experiment on dragonfly:8:4:4:17
// (136 switches, 544 terminals). Set-up builds the fabric, routes it with
// Nue at 4 VLs and validates the tables; the measured job is one run of
// the event-driven simulator over an all-to-all shift exchange (128
// evenly spaced shift phases in an order drawn from the seed, 2048-byte
// messages). After each simulation the benchmark queries routes from the
// routing table.
#include <optional>
#include <string>
#include <vector>

#include "metrics/metrics.hpp"
#include "nue/nue_routing.hpp"
#include "routing/validate.hpp"
#include "sim/flit_sim.hpp"
#include "topology/generate.hpp"
#include "util/rng.hpp"
#include "util/thread_pool.hpp"
#include "workloads.hpp"

namespace nuebench {

namespace {

constexpr const char* kFabric = "dragonfly:8:4:4:17";
constexpr std::uint32_t kVls = 4;
constexpr std::uint32_t kShifts = 128;
constexpr std::uint32_t kMessageBytes = 2048;
constexpr int kSetupsPerJob = 2;
constexpr std::size_t kQueriesPerJob = 1024;

/// All-to-all shift exchange: in phase s every terminal i sends one
/// message to terminal (i + s) mod T. The kShifts shift distances are
/// evenly spaced over [1, T) as in the paper's sampled exchange; the seed
/// draws the order of the phases.
std::vector<nue::Message> shift_exchange(const std::vector<nue::NodeId>& t,
                                         std::uint64_t seed) {
  const std::size_t n = t.size();
  std::vector<std::size_t> shifts(kShifts);
  for (std::size_t k = 0; k < kShifts; ++k) shifts[k] = 1 + k * (n - 1) / kShifts;
  nue::Rng rng(seed);
  rng.shuffle(shifts);
  std::vector<nue::Message> msgs;
  msgs.reserve(kShifts * n);
  for (const std::size_t s : shifts) {
    for (std::size_t i = 0; i < n; ++i) {
      msgs.push_back({t[i], t[(i + s) % n], kMessageBytes});
    }
  }
  return msgs;
}

bool same_work(const nue::SimResult& a, const nue::SimResult& b) {
  return a.cycles == b.cycles && a.delivered_packets == b.delivered_packets &&
         a.flit_hops == b.flit_hops &&
         a.events_processed == b.events_processed &&
         a.queue_peak == b.queue_peak &&
         a.normalized_throughput == b.normalized_throughput;
}

}  // namespace

Outcome run_dragonfly_sim(const Options& opt) {
  Outcome out;
  SpanLog log;
  // A simulation is too long a unit to hop between: hop every 250 ms. The
  // shared worker pool starts first, so its threads cannot inherit the
  // one-CPU mask a hop sets for an instant.
  nue::ThreadPool::shared();
  const CpuHopper cpus(std::chrono::milliseconds(250));

  nue::NueOptions nopt;
  nopt.num_vls = kVls;
  nopt.num_threads = 1;

  // Set-up (build, route, validate) runs once before the simulations and
  // kSetupsPerJob times after each, so that its median samples the same
  // stretch of the run as the simulations.
  Samples setup_s;
  nue::Network net;
  std::optional<nue::RoutingResult> rr;
  nue::NueStats stats;
  nue::ValidationReport rep;
  const auto set_up = [&] {
    log.set_enabled(opt.trace);
    const std::int64_t t0 = now_ns();
    {
      SpanLog::Scope s(log, "topology.generate_topology");
      net = nue::generate_topology(kFabric).net;
    }
    stats = nue::NueStats{};
    {
      SpanLog::Scope s(log, "nue.route_nue");
      rr.emplace(nue::route_nue(net, net.terminals(), nopt, &stats));
    }
    {
      SpanLog::Scope s(log, "routing.validate_routing");
      rep = nue::validate_routing(net, *rr);
    }
    setup_s.add(ms_since(t0) / 1e3);
    out.attempt(rep.ok(), "validate_routing: " + rep.detail);
    log.set_enabled(false);
  };
  set_up();
  const double gamma_max =
      nue::summarize_forwarding_index(net,
                                      nue::edge_forwarding_index(net, *rr))
          .max;

  const std::vector<nue::NodeId> terminals = net.terminals();
  const std::int64_t traffic_t0 = now_ns();
  const std::vector<nue::Message> msgs = shift_exchange(terminals, opt.seed);
  const double traffic_ms = ms_since(traffic_t0);

  const auto pairs = query_pairs(terminals, opt.seed, kQueriesPerJob);

  const nue::SimConfig cfg;
  Samples sim_ms, query_us;
  std::optional<nue::SimResult> first;
  TracedUnits units(log, opt.trace);
  const std::int64_t loop_t0 = now_ns();
  while (sim_ms.empty() || !units.enough() ||
         ms_since(loop_t0) < opt.seconds * 1e3) {
    // A traced run alternates untraced and traced repeats of the same
    // simulation.
    units.begin(sim_ms.size() % 2 == 1);
    nue::SimResult res;
    std::string problem;
    const std::int64_t t0 = now_ns();
    {
      SpanLog::Scope job(log, "job");
      try {
        SpanLog::Scope s(log, "sim.simulate");
        res = nue::simulate(net, *rr, msgs, cfg);
      } catch (const std::exception& e) {
        problem = std::string("simulate: ") + e.what();
      }
    }
    const double ms = ms_since(t0);
    sim_ms.add(ms);
    units.end(ms);

    // Every message fits one packet (2048 bytes = one MTU), so every
    // injected packet must come out: a shortfall is a failed packet.
    const std::uint64_t injected = msgs.size();
    const std::uint64_t lost =
        injected - std::min<std::uint64_t>(res.delivered_packets, injected);
    if (problem.empty() && (!res.completed || res.deadlocked)) {
      problem = res.deadlocked ? "simulation deadlocked"
                               : "simulation did not complete";
    }
    if (problem.empty() && first && !same_work(res, *first)) {
      problem = "a repeated simulation did different work";
    }
    if (!first && problem.empty()) first = res;
    out.attempted += injected;
    out.failed += problem.empty() ? lost : injected;
    if (!problem.empty() && out.problems.size() < 8) {
      out.problems.push_back(problem);
    }

    for (const auto& [src, dst] : pairs) {
      const std::int64_t q0 = now_ns();
      std::vector<nue::ChannelId> path;
      try {
        path = rr->trace(net, src, dst);
      } catch (const std::exception&) {
      }
      query_us.add(static_cast<double>(now_ns() - q0) / 1e3);
      out.attempt(!path.empty() && net.dst(path.back()) == dst,
                  "no route " + std::to_string(src) + "->" +
                      std::to_string(dst));
    }
    for (int i = 0; i < kSetupsPerJob; ++i) set_up();
  }
  const nue::SimResult r = first.value_or(nue::SimResult{});

  out.count("gamma_max", gamma_max);
  out.count("nue.cycle_search_steps",
            static_cast<double>(stats.cycle_search_steps));
  out.count("routing.validate_paths", static_cast<double>(rep.num_paths));
  out.count("sim.events_processed", static_cast<double>(r.events_processed));
  out.count("sim.flit_hops", static_cast<double>(r.flit_hops));
  out.count("sim_throughput", r.normalized_throughput);

  if (!opt.trace) {
    out.e2e("setup_s", setup_s.median(), "s", setup_s.size());
    out.e2e("op_p50_ms", sim_ms.median(), "ms", sim_ms.size());
    // A run holds a handful of simulations: no tail percentile has ten
    // of them beyond it, so the tail reported is the median.
    out.e2e("op_tail_ms", sim_ms.median(), "ms", sim_ms.size());
    out.e2e("ops_per_s", static_cast<double>(sim_ms.size()) / sim_ms.sum() * 1e3,
            "1/s", sim_ms.size());
    out.e2e("query_p50_us", query_us.median(), "us", query_us.size());
    out.e2e("query_p99_us", query_us.quantile(0.99), "us", query_us.size());
    return out;
  }

  out.layer("metrics.gamma_max", gamma_max, "count");

  const auto span_ms = [&](const char* span, const char* metric) {
    const Samples d = log.durations_ms(span);
    out.layer(metric, d.median(), "ms", d.size());
    return d.median();
  };
  span_ms("topology.generate_topology", "topology.generate_ms");
  span_ms("nue.route_nue", "nue.route_ms");
  out.layer("nue.fallbacks", static_cast<double>(stats.fallbacks), "count");
  out.layer("nue.cycle_searches", static_cast<double>(stats.cycle_searches),
            "count");
  out.layer("nue.cycle_search_steps",
            static_cast<double>(stats.cycle_search_steps), "count");
  out.layer("nue.fast_accepts", static_cast<double>(stats.fast_accepts),
            "count");
  out.layer("nue.impasses",
            static_cast<double>(stats.islands_resolved +
                                stats.islands_unresolved),
            "count");
  out.layer("nue.islands_resolved", static_cast<double>(stats.islands_resolved),
            "count");
  out.layer("nue.islands_unresolved",
            static_cast<double>(stats.islands_unresolved), "count");
  out.layer("nue.shortcuts_taken", static_cast<double>(stats.shortcuts_taken),
            "count");
  const double validate_ms =
      span_ms("routing.validate_routing", "routing.validate_ms");
  out.layer("routing.validate_paths", static_cast<double>(rep.num_paths),
            "count");
  out.layer("routing.validate_paths_per_s",
            validate_ms > 0 ? static_cast<double>(rep.num_paths) /
                                  validate_ms * 1e3
                            : 0.0,
            "1/s");
  out.layer("sim.traffic_ms", traffic_ms, "ms");
  const double sim_s = log.durations_ms("sim.simulate").median() / 1e3;
  const auto sim_count = [&](const char* name, std::uint64_t v) {
    out.layer(name, static_cast<double>(v), "count");
  };
  sim_count("sim.events_processed", r.events_processed);
  sim_count("sim.queue_peak", r.queue_peak);
  sim_count("sim.flit_hops", r.flit_hops);
  sim_count("sim.cycles", r.cycles);
  sim_count("sim.delivered_packets", r.delivered_packets);
  out.layer("sim.events_per_s",
            sim_s > 0 ? static_cast<double>(r.events_processed) / sim_s : 0.0,
            "1/s");
  out.layer("sim.flit_hops_per_s",
            sim_s > 0 ? static_cast<double>(r.flit_hops) / sim_s : 0.0, "1/s");
  out.layer("sim.throughput", r.normalized_throughput, "share");
  units.report(out, "job");
  if (!opt.trace_out.empty()) log.write_json(opt.trace_out);
  return out;
}

}  // namespace nuebench
