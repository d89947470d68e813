// daemon-storm: one closed-loop client driving service::ManagerService::
// handle in-process (no socket) through a drawn fault/repair storm on
// torus:4x4x4:2 under the Nue repair policy of `bench_reconfig --storm`
// (2 VLs, up to 4, 1 thread, 256 retained log records). Every request
// goes through its wire form: the client dumps it, the service side
// parses it with Json::parse, and the response is serialized with dump().
//
// Set-up loads the fabric. The run drives 256-event storms, each drawn
// from its own seed and driven on a freshly loaded service, one after
// another. For each event it sends the `event` request followed by 8
// `route` queries between distinct terminals alive at that epoch (the
// benchmark mirrors every event onto its own copy of the fabric to know
// which), and after every 16 events one `metrics` and one `journal`
// scrape. It stops at the first 16-event window boundary past the
// measured time; the repair work of the first storm is the run's
// deterministic work count.
#include <limits>
#include <utility>
#include <sstream>
#include <string>
#include <vector>

#include "metrics/metrics.hpp"
#include "resilience/resilience.hpp"
#include "routing/dump.hpp"
#include "service/service.hpp"
#include "topology/faults.hpp"
#include "topology/generate.hpp"
#include "util/rng.hpp"
#include "workloads.hpp"

namespace nuebench {

namespace {

using nue::service::Json;

constexpr const char* kFabric = "torus:4x4x4:2";
/// Events per storm. A run drives storms from independent seeds one
/// after another, each on a freshly loaded service, so that its events
/// average over several short storms instead of following one random
/// walk of the failed set for its whole length.
constexpr std::size_t kStormEvents = 256;
/// Events whose repair work is the run's deterministic count: storm 0.
constexpr std::size_t kCountedEvents = kStormEvents;
constexpr double kRestoreShare = 0.5;
constexpr std::size_t kQueriesPerEvent = 8;
constexpr std::size_t kScrapeEvery = 16;
/// Loads before the storms, and one more every kLoadEvery windows during
/// them, so that the median load samples the same stretch of the run as
/// the storms.
constexpr int kSetups = 8;
constexpr std::size_t kLoadEvery = 4;
constexpr const char* kSteps[] = {"incremental", "full-recompute", "more-vls",
                                  "nue-fallback", "noop"};

nue::resilience::RepairPolicy repair_policy() {
  nue::resilience::RepairPolicy p;
  p.engine = nue::resilience::Engine::kNue;
  p.vls = 2;
  p.max_vls = 4;
  p.num_threads = 1;
  p.log_max_records = 256;
  return p;
}

Json load_request(const char* name) {
  const nue::resilience::RepairPolicy p = repair_policy();
  Json r = Json::object();
  r.set("op", "load");
  r.set("fabric", name);
  r.set("generate", kFabric);
  r.set("engine", "nue");
  r.set("vls", p.vls);
  r.set("max_vls", p.max_vls);
  r.set("seed", p.seed);
  r.set("threads", p.num_threads);
  r.set("log_max_records", static_cast<std::uint64_t>(p.log_max_records));
  return r;
}

Json op_request(const char* op) {
  Json r = Json::object();
  r.set("op", op);
  return r;
}

/// Repair work, from the event responses.
struct RepairCounts {
  std::size_t noops = 0, hitless = 0, drains = 0;
  std::size_t wave_chains = 0, wave_commits = 0, affected_dests = 0;
  std::size_t steps[std::size(kSteps)] = {};

  void add(const Json& resp) {
    const std::string step = resp.str("step");
    for (std::size_t s = 0; s < std::size(kSteps); ++s) {
      if (step == kSteps[s]) ++steps[s];
    }
    if (step == "noop") ++noops;
    if (resp.boolean("hitless")) ++hitless;
    if (resp.boolean("drained")) ++drains;
    if (resp.num("waves") > 0) {
      ++wave_chains;
      wave_commits += static_cast<std::size_t>(resp.num("waves"));
    }
    affected_dests += static_cast<std::size_t>(resp.num("affected_dests"));
  }
};

/// The client side of the closed loop: every request in wire form,
/// timed from the first byte the client writes to the last it reads.
class Client {
 public:
  Client(nue::service::ManagerService& svc, SpanLog& log)
      : svc_(svc), log_(log) {}

  Json call(Json req, const char* span, double& ms) {
    req.set("req_id", ++next_id_);
    log_.set_request(next_id_);
    const std::int64_t t0 = now_ns();
    Json resp;
    {
      SpanLog::Scope request(log_, span);
      std::string wire;
      {
        SpanLog::Scope s(log_, "service.json_dump_request");
        wire = req.dump();
      }
      Json parsed;
      {
        SpanLog::Scope s(log_, "service.json_parse");
        parsed = Json::parse(wire);
      }
      {
        SpanLog::Scope s(log_, "service.handle");
        resp = svc_.handle(parsed);
      }
      SpanLog::Scope s(log_, "service.json_dump");
      resp.dump();
    }
    ms = ms_since(t0);
    log_.set_request(0);
    return resp;
  }

 private:
  nue::service::ManagerService& svc_;
  SpanLog& log_;
  std::uint64_t next_id_ = 0;
};

/// A route reply is right when it walks channels alive in the mirrored
/// fabric, hop by hop, from src to dst.
bool route_reply_ok(const Json& resp, const nue::Network& mirror,
                    nue::NodeId src, nue::NodeId dst) {
  if (!resp.boolean("ok")) return false;
  const Json* nodes = resp.find("nodes");
  const Json* channels = resp.find("channels");
  if (nodes == nullptr || channels == nullptr ||
      nodes->items().size() != channels->items().size() + 1 ||
      nodes->items().front().as_number() != src ||
      nodes->items().back().as_number() != dst) {
    return false;
  }
  for (std::size_t i = 0; i < channels->items().size(); ++i) {
    const double c = channels->items()[i].as_number();
    if (c < 0 || c >= static_cast<double>(mirror.num_channels())) return false;
    const auto ch = static_cast<nue::ChannelId>(c);
    if (!mirror.channel_alive(ch) ||
        mirror.src(ch) != nodes->items()[i].as_number() ||
        mirror.dst(ch) != nodes->items()[i + 1].as_number()) {
      return false;
    }
  }
  return true;
}

}  // namespace

Outcome run_daemon_storm(const Options& opt) {
  Outcome out;
  SpanLog log;
  TracedUnits units(log, opt.trace);
  CpuHopper cpus;

  Samples setup_s, trace_draw_ms;
  Samples event_ms, one_epoch_ms, route_us, scrape_ms, repair_ms, overhead_ms;
  RepairCounts all, counted;
  std::map<std::string, double> nue_counters;  // traced windows, summed

  // Storm k is drawn on the pristine fabric from its own seed; storm 0
  // from the run's seed. Drawn when first driven.
  std::vector<nue::FaultTrace> storms;
  const auto storm = [&](std::size_t k) -> const nue::FaultTrace& {
    while (storms.size() <= k) {
      const std::int64_t t0 = now_ns();
      storms.push_back(nue::draw_fault_trace(
          nue::generate_topology(kFabric).net, kFabric,
          opt.seed ^ (storms.size() * 0x9E3779B97F4A7C15ULL), kStormEvents,
          kRestoreShare));
      trace_draw_ms.add(ms_since(t0));
      if (storms.back().events.size() != kStormEvents) {
        out.attempt(false, "fault trace drew only " +
                               std::to_string(storms.back().events.size()) +
                               " events");
        storms.back().events.resize(kStormEvents);
      }
    }
    return storms[k];
  };

  // One set-up: the `load` request, which builds the fabric and routes
  // the initial table.
  const auto set_up = [&](Client& client) {
    double ms = 0;
    const Json resp = client.call(load_request("storm"),
                                  "client.load", ms);
    setup_s.add(ms / 1e3);
    out.attempt(resp.boolean("ok"), "load: " + resp.str("error"));
  };
  const auto throwaway_load = [&] {
    cpus.hop();
    nue::service::ManagerService svc;
    Client client(svc, log);
    set_up(client);
  };
  for (int i = 0; i < kSetups; ++i) throwaway_load();

  // Drive storms 0, 1, ... in turn, each from its first event through a
  // freshly loaded service, in 16-event windows, until `max_events` or,
  // once past the counted prefix, `seconds`. Returns the events driven
  // and the summed latency of all their requests (s); after the timed
  // loop, checks each storm's final tables against an offline replay.
  std::vector<std::string> expect_tables;  // per storm, once computed
  double gamma_max = 0;
  struct Driven {
    std::size_t events;  // the storm's prefix that was driven
    std::string tables;  // the service's final `tables` dump
  };
  const auto drive = [&](bool traced, std::size_t max_events,
                         double seconds) {
    // A traced run takes its per-layer samples from the traced drive.
    const bool sample = !opt.trace || traced;
    nue::Rng qrng(opt.seed ^ 0x51ED2701ULL);
    std::size_t events = 0;
    double busy_ms = 0;
    std::vector<Driven> driven;  // per storm
    const std::int64_t loop_t0 = now_ns();
    for (std::size_t k = 0; events < max_events; ++k) {
      if (events >= kCountedEvents && ms_since(loop_t0) >= seconds * 1e3) {
        break;
      }
      const nue::FaultTrace& trace = storm(k);
      nue::service::ManagerService svc;
      Client client(svc, log);
      set_up(client);
      if (opt.corrupt) {
        double ms = 0;
        client.call(load_request("removed"), "client.load", ms);
        Json unload = op_request("unload");
        unload.set("fabric", "removed");
        client.call(unload, "client.unload", ms);
      }
      nue::Network mirror = nue::generate_topology(kFabric).net;
      const std::size_t first = events;
      double window_ms = 0;
      while (events < max_events && events - first < kStormEvents) {
        if (events % kScrapeEvery == 0) {
          if (events >= kCountedEvents &&
              ms_since(loop_t0) >= seconds * 1e3) {
            break;
          }
          cpus.hop();
          units.begin(traced);
          if (traced) nue::telemetry::Registry::instance().reset();
          window_ms = 0;
        }
        const std::size_t i = events++;
        const nue::FaultEvent& e = trace.events[i - first];
        Json req = op_request("event");
        req.set("fabric", "storm");
        req.set("kind", nue::fault_event_name(e.kind));
        req.set("id", e.id);
        double ms = 0;
        const Json resp = client.call(req, "client.event", ms);
        window_ms += ms;
        const bool drained = resp.boolean("drained");
        out.attempt(resp.boolean("ok") && !drained,
                    "event " + e.label() + ": " +
                        (drained ? std::string("drained")
                                 : resp.str("error")));
        if (sample) {
          all.add(resp);
          if (i < kCountedEvents) counted.add(resp);
          event_ms.add(ms);
          if (resp.str("step") == "incremental" && resp.num("waves") == 0) {
            one_epoch_ms.add(ms);
          }
          if (resp.str("step") != "noop") {
            repair_ms.add(resp.num("repair_ms"));
            overhead_ms.add(ms - resp.num("repair_ms"));
          }
        }

        {
          SpanLog::Scope s(log, "topology.apply_fault_event");
          nue::apply_fault_event(mirror, e);
        }
        const std::vector<nue::NodeId> alive = mirror.terminals();
        for (std::size_t q = 0; q < kQueriesPerEvent; ++q) {
          nue::NodeId src = 0, dst = 0;
          do {
            src = alive[qrng.next_below(alive.size())];
            dst = alive[qrng.next_below(alive.size())];
          } while (src == dst);
          Json rq = op_request("route");
          rq.set("fabric", opt.corrupt && q == 0 && i % kScrapeEvery == 0
                               ? "removed"
                               : "storm");
          rq.set("src", src);
          rq.set("dst", dst);
          const Json rr = client.call(rq, "client.route", ms);
          window_ms += ms;
          if (sample) route_us.add(ms * 1e3);
          out.attempt(route_reply_ok(rr, mirror, src, dst),
                      "route " + std::to_string(src) + "->" +
                          std::to_string(dst) + ": " +
                          (rr.boolean("ok") ? "wrong path"
                                            : rr.str("error")));
        }
        if (events % kScrapeEvery == 0) {
          for (const char* op : {"metrics", "journal"}) {
            const Json sr =
                client.call(op_request(op), "client.scrape", ms);
            window_ms += ms;
            if (sample) scrape_ms.add(ms);
            out.attempt(sr.boolean("ok"),
                        std::string(op) + ": " + sr.str("error"));
          }
          if (traced) {
            for (const auto& [name, v] :
                 nue::telemetry::Registry::instance().counter_snapshot()) {
              nue_counters[name] += static_cast<double>(v);
            }
          }
          units.end(window_ms);
          busy_ms += window_ms;
          if (events % (kLoadEvery * kScrapeEvery) == 0) throwaway_load();
        }
      }
      if (events % kScrapeEvery != 0) {
        units.end(window_ms);
        busy_ms += window_ms;
      }

      Json treq = op_request("tables");
      treq.set("fabric", "storm");
      double ms = 0;
      driven.push_back(
          {events - first, client.call(treq, "client.tables", ms).str("dump")});
    }

    // Outside the timed loop: each storm's final tables must equal an
    // offline replay of the same storm prefix, byte for byte.
    for (std::size_t k = 0; k < driven.size(); ++k) {
      if (expect_tables.size() <= k) {
        nue::FaultTrace prefix = storm(k);
        prefix.events.resize(driven[k].events);
        nue::resilience::ResilienceManager offline(
            nue::generate_topology(kFabric).net, repair_policy());
        offline.replay(prefix);
        std::ostringstream os;
        nue::write_forwarding_tables(os, offline.net(), *offline.table());
        expect_tables.push_back(os.str());
        if (k == 0) {
          gamma_max = nue::summarize_forwarding_index(
                          offline.net(),
                          nue::edge_forwarding_index(offline.net(),
                                                     *offline.table()))
                          .max;
        }
      }
      out.attempt(driven[k].tables == expect_tables[k],
                  "final tables differ from an offline replay");
    }
    return std::make_pair(events, busy_ms / 1e3);
  };

  // An untraced run drives the storms once. A traced run drives them for
  // half the time untraced, then drives the same events again, traced,
  // on fresh services: the two drives do identical work, so their window
  // times give the tracing overhead.
  const auto [events, busy_s] =
      drive(false, std::numeric_limits<std::size_t>::max(),
            opt.trace ? opt.seconds / 2 : opt.seconds);
  if (opt.trace) {
    drive(true, events, std::numeric_limits<double>::infinity());
  }

  for (std::size_t s = 0; s < std::size(kSteps); ++s) {
    out.count(std::string("resilience.step.") + kSteps[s],
              static_cast<double>(counted.steps[s]));
  }
  out.count("resilience.affected_dests",
            static_cast<double>(counted.affected_dests));
  out.count("resilience.wave_commits",
            static_cast<double>(counted.wave_commits));

  if (!opt.trace) {
    out.e2e("setup_s", setup_s.median(), "s", setup_s.size());
    // The median over the events repaired incrementally in one epoch,
    // about 30% of them. Event latency has several modes: noops (~0.1 ms,
    // ~45% of events), one-epoch incremental repairs (~6 ms), wave chains
    // and full recomputes (40-100 ms). A median over a mix of modes falls
    // near the edge of one and swings with each trace's mix.
    out.e2e("op_p50_ms", one_epoch_ms.median(), "ms", one_epoch_ms.size());
    // The mean of the slowest 1% of events: it averages about ten of
    // them, where the p99 rests on one.
    out.e2e("op_tail_ms", event_ms.top_mean(0.01), "ms", event_ms.size());
    out.e2e("ops_per_s", static_cast<double>(events) / busy_s, "1/s",
            events);
    out.e2e("query_p50_us", route_us.median(), "us", route_us.size());
    out.e2e("query_p99_us", route_us.quantile(0.99), "us", route_us.size());
    return out;
  }

  out.layer("metrics.gamma_max", gamma_max, "count");
  out.layer("topology.trace_draw_ms", trace_draw_ms.median(), "ms",
            trace_draw_ms.size());
  const auto counter = [&](const char* name) {
    const auto it = nue_counters.find(name);
    return it == nue_counters.end() ? 0.0 : it->second;
  };
  out.layer("nue.fallbacks", counter("nue.escape_fallbacks"), "count");
  out.layer("nue.cycle_searches", counter("nue.omega_searches"), "count");
  out.layer("nue.cycle_search_steps", counter("nue.omega_search_steps"),
            "count");
  out.layer("nue.fast_accepts", counter("nue.omega_hits"), "count");
  out.layer("nue.impasses", counter("nue.impasses"), "count");
  out.layer("nue.shortcuts_taken", counter("nue.shortcuts"), "count");
  const auto layer_count = [&](const std::string& name, std::size_t v) {
    out.layer(name, static_cast<double>(v), "count", events);
  };
  layer_count("resilience.noops", all.noops);
  layer_count("resilience.hitless", all.hitless);
  layer_count("resilience.drains", all.drains);
  layer_count("resilience.wave_chains", all.wave_chains);
  layer_count("resilience.wave_commits", all.wave_commits);
  layer_count("resilience.affected_dests", all.affected_dests);
  for (std::size_t s = 0; s < std::size(kSteps); ++s) {
    layer_count(std::string("resilience.step.") + kSteps[s], all.steps[s]);
  }
  out.layer("resilience.repair_p50_ms", repair_ms.median(), "ms",
            repair_ms.size());
  out.layer("resilience.repair_p99_ms", repair_ms.quantile(0.99), "ms",
            repair_ms.size());
  out.layer("service.load_ms", setup_s.median() * 1e3, "ms", setup_s.size());
  const Samples parse = log.durations_ms("service.json_parse");
  out.layer("service.json_parse_us", parse.median() * 1e3, "us",
            parse.size());
  const Samples dump = log.durations_ms("service.json_dump");
  out.layer("service.json_dump_us", dump.median() * 1e3, "us", dump.size());
  out.layer("service.scrape_ms", scrape_ms.median(), "ms", scrape_ms.size());
  out.layer("service.event_overhead_ms", overhead_ms.median(), "ms",
            overhead_ms.size());
  units.report(out, "client.event");
  if (!opt.trace_out.empty()) log.write_json(opt.trace_out);
  return out;
}

}  // namespace nuebench
