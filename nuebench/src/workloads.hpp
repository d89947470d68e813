// The three workloads (README.md in this directory says what each one
// exercises and why). Each runs for Options::seconds of measured work,
// checks every output it produces, and fills one Outcome: end-to-end
// metrics on an untraced run, per-layer metrics on a traced one.
#pragma once

#include <cstdint>
#include <utility>
#include <vector>

#include "graph/network.hpp"
#include "report.hpp"
#include "util/rng.hpp"

namespace nuebench {

Outcome run_torus_route(const Options& opt);
Outcome run_daemon_storm(const Options& opt);
Outcome run_dragonfly_sim(const Options& opt);

/// `n` pairs of distinct terminals drawn from `seed`: the route queries
/// of the workloads that query a fixed table.
inline std::vector<std::pair<nue::NodeId, nue::NodeId>> query_pairs(
    const std::vector<nue::NodeId>& terminals, std::uint64_t seed,
    std::size_t n) {
  std::vector<std::pair<nue::NodeId, nue::NodeId>> pairs;
  nue::Rng rng(seed ^ 0x51ED2701ULL);
  while (pairs.size() < n) {
    const auto a = rng.next_below(terminals.size());
    const auto b = rng.next_below(terminals.size());
    if (a != b) pairs.emplace_back(terminals[a], terminals[b]);
  }
  return pairs;
}

}  // namespace nuebench
