// Correctness checks run on every output the benchmark times, outside
// the timed region. Weights are integral, so every shortest-path sum is
// exact in float and every comparison below is exact.
//
//   * Solves: the rows of a seeded sample of sources must equal Dijkstra
//     (sssp, the repo's independent oracle). On paths runs, every pred
//     chain out of those sources must end at the right vertices, use only
//     edges of the graph, and sum to the distance.
//   * Served answers: status, distance and path must equal the in-memory
//     ApspResult::query answer of the solve that was published.
#pragma once

#include <cstdint>
#include <cstring>
#include <vector>

#include "core/apsp.hpp"
#include "graph/graph.hpp"
#include "sssp/sssp.hpp"
#include "util/rng.hpp"

namespace perfbench {

using S = parfw::MinPlus<float>;
using Result = parfw::ApspResult<float>;

struct Oracle {
  std::vector<parfw::vertex_t> sources;
  std::vector<std::vector<double>> rows;  ///< Dijkstra distances per source
};

/// Dijkstra rows for `count` distinct sources drawn from `seed`.
inline Oracle make_oracle(const parfw::Graph& g, std::uint64_t seed,
                          std::size_t count) {
  Oracle o;
  const auto n = static_cast<std::uint64_t>(g.num_vertices());
  parfw::Rng rng = parfw::Rng::split(seed, 0x0ac1eull);
  while (o.sources.size() < count && o.sources.size() < n) {
    const auto s = static_cast<parfw::vertex_t>(rng.next_below(n));
    bool seen = false;
    for (parfw::vertex_t t : o.sources) seen = seen || t == s;
    if (seen) continue;
    o.sources.push_back(s);
    o.rows.push_back(parfw::sssp::dijkstra(g, s).dist);
  }
  return o;
}

/// Mismatches of one solve against the oracle: one per wrong distance,
/// plus, on paths runs, one per broken predecessor chain. `dense` is the
/// graph's distance matrix (edge weights; duplicates keep the minimum).
inline std::size_t check_solve(const Result& r, const Oracle& o,
                               const parfw::Matrix<float>& dense) {
  std::size_t bad = 0;
  const auto dist = r.dist.view();
  const auto w = dense.view();
  const auto n = static_cast<parfw::vertex_t>(dist.rows());
  for (std::size_t i = 0; i < o.sources.size(); ++i) {
    const parfw::vertex_t s = o.sources[i];
    for (parfw::vertex_t t = 0; t < n; ++t) {
      const float got = dist(static_cast<std::size_t>(s),
                             static_cast<std::size_t>(t));
      const auto want =
          static_cast<float>(o.rows[i][static_cast<std::size_t>(t)]);
      if (got != want) {
        ++bad;
        continue;
      }
      if (!r.pred.has_value()) continue;
      const parfw::QueryResult<float> q = r.query(s, t, /*want_path=*/true);
      if (got == S::zero()) {
        bad += q.status != parfw::PathStatus::kUnreachable;
        continue;
      }
      if (q.status != parfw::PathStatus::kFound || q.path.empty() ||
          q.path.front() != s || q.path.back() != t) {
        ++bad;
        continue;
      }
      double sum = 0.0;
      for (std::size_t h = 0; h + 1 < q.path.size(); ++h)
        sum += w(static_cast<std::size_t>(q.path[h]),
                 static_cast<std::size_t>(q.path[h + 1]));
      bad += sum != static_cast<double>(got);
    }
  }
  return bad;
}

/// True when a served answer equals the in-memory oracle's answer
/// (distance compared bitwise, so an unreachable +inf matches itself).
inline bool same_answer(const parfw::QueryResult<float>& served,
                        const parfw::QueryResult<float>& want) {
  return served.status == want.status &&
         std::memcmp(&served.distance, &want.distance, sizeof(float)) == 0 &&
         served.path == want.path;
}

}  // namespace perfbench
