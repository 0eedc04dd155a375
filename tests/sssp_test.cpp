// SSSP oracle tests: Dijkstra / Bellman-Ford agreement,
// Johnson's APSP vs Floyd-Warshall, negative-cycle handling. The
// DeltaStepping and DijkstraDecreaseKey suites keep the inputs of the
// SSSP variants the repo no longer carries and run them on the oracles.
#include <gtest/gtest.h>

#include "core/apsp.hpp"
#include "core/floyd_warshall.hpp"
#include "graph/generators.hpp"
#include "sssp/sssp.hpp"

namespace parfw {
namespace {

double diff(const std::vector<double>& a, const std::vector<double>& b) {
  EXPECT_EQ(a.size(), b.size());
  double worst = 0;
  for (std::size_t i = 0; i < a.size(); ++i) {
    if (a[i] == sssp::kInf && b[i] == sssp::kInf) continue;
    worst = std::max(worst, std::abs(a[i] - b[i]));
  }
  return worst;
}

TEST(Dijkstra, LineGraph) {
  Graph g(4);
  g.add_edge(0, 1, 1.0);
  g.add_edge(1, 2, 2.0);
  g.add_edge(2, 3, 3.0);
  const auto r = sssp::dijkstra(g, 0);
  EXPECT_EQ(r.dist, (std::vector<double>{0, 1, 3, 6}));
  EXPECT_EQ(r.parent[3], 2);
  EXPECT_EQ(r.parent[0], -1);
}

TEST(Dijkstra, PrefersShorterIndirectPath) {
  Graph g(3);
  g.add_edge(0, 2, 10.0);
  g.add_edge(0, 1, 1.0);
  g.add_edge(1, 2, 2.0);
  const auto r = sssp::dijkstra(g, 0);
  EXPECT_EQ(r.dist[2], 3.0);
  EXPECT_EQ(r.parent[2], 1);
}

TEST(Dijkstra, NegativeWeightThrows) {
  Graph g(2);
  g.add_edge(0, 1, -1.0);
  EXPECT_THROW(sssp::dijkstra(g, 0), check_error);
}

TEST(Dijkstra, StaleQueueEntriesAreSkipped) {
  // Vertex 3 is queued three times, each time at a lower distance; the
  // lazy heap must settle it once, at the last one, and relax its
  // out-edge from that distance.
  Graph g(5);
  g.add_edge(0, 3, 9.0);
  g.add_edge(0, 1, 1.0);
  g.add_edge(1, 3, 6.0);
  g.add_edge(1, 2, 1.0);
  g.add_edge(2, 3, 1.0);
  g.add_edge(3, 4, 1.0);
  const auto r = sssp::dijkstra(g, 0);
  EXPECT_EQ(r.dist, (std::vector<double>{0, 1, 2, 3, 4}));
  EXPECT_EQ(r.parent[3], 2);
  EXPECT_EQ(r.parent[4], 3);
}

TEST(Dijkstra, UnreachableVerticesStayInfinite) {
  Graph g(4);
  g.add_edge(0, 1, 2.0);
  g.add_edge(2, 3, 1.0);
  g.add_edge(3, 0, 1.0);  // into the source's part, not out of it
  const auto r = sssp::dijkstra(g, 0);
  EXPECT_EQ(r.dist[1], 2.0);
  EXPECT_EQ(r.dist[2], sssp::kInf);
  EXPECT_EQ(r.dist[3], sssp::kInf);
  EXPECT_EQ(r.parent[2], -1);
  EXPECT_EQ(r.parent[3], -1);
}

TEST(Dijkstra, ZeroWeightEdgesAndParallelEdges) {
  Graph g(4);
  g.add_edge(0, 1, 0.0);
  g.add_edge(1, 2, 5.0);
  g.add_edge(1, 2, 2.0);  // the lighter parallel edge wins
  g.add_edge(2, 3, 0.0);
  const auto r = sssp::dijkstra(g, 0);
  EXPECT_EQ(r.dist, (std::vector<double>{0, 0, 2, 2}));
  EXPECT_EQ(r.parent[1], 0);
  EXPECT_EQ(r.parent[3], 2);
}

TEST(Dijkstra, ParentsFormShortestPathTree) {
  const auto g = gen::erdos_renyi(90, 0.06, 17);
  const auto w = g.distance_matrix<MinPlus<double>>();  // lightest edge per pair
  const auto r = sssp::dijkstra(g, 4);
  for (std::size_t v = 0; v < r.dist.size(); ++v) {
    if (v == 4 || r.dist[v] == sssp::kInf) {
      EXPECT_EQ(r.parent[v], -1) << "v=" << v;
      continue;
    }
    const auto u = static_cast<std::size_t>(r.parent[v]);
    EXPECT_EQ(r.dist[v], r.dist[u] + w(u, v)) << "v=" << v;
  }
}

TEST(Dijkstra, SourceOutOfRangeThrows) {
  Graph g(3);
  EXPECT_THROW(sssp::dijkstra(g, 3), check_error);
  EXPECT_THROW(sssp::dijkstra(g, -1), check_error);
}

TEST(BellmanFord, MatchesDijkstraNonNegative) {
  for (std::uint64_t seed : {10u, 20u, 30u}) {
    const auto g = gen::erdos_renyi(80, 0.1, seed);
    const auto d = sssp::dijkstra(g, 0);
    const auto b = sssp::bellman_ford(g, 0);
    EXPECT_EQ(diff(d.dist, b.dist), 0.0) << "seed " << seed;
  }
}

TEST(BellmanFord, HandlesNegativeEdges) {
  Graph g(4);
  g.add_edge(0, 1, 4.0);
  g.add_edge(0, 2, 5.0);
  g.add_edge(1, 3, -2.0);
  g.add_edge(2, 3, -4.0);
  bool neg = true;
  const auto r = sssp::bellman_ford(g, 0, &neg);
  EXPECT_FALSE(neg);
  EXPECT_EQ(r.dist[3], 1.0);
}

TEST(BellmanFord, DetectsNegativeCycle) {
  Graph g(3);
  g.add_edge(0, 1, 1.0);
  g.add_edge(1, 2, -5.0);
  g.add_edge(2, 1, 1.0);
  bool neg = false;
  sssp::bellman_ford(g, 0, &neg);
  EXPECT_TRUE(neg);
}

TEST(BellmanFord, UnreachableNegativeCycleIgnored) {
  Graph g(4);
  g.add_edge(0, 1, 1.0);
  g.add_edge(2, 3, -5.0);
  g.add_edge(3, 2, 1.0);  // negative cycle, unreachable from 0
  bool neg = false;
  const auto r = sssp::bellman_ford(g, 0, &neg);
  EXPECT_FALSE(neg);
  EXPECT_EQ(r.dist[1], 1.0);
}

// --- delta-stepping's inputs ------------------------------------------------
// Bellman-Ford is the label-correcting limit of delta-stepping (one bucket);
// the min-plus APSP row of the source is the third opinion.

TEST(DeltaStepping, MatchesDijkstra) {
  for (std::uint64_t seed : {7u, 8u}) {
    const auto g = gen::erdos_renyi(120, 0.08, seed);
    const auto d = sssp::dijkstra(g, 3);
    const auto bf = sssp::bellman_ford(g, 3);
    EXPECT_EQ(diff(d.dist, bf.dist), 0.0) << "seed " << seed;
    const auto fw = apsp<MinPlus<double>>(g).dist;
    const std::vector<double> row(&fw(3, 0), &fw(3, 0) + fw.cols());
    EXPECT_LT(diff(d.dist, row), 1e-9) << "seed " << seed;
  }
}

TEST(DeltaStepping, GridGraph) {
  const auto g = gen::grid2d(8, 9, 44);
  const auto d = sssp::dijkstra(g, 0);
  const auto bf = sssp::bellman_ford(g, 0);
  EXPECT_EQ(diff(d.dist, bf.dist), 0.0);
}

// --- decrease-key Dijkstra's inputs -------------------------------------------

TEST(DijkstraDecreaseKey, MatchesLazyDijkstra) {
  for (std::uint64_t seed : {21u, 22u, 23u}) {
    const auto g = gen::erdos_renyi(150, 0.06, seed);
    for (vertex_t src : {0, 37, 149}) {
      const auto a = sssp::dijkstra(g, src);
      const auto b = sssp::bellman_ford(g, src);
      EXPECT_EQ(diff(a.dist, b.dist), 0.0) << "src=" << src << " seed=" << seed;
    }
  }
}

TEST(DijkstraDecreaseKey, GridGraph) {
  const auto g = gen::grid2d(9, 7, 61);
  const auto a = sssp::dijkstra(g, 5);
  const auto all = sssp::dijkstra_apsp(g);
  for (std::size_t v = 0; v < a.dist.size(); ++v) EXPECT_EQ(a.dist[v], all(5, v));
}

TEST(DijkstraDecreaseKey, NegativeWeightThrows) {
  Graph g(2);
  g.add_edge(0, 1, -0.5);
  EXPECT_THROW(sssp::dijkstra_apsp(g), check_error);
}

TEST(Johnson, MatchesFloydWarshallWithNegativeEdges) {
  // Sparse digraph with some negative edges but no negative cycles:
  // weights in [-2, 50] on a DAG-ish layered structure plus a few back
  // edges with positive weight.
  Graph g(30);
  Rng rng(66);
  for (vertex_t i = 0; i < 29; ++i) {
    for (int e = 0; e < 3; ++e) {
      const vertex_t j = i + 1 + static_cast<vertex_t>(rng.next_below(
                                     static_cast<std::uint64_t>(29 - i)));
      g.add_edge(i, j, rng.next_double() * 52.0 - 2.0);  // may be negative
    }
  }
  for (int e = 0; e < 10; ++e) {
    const vertex_t i = static_cast<vertex_t>(rng.next_below(30));
    const vertex_t j = static_cast<vertex_t>(rng.next_below(30));
    if (i != j) g.add_edge(i, j, 10.0 + rng.next_double() * 40.0);
  }
  auto fw = g.distance_matrix<MinPlus<double>>();
  floyd_warshall<MinPlus<double>>(fw.view());
  ASSERT_FALSE(has_negative_cycle<MinPlus<double>>(fw.view()));
  const auto jn = sssp::johnson_apsp(g);
  for (std::size_t i = 0; i < 30; ++i)
    for (std::size_t j = 0; j < 30; ++j) {
      if (value_traits<double>::is_inf(fw(i, j))) {
        EXPECT_EQ(jn(i, j), sssp::kInf);
      } else {
        EXPECT_NEAR(jn(i, j), fw(i, j), 1e-6);
      }
    }
}

TEST(Johnson, ThrowsOnNegativeCycle) {
  Graph g(2);
  g.add_edge(0, 1, -1.0);
  g.add_edge(1, 0, -1.0);
  EXPECT_THROW(sssp::johnson_apsp(g), check_error);
}

TEST(Johnson, UnreachablePairsStayInfiniteWithNegativeEdges) {
  // Non-zero potentials must not leak into the unreachable entries.
  Graph g(5);
  g.add_edge(0, 1, 4.0);
  g.add_edge(1, 2, -3.0);
  g.add_edge(3, 4, -2.0);
  const auto jn = sssp::johnson_apsp(g);
  EXPECT_EQ(jn(0, 2), 1.0);
  EXPECT_EQ(jn(3, 4), -2.0);
  EXPECT_EQ(jn(0, 3), sssp::kInf);
  EXPECT_EQ(jn(4, 3), sssp::kInf);
  EXPECT_EQ(jn(2, 0), sssp::kInf);
}

TEST(BellmanFord, ParentsFormShortestPathTreeWithNegativeEdges) {
  Graph g(5);
  g.add_edge(0, 1, 6.0);
  g.add_edge(0, 2, 7.0);
  g.add_edge(1, 3, 5.0);
  g.add_edge(2, 3, -3.0);
  g.add_edge(3, 1, -2.0);
  g.add_edge(1, 4, -4.0);
  bool neg = true;
  const auto r = sssp::bellman_ford(g, 0, &neg);
  EXPECT_FALSE(neg);
  EXPECT_EQ(r.dist, (std::vector<double>{0, 2, 7, 4, -2}));
  EXPECT_EQ(r.parent, (std::vector<vertex_t>{-1, 3, 0, 2, 1}));
}

TEST(Johnson, MatchesDijkstraApspOnNonNegativeWeights) {
  // No negative edge: the reweighting potentials are all zero, so every
  // row is exactly the plain Dijkstra row.
  const auto g = gen::erdos_renyi(60, 0.1, 88);
  const auto jn = sssp::johnson_apsp(g);
  const auto dj = sssp::dijkstra_apsp(g);
  for (std::size_t i = 0; i < 60; ++i)
    for (std::size_t j = 0; j < 60; ++j) EXPECT_EQ(jn(i, j), dj(i, j));
}

TEST(DijkstraApsp, MatchesFloydWarshall) {
  const auto g = gen::grid2d(6, 6, 51);
  const auto dj = sssp::dijkstra_apsp(g);
  auto fw = g.distance_matrix<MinPlus<double>>();
  floyd_warshall<MinPlus<double>>(fw.view());
  for (std::size_t i = 0; i < 36; ++i)
    for (std::size_t j = 0; j < 36; ++j)
      EXPECT_NEAR(dj(i, j), fw(i, j), 1e-9);
}

TEST(DijkstraApsp, UnreachablePairsAreInfinite) {
  const auto g = gen::multi_component(2, 10, 0.4, 19);
  const auto dj = sssp::dijkstra_apsp(g);
  for (std::size_t i = 0; i < 20; ++i)
    for (std::size_t j = 0; j < 20; ++j) {
      if ((i < 10) == (j < 10)) continue;  // same component
      EXPECT_EQ(dj(i, j), sssp::kInf) << i << "->" << j;
    }
}

}  // namespace
}  // namespace parfw
