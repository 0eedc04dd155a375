// Core FW tests: sequential FW vs closed forms and SSSP oracles, blocked
// FW vs sequential across block sizes, diag-update strategies, path
// reconstruction, negative cycles, incremental updates, other semirings.
#include <gtest/gtest.h>

#include <atomic>
#include <cmath>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include "core/apsp.hpp"
#include "core/blocked_fw.hpp"
#include "core/diag_update.hpp"
#include "core/floyd_warshall.hpp"
#include "core/incremental.hpp"
#include "graph/connected_components.hpp"
#include "graph/generators.hpp"
#include "sssp/sssp.hpp"

namespace parfw {
namespace {

using S = MinPlus<double>;

Matrix<double> fw_oracle(const Graph& g) {
  auto d = g.distance_matrix<S>();
  floyd_warshall<S>(d.view());
  return d;
}

TEST(FloydWarshall, RingClosedForm) {
  // Directed unit ring: dist(i, j) = (j - i) mod n.
  const vertex_t n = 12;
  const auto d = fw_oracle(gen::ring(n));
  for (vertex_t i = 0; i < n; ++i)
    for (vertex_t j = 0; j < n; ++j)
      EXPECT_EQ(d(i, j), static_cast<double>((j - i + n) % n));
}

TEST(FloydWarshall, MatchesDijkstraOnRandomGraphs) {
  for (std::uint64_t seed : {1u, 2u, 3u}) {
    const auto g = gen::erdos_renyi(60, 0.15, seed, 1.0, 100.0, /*integral=*/true);
    const auto fw = fw_oracle(g);
    const auto dj = sssp::dijkstra_apsp(g);
    EXPECT_EQ(max_abs_diff<double>(fw.view(), dj.view()), 0.0) << "seed " << seed;
  }
}

TEST(FloydWarshall, UnreachableStaysInfinite) {
  Graph g(4);
  g.add_edge(0, 1, 1.0);
  g.add_edge(2, 3, 1.0);
  const auto d = fw_oracle(g);
  EXPECT_TRUE(value_traits<double>::is_inf(d(0, 2)));
  EXPECT_TRUE(value_traits<double>::is_inf(d(3, 0)));
  EXPECT_EQ(d(0, 1), 1.0);
}

TEST(FloydWarshall, NegativeEdgesNoCycle) {
  Graph g(4);
  g.add_edge(0, 1, 5.0);
  g.add_edge(1, 2, -3.0);
  g.add_edge(2, 3, 2.0);
  g.add_edge(0, 3, 10.0);
  const auto d = fw_oracle(g);
  EXPECT_EQ(d(0, 3), 4.0);  // 5 - 3 + 2 beats the direct 10
  EXPECT_FALSE(has_negative_cycle<S>(d.view()));
}

TEST(FloydWarshall, NegativeCycleDetected) {
  Graph g(3);
  g.add_edge(0, 1, 1.0);
  g.add_edge(1, 2, -2.0);
  g.add_edge(2, 0, 0.5);
  const auto d = fw_oracle(g);
  EXPECT_TRUE(has_negative_cycle<S>(d.view()));
}

TEST(FloydWarshall, MultiComponentMatchesPerComponentSolve) {
  const auto g = gen::multi_component(3, 15, 0.4, 9);
  const auto d = fw_oracle(g);
  const auto labels = connected_components(g);
  for (vertex_t i = 0; i < g.num_vertices(); ++i)
    for (vertex_t j = 0; j < g.num_vertices(); ++j)
      if (labels[i] != labels[j]) {
        EXPECT_TRUE(value_traits<double>::is_inf(d(i, j)));
      }
}

// --- Blocked FW ----------------------------------------------------------

class BlockedFwParam
    : public ::testing::TestWithParam<std::tuple<int, int, int>> {};
// (n, block_size, diag_strategy)

TEST_P(BlockedFwParam, MatchesSequential) {
  const auto [n, b, diag] = GetParam();
  const auto g = gen::erdos_renyi(n, 0.2, 1234 + n + b, 1.0, 100.0, /*integral=*/true);
  const auto expected = fw_oracle(g);
  auto d = g.distance_matrix<S>();
  BlockedFwOptions opt;
  opt.block_size = static_cast<std::size_t>(b);
  opt.diag = static_cast<DiagStrategy>(diag);
  blocked_floyd_warshall<S>(d.view(), opt);
  EXPECT_EQ(max_abs_diff<double>(expected.view(), d.view()), 0.0)
      << "n=" << n << " b=" << b << " diag=" << diag;
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, BlockedFwParam,
    ::testing::Combine(::testing::Values(1, 7, 32, 64, 97, 130),
                       ::testing::Values(1, 8, 16, 33, 64, 200),
                       ::testing::Values(0, 1)));  // kClassic, kLogSquaring

TEST(BlockedFw, MatchesOracleAtPowerOfTwoAndFringeSizes) {
  // Power-of-two n is where an unpadded pivot panel's row stride would be
  // a 4 KiB multiple; n = 130 leaves a fringe block for every b; n = 0
  // and n = 1 are the degenerate inputs (no block, one partial block).
  for (int n : {256, 512, 130, 1, 0}) {
    const auto g = gen::erdos_renyi(n, 0.05, 91 + n, 1.0, 100.0, /*integral=*/true);
    const auto expected = fw_oracle(g);
    for (std::size_t b : {33u, 64u, 128u}) {
      auto d = g.distance_matrix<S>();
      BlockedFwOptions opt;
      opt.block_size = b;
      blocked_floyd_warshall<S>(d.view(), opt);
      EXPECT_EQ(max_abs_diff<double>(expected.view(), d.view()), 0.0)
          << "n=" << n << " b=" << b;
    }
  }
}

TEST(BlockedFw, PoolSplitPanelUpdateMatchesSequential) {
  // b = 128 is two default 64-row tiles, so the pool really splits C's
  // rows in the PanelUpdate and MinPlusOuter products. The row-panel
  // product must not read B from rows other workers are writing (the
  // thread-sanitizer job runs this test).
  ThreadPool pool(4);
  const auto g = gen::erdos_renyi(384, 0.05, 384, 1.0, 100.0, /*integral=*/true);
  const auto expected = fw_oracle(g);
  auto d = g.distance_matrix<S>();
  BlockedFwOptions opt;
  opt.block_size = 128;
  opt.gemm.pool = &pool;
  blocked_floyd_warshall<S>(d.view(), opt);
  EXPECT_EQ(max_abs_diff<double>(expected.view(), d.view()), 0.0);
}

TEST(BlockedFw, ParallelPoolMatchesSequential) {
  ThreadPool pool(4);
  const auto g = gen::erdos_renyi(150, 0.15, 55, 1.0, 100.0, /*integral=*/true);
  const auto expected = fw_oracle(g);
  auto d = g.distance_matrix<S>();
  BlockedFwOptions opt;
  opt.block_size = 32;
  opt.gemm.pool = &pool;
  blocked_floyd_warshall<S>(d.view(), opt);
  EXPECT_EQ(max_abs_diff<double>(expected.view(), d.view()), 0.0);
}

TEST(BlockedFw, FloatPrecisionMatchesSequentialBitwise) {
  using Sf = MinPlus<float>;
  const auto g = gen::erdos_renyi(80, 0.25, 77, 1.0, 100.0, /*integral=*/true);
  auto a = g.distance_matrix<Sf>();
  auto b = a.clone();
  floyd_warshall<Sf>(a.view());
  blocked_floyd_warshall<Sf>(b.view(), {{.block_size = 17}});
  // min/+ over identical inputs is exact: results must agree bitwise.
  EXPECT_EQ(max_abs_diff<float>(a.view(), b.view()), 0.0);
}

// --- DiagUpdate ------------------------------------------------------------

TEST(DiagUpdate, LogSquaringStepCount) {
  EXPECT_EQ(log_squaring_steps(1), 0u);
  EXPECT_EQ(log_squaring_steps(2), 1u);
  EXPECT_EQ(log_squaring_steps(3), 1u);
  EXPECT_EQ(log_squaring_steps(5), 2u);
  EXPECT_EQ(log_squaring_steps(9), 3u);
  EXPECT_EQ(log_squaring_steps(64), 6u);
  EXPECT_EQ(log_squaring_steps(65), 6u);
  EXPECT_EQ(log_squaring_steps(66), 7u);
}

TEST(DiagUpdate, LogSquaringEqualsClassic) {
  for (int n : {1, 2, 3, 16, 45, 64}) {
    const auto g = gen::erdos_renyi(n, 0.3, 300 + n, 1.0, 100.0, /*integral=*/true);
    auto a = g.distance_matrix<S>();
    auto b = a.clone();
    diag_update<S>(a.view(), DiagStrategy::kClassic);
    diag_update<S>(b.view(), DiagStrategy::kLogSquaring);
    EXPECT_EQ(max_abs_diff<double>(a.view(), b.view()), 0.0) << "n=" << n;
  }
}

TEST(DiagUpdate, FlopModel) {
  EXPECT_DOUBLE_EQ(diag_update_flops(64, DiagStrategy::kClassic),
                   2.0 * 64 * 64 * 64);
  EXPECT_DOUBLE_EQ(diag_update_flops(64, DiagStrategy::kLogSquaring),
                   2.0 * 64 * 64 * 64 * 6);
}

// --- Paths -----------------------------------------------------------------

TEST(Paths, ReconstructedPathsAreValidAndOptimal) {
  const auto g = gen::erdos_renyi(40, 0.2, 91);
  ApspOptions opt;
  opt.algorithm = ApspAlgorithm::kSequential;
  opt.track_paths = true;
  const auto r = apsp<S>(g, opt);
  const auto w = g.distance_matrix<S>();  // edge weights
  for (vertex_t s = 0; s < 40; ++s) {
    for (vertex_t t = 0; t < 40; ++t) {
      if (value_traits<double>::is_inf(r.dist(s, t))) {
        if (s != t) {
          EXPECT_EQ(r.query(s, t).status, PathStatus::kUnreachable);
        }
        continue;
      }
      const auto p = r.query(s, t).path;
      ASSERT_FALSE(p.empty());
      EXPECT_EQ(p.front(), s);
      EXPECT_EQ(p.back(), t);
      double len = 0;
      for (std::size_t i = 0; i + 1 < p.size(); ++i) {
        ASSERT_FALSE(value_traits<double>::is_inf(w(p[i], p[i + 1])))
            << "path uses a non-edge";
        len += w(p[i], p[i + 1]);
      }
      EXPECT_NEAR(len, r.dist(s, t), 1e-9) << s << "->" << t;
    }
  }
}

std::size_t pred_mismatches(MatrixView<const std::int64_t> x,
                            MatrixView<const std::int64_t> y) {
  std::size_t mism = 0;
  for (std::size_t i = 0; i < x.rows(); ++i)
    for (std::size_t j = 0; j < x.cols(); ++j) mism += x(i, j) != y(i, j);
  return mism;
}

TEST(Paths, BlockedPathsMatchSequentialDistances) {
  // Fringe blocks (67, 130 with b = 13, 16, 32) and a pooled run: n = 130
  // gives the pred kernel enough rows for the pool to split C.
  ThreadPool pool(4);
  std::vector<std::pair<int, std::size_t>> cases = {{50, 13}};
  for (int n : {64, 67, 130})
    for (std::size_t b : {13u, 16u, 32u}) cases.emplace_back(n, b);
  for (const auto& [n, bs] : cases) {
    SCOPED_TRACE("n=" + std::to_string(n) + " b=" + std::to_string(bs));
    const auto g =
        gen::erdos_renyi(n, 0.25, 92 + n, 1.0, 100.0, /*integral=*/true);
    ApspOptions seq;
    seq.algorithm = ApspAlgorithm::kSequential;
    seq.track_paths = true;
    ApspOptions blk;
    blk.algorithm = ApspAlgorithm::kBlocked;
    blk.track_paths = true;
    blk.block_size = bs;
    const auto a = apsp<S>(g, seq);
    const auto b = apsp<S>(g, blk);
    EXPECT_EQ(max_abs_diff<double>(a.dist.view(), b.dist.view()), 0.0);
    // Both predecessor matrices must induce optimal valid paths.
    const auto w = g.distance_matrix<S>();
    for (vertex_t s = 0; s < n; ++s)
      for (vertex_t t = 0; t < n; ++t) {
        if (value_traits<double>::is_inf(b.dist(s, t)) || s == t) continue;
        const auto p = b.query(s, t).path;
        ASSERT_FALSE(p.empty());
        double len = 0;
        for (std::size_t i = 0; i + 1 < p.size(); ++i)
          len += w(p[i], p[i + 1]);
        EXPECT_NEAR(len, b.dist(s, t), 1e-9);
      }

    // The pooled engine must not change a single predecessor.
    auto d = g.distance_matrix<S>();
    Matrix<std::int64_t> pred(d.rows(), d.cols());
    init_predecessors<S>(d.view(), pred.view());
    BlockedFwOptions opt;
    opt.block_size = bs;
    opt.gemm.pool = &pool;
    blocked_floyd_warshall<S>(d.view(), opt, pred.view());
    EXPECT_EQ(max_abs_diff<double>(b.dist.view(), d.view()), 0.0);
    EXPECT_EQ(pred_mismatches(b.pred->view(), pred.view()), 0u);
  }
}

TEST(Paths, SelfPathIsSingleton) {
  const auto g = gen::ring(5);
  ApspOptions opt;
  opt.algorithm = ApspAlgorithm::kSequential;
  opt.track_paths = true;
  const auto r = apsp<S>(g, opt);
  EXPECT_EQ(r.query(2, 2).path, (std::vector<std::int64_t>{2}));
}

// --- High-level API ----------------------------------------------------------

TEST(Apsp, AlgorithmsAgree) {
  const auto g = gen::erdos_renyi(96, 0.2, 10, 1.0, 100.0, /*integral=*/true);
  ApspOptions sopt;
  sopt.algorithm = ApspAlgorithm::kSequential;
  const auto a = apsp<S>(g, sopt);
  ApspOptions blk;
  blk.algorithm = ApspAlgorithm::kBlocked;
  blk.block_size = 24;
  const auto b = apsp<S>(g, blk);
  ApspOptions popt;
  popt.algorithm = ApspAlgorithm::kBlockedParallel;
  const auto c = apsp<S>(g, popt);
  EXPECT_EQ(max_abs_diff<double>(a.dist.view(), b.dist.view()), 0.0);
  EXPECT_EQ(max_abs_diff<double>(a.dist.view(), c.dist.view()), 0.0);
}

TEST(Apsp, ParallelPathsUsesGlobalPool) {
  // kBlockedParallel must hand the global pool to a paths solve too, and
  // the pooled preds must equal the single-thread kBlocked ones.
  if (ThreadPool::global().size() < 2) GTEST_SKIP() << "global pool < 2";
  struct TaskCount : PoolObserver {
    std::atomic<std::size_t> tasks{0};
    void on_queue_depth(std::size_t) override {}
    void on_task(double, double) override { ++tasks; }
  } obs;
  const auto g = gen::erdos_renyi(301, 0.05, 301, 1.0, 100.0, /*integral=*/true);
  ApspOptions blk;
  blk.algorithm = ApspAlgorithm::kBlocked;
  blk.block_size = 32;
  blk.track_paths = true;
  ApspOptions par = blk;
  par.algorithm = ApspAlgorithm::kBlockedParallel;
  const auto want = apsp<S>(g, blk);
  ThreadPool::global().set_observer(&obs);
  const auto got = apsp<S>(g, par);
  ThreadPool::global().set_observer(nullptr);
  EXPECT_GT(obs.tasks.load(), 0u);
  EXPECT_EQ(max_abs_diff<double>(want.dist.view(), got.dist.view()), 0.0);
  EXPECT_EQ(pred_mismatches(want.pred->view(), got.pred->view()), 0u);
}

TEST(Apsp, RejectNegativeCycleOption) {
  Graph g(2);
  g.add_edge(0, 1, -3.0);
  g.add_edge(1, 0, 1.0);
  ApspOptions opt;
  opt.algorithm = ApspAlgorithm::kSequential;
  opt.reject_negative_cycles = true;
  EXPECT_THROW(apsp<S>(g, opt), check_error);
}

TEST(Apsp, UnweightedDirectedGraphMatchesBfs) {
  // One-way unit-weight edges: distances are BFS hop counts and need not
  // be symmetric.
  Graph g(6);
  for (vertex_t i = 0; i < 5; ++i) g.add_edge(i, i + 1, 1.0);
  g.add_edge(5, 0, 1.0);
  g.add_edge(0, 3, 1.0);
  const auto bfs = sssp::dijkstra_apsp(g);
  for (auto algo : {ApspAlgorithm::kSequential, ApspAlgorithm::kBlocked,
                    ApspAlgorithm::kBlockedParallel}) {
    ApspOptions opt;
    opt.algorithm = algo;
    opt.block_size = 4;
    const auto d = apsp<S>(g, opt).dist;
    EXPECT_EQ(max_abs_diff<double>(bfs.view(), d.view()), 0.0);
    EXPECT_EQ(d(0, 4), 2.0);  // 0-3-4
    EXPECT_EQ(d(4, 0), 2.0);  // 4-5-0
    EXPECT_EQ(d(3, 0), 3.0);  // 3-4-5-0
  }
}

TEST(Apsp, DisconnectedPairsQueryAsUnreachable) {
  // Two undirected unit edges: pairs across the parts have no path under
  // every single-node algorithm.
  Graph g(4);
  g.add_undirected_edge(0, 1, 1.0);
  g.add_undirected_edge(2, 3, 1.0);
  for (auto algo : {ApspAlgorithm::kSequential, ApspAlgorithm::kBlocked,
                    ApspAlgorithm::kBlockedParallel})
    for (bool paths : {false, true}) {
      ApspOptions opt;
      opt.algorithm = algo;
      opt.track_paths = paths;
      const auto r = apsp<S>(g, opt);
      // A values-only solve reports kNotTracked for every pair.
      const PathStatus none =
          paths ? PathStatus::kUnreachable : PathStatus::kNotTracked;
      EXPECT_EQ(r.query(1, 0).distance, 1.0);
      EXPECT_TRUE(value_traits<double>::is_inf(r.query(0, 2).distance));
      EXPECT_EQ(r.query(0, 2).status, none);
      EXPECT_EQ(r.query(3, 1).status, none);
      EXPECT_TRUE(r.query(0, 2).path.empty());
    }
}

TEST(Apsp, MaxMinWidestPath) {
  // Widest path on a ring with one weak link: the bottleneck between any
  // ordered pair is the minimum edge capacity along the only path.
  using W = MaxMin<double>;
  Graph g(4);
  g.add_edge(0, 1, 10.0);
  g.add_edge(1, 2, 3.0);
  g.add_edge(2, 3, 8.0);
  g.add_edge(3, 0, 6.0);
  auto d = g.distance_matrix<W>();
  floyd_warshall<W>(d.view());
  EXPECT_EQ(d(0, 2), 3.0);
  EXPECT_EQ(d(0, 3), 3.0);
  EXPECT_EQ(d(2, 1), 6.0);
  auto blocked = g.distance_matrix<W>();
  blocked_floyd_warshall<W>(blocked.view(), {{.block_size = 2}});
  EXPECT_EQ(max_abs_diff<double>(d.view(), blocked.view()), 0.0);

  // Dense 48-vertex single-precision closure: blocked FW over several
  // blocks matches the sequential oracle exactly (max/min never rounds).
  using Wf = MaxMin<float>;
  DenseEntryGen<float> gen(71, 0.5, 1.0f, 100.0f, /*integral=*/true);
  const std::size_t n = 48;
  Matrix<float> a(n, n, Wf::zero());
  for (std::size_t i = 0; i < n; ++i)
    for (std::size_t j = 0; j < n; ++j) {
      const float w = gen(static_cast<vertex_t>(i), static_cast<vertex_t>(j));
      if (i == j)
        a(i, j) = Wf::one();
      else if (!value_traits<float>::is_inf(w))
        a(i, j) = w;
    }
  auto expected = a.clone();
  floyd_warshall<Wf>(expected.view());
  blocked_floyd_warshall<Wf>(a.view(), {{.block_size = 8}});
  EXPECT_EQ(max_abs_diff<float>(expected.view(), a.view()), 0.0);
}

TEST(Apsp, TransitiveClosure) {
  using B = BoolOrAnd;
  Graph g(5);
  g.add_edge(0, 1, 1.0);
  g.add_edge(1, 2, 1.0);
  g.add_edge(3, 4, 1.0);
  Matrix<std::uint8_t> m(5, 5, B::zero());
  for (vertex_t v = 0; v < 5; ++v) m(v, v) = B::one();
  for (const Edge& e : g.edges()) m(e.src, e.dst) = B::one();
  blocked_floyd_warshall<B>(m.view(), {{.block_size = 2}});
  EXPECT_EQ(m(0, 2), 1);
  EXPECT_EQ(m(0, 4), 0);
  EXPECT_EQ(m(3, 4), 1);
  EXPECT_EQ(m(2, 0), 0);

  // On a symmetric multi-component graph, i reaches j exactly when both
  // lie in the same connected component.
  const auto multi = gen::multi_component(3, 21, 0.3, 44);
  Graph sym(multi.num_vertices());
  for (const Edge& e : multi.edges()) sym.add_undirected_edge(e.src, e.dst, 1.0);
  const std::size_t n = static_cast<std::size_t>(sym.num_vertices());
  Matrix<std::uint8_t> reach(n, n, B::zero());
  for (std::size_t v = 0; v < n; ++v) reach(v, v) = B::one();
  for (const Edge& e : sym.edges()) reach(e.src, e.dst) = B::one();
  blocked_floyd_warshall<B>(reach.view(), {{.block_size = 16}});
  const auto labels = connected_components(sym);
  for (std::size_t i = 0; i < n; ++i)
    for (std::size_t j = 0; j < n; ++j)
      EXPECT_EQ(reach(i, j) == B::one(), labels[i] == labels[j])
          << "(" << i << "," << j << ")";
}

// --- Incremental -------------------------------------------------------------

TEST(Incremental, EdgeDecreaseMatchesRecompute) {
  auto g = gen::erdos_renyi(50, 0.15, 200);
  auto closed = fw_oracle(g);
  // Improve an existing pair sharply and fold it in.
  const EdgeUpdate u{3, 17, 0.01};
  const auto outcome = incremental_update<S>(closed.view(), u);
  EXPECT_EQ(outcome, IncrementalOutcome::kApplied);
  g.add_edge(3, 17, 0.01);
  const auto expected = fw_oracle(g);
  EXPECT_LT(max_abs_diff<double>(expected.view(), closed.view()), 1e-12);
}

TEST(Incremental, NoEffectWhenNotImproving) {
  const auto g = gen::dense_uniform(20, 5, 1.0, 10.0);
  auto closed = fw_oracle(g);
  const auto before = closed.clone();
  // Weight far above the current distance: flagged as a (potential) increase.
  EXPECT_EQ(incremental_update<S>(closed.view(), {0, 1, 1e6}),
            IncrementalOutcome::kNeedsRecompute);
  // Weight exactly equal to the closure value: a genuine no-op.
  EXPECT_EQ(incremental_update<S>(closed.view(), {0, 1, closed(0, 1)}),
            IncrementalOutcome::kNoEffect);
  EXPECT_EQ(max_abs_diff<double>(before.view(), closed.view()), 0.0);
}

TEST(Incremental, BatchAppliesDecreases) {
  auto g = gen::erdos_renyi(40, 0.2, 300);
  auto closed = fw_oracle(g);
  const EdgeUpdate batch[] = {{1, 2, 0.5}, {5, 9, 0.25}, {30, 4, 0.125}};
  bool recompute = false;
  const std::size_t applied =
      incremental_update_batch<S>(closed.view(), batch, &recompute);
  EXPECT_EQ(applied, 3u);
  EXPECT_FALSE(recompute);
  for (const auto& u : batch) {
    g.add_edge(u.src, u.dst, u.new_weight);
  }
  const auto expected = fw_oracle(g);
  EXPECT_LT(max_abs_diff<double>(expected.view(), closed.view()), 1e-12);
}

}  // namespace
}  // namespace parfw
