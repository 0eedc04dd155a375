// Stress/property tests for the in-process message-passing runtime:
// randomised traffic patterns, nested communicator splits, concurrent
// collectives on disjoint communicators, and ordering guarantees under
// contention.
#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "core/floyd_warshall.hpp"
#include "dist/driver.hpp"
#include "mpisim/communicator.hpp"
#include "mpisim/runtime.hpp"
#include "util/rng.hpp"

namespace parfw::mpi {
namespace {

TEST(Stress, RandomisedP2pTrafficKeepsPerPairFifo) {
  // Every rank sends a deterministic pseudo-random sequence to every
  // other rank; receivers verify per-(src,tag) FIFO and payload content.
  const int p = 6;
  const int msgs_per_pair = 40;
  Runtime::run(p, [&](Comm& c) {
    // Send phase: interleave destinations pseudo-randomly.
    Rng order(static_cast<std::uint64_t>(c.rank()) + 1);
    std::vector<int> seq(static_cast<std::size_t>(p), 0);
    for (int total = 0; total < msgs_per_pair * (p - 1);) {
      const int dst = static_cast<int>(order.next_below(static_cast<std::uint64_t>(p)));
      if (dst == c.rank() || seq[static_cast<std::size_t>(dst)] >= msgs_per_pair)
        continue;
      const int s = seq[static_cast<std::size_t>(dst)]++;
      const std::uint64_t payload =
          static_cast<std::uint64_t>(c.rank()) * 1000000 +
          static_cast<std::uint64_t>(dst) * 1000 + static_cast<std::uint64_t>(s);
      c.send_value(payload, dst, /*tag=*/50);
      ++total;
    }
    // Receive phase: drain each source, expecting its sequence in order.
    for (int src = 0; src < p; ++src) {
      if (src == c.rank()) continue;
      for (int s = 0; s < msgs_per_pair; ++s) {
        const auto got = c.recv_value<std::uint64_t>(src, 50);
        EXPECT_EQ(got, static_cast<std::uint64_t>(src) * 1000000 +
                           static_cast<std::uint64_t>(c.rank()) * 1000 +
                           static_cast<std::uint64_t>(s));
      }
    }
  });
}

TEST(Stress, NestedSplits) {
  // world(12) -> thirds(4) -> pairs(2); collectives at every level.
  Runtime::run(12, [](Comm& world) {
    Comm third = world.split(world.rank() / 4, world.rank());
    ASSERT_EQ(third.size(), 4);
    Comm pair = third.split(third.rank() / 2, third.rank());
    ASSERT_EQ(pair.size(), 2);

    int v = world.rank();
    pair.allreduce(std::span<int>(&v, 1), [](int a, int b) { return a + b; });
    // Partner is the adjacent world rank within the pair.
    const int base = (world.rank() / 2) * 2;
    EXPECT_EQ(v, base + (base + 1));

    int w = third.rank() == 0 ? world.rank() : -1;
    third.bcast(std::span<int>(&w, 1), 0);
    EXPECT_EQ(w, (world.rank() / 4) * 4);

    world.barrier();
  });
}

TEST(Stress, ConcurrentCollectivesOnDisjointComms) {
  // Row and column communicators of a 4x4 grid run broadcasts with the
  // SAME tag concurrently; context isolation must keep them apart.
  Runtime::run(16, [](Comm& world) {
    const int row = world.rank() / 4, col = world.rank() % 4;
    Comm row_comm = world.split(row, col);
    Comm col_comm = world.split(100 + col, row);
    for (int iter = 0; iter < 10; ++iter) {
      std::uint64_t rv = row_comm.rank() == iter % 4
                             ? static_cast<std::uint64_t>(1000 + row)
                             : 0;
      std::uint64_t cv = col_comm.rank() == iter % 4
                             ? static_cast<std::uint64_t>(2000 + col)
                             : 0;
      row_comm.bcast(std::span<std::uint64_t>(&rv, 1), iter % 4);
      col_comm.ring_bcast(std::span<std::uint64_t>(&cv, 1), iter % 4);
      ASSERT_EQ(rv, static_cast<std::uint64_t>(1000 + row));
      ASSERT_EQ(cv, static_cast<std::uint64_t>(2000 + col));
    }
  });
}

TEST(Stress, ManyRanksBarrierStorm) {
  const int p = 32;
  Runtime::run(p, [](Comm& c) {
    for (int i = 0; i < 50; ++i) c.barrier();
  });
  SUCCEED();
}

TEST(Stress, LargePayloadsThroughBothBroadcasts) {
  const std::size_t mb = 4u << 20;
  Runtime::run(5, [&](Comm& c) {
    std::vector<std::uint8_t> buf(mb);
    if (c.rank() == 2)
      for (std::size_t i = 0; i < buf.size(); ++i)
        buf[i] = static_cast<std::uint8_t>(i * 2654435761u >> 24);
    c.bcast_bytes(buf, 2, 7);
    for (std::size_t i = 0; i < buf.size(); i += 4097)
      ASSERT_EQ(buf[i], static_cast<std::uint8_t>(i * 2654435761u >> 24));
    std::vector<std::uint8_t> buf2(mb);
    if (c.rank() == 4)
      for (std::size_t i = 0; i < buf2.size(); ++i)
        buf2[i] = static_cast<std::uint8_t>(i * 40503u >> 16);
    c.ring_bcast_bytes(buf2, 4, 8);
    for (std::size_t i = 0; i < buf2.size(); i += 4097)
      ASSERT_EQ(buf2[i], static_cast<std::uint8_t>(i * 40503u >> 16));
  });
}

TEST(Stress, TrafficTotalsAreDeterministic) {
  auto run_once = [] {
    RuntimeOptions opt;
    opt.node_model = NodeModel::contiguous(8, 2);
    return Runtime::run(8, [](Comm& c) {
      std::vector<std::uint8_t> buf(10000, 3);
      for (int root = 0; root < 3; ++root)
        c.ring_bcast_bytes(buf, root, 11 + root);
      c.barrier();
      if (c.rank() > 0) c.send_bytes(buf, 0, 12);
      if (c.rank() == 0) {
        std::vector<std::uint8_t> sink(10000);
        for (int r = 1; r < 8; ++r) c.recv_bytes(sink, r, 12);
      }
    }, opt);
  };
  const auto a = run_once();
  const auto b = run_once();
  EXPECT_EQ(a.bytes_total, b.bytes_total);
  EXPECT_EQ(a.bytes_internode, b.bytes_internode);
  EXPECT_EQ(a.messages, b.messages);
}

// --- seeded fault-matrix sweep (DESIGN.md "Resilience") ------------------------

using S = MinPlus<float>;

Matrix<float> fault_oracle(std::size_t n, const DenseEntryGen<float>& gen) {
  auto m = gen.full(static_cast<vertex_t>(n));
  floyd_warshall<S>(m.view());
  return m;
}

struct FaultKind {
  const char* name;
  double drop, dup, delay;
};

constexpr FaultKind kFaultKinds[] = {
    {"drop", 0.05, 0.0, 0.0},
    {"dup", 0.0, 0.08, 0.0},
    {"delay", 0.0, 0.0, 0.15},
};

constexpr dist::Variant kVariants[] = {
    dist::Variant::kBaseline, dist::Variant::kPipelined,
    dist::Variant::kAsync, dist::Variant::kOffload};

TEST(FaultMatrix, EveryKindVariantAndPlacementCompletesExactly) {
  // drop / delay / dup x all 4 variants x both placements: the run must
  // complete within the retry budget, match the sequential oracle
  // bit-for-bit, and keep the LOGICAL byte accounting identical to the
  // fault-free run — that identity is what keeps the DES-vs-real wire
  // cross-validation (sched_test DesVsReal) exact under faults.
  const std::size_t n = 48, b = 8;
  DenseEntryGen<float> gen(606, 0.9, 1.0f, 80.0f, /*integral=*/true);
  const auto expected = fault_oracle(n, gen);

  for (const bool tiled : {false, true}) {
    const auto grid = tiled ? dist::GridSpec::tiled(2, 1, 1, 2)
                            : dist::GridSpec::row_major(2, 2);
    for (const auto variant : kVariants) {
      dist::DistFwOptions opt;
      opt.variant = variant;
      opt.block_size = b;
      if (variant == dist::Variant::kOffload) {
        opt.oog.mx = opt.oog.nx = 2 * b;
        opt.oog.num_streams = 2;
      }
      const auto clean = dist::run_parallel_fw<S>(n, gen, grid, 2, opt);

      for (const FaultKind& kind : kFaultKinds) {
        dist::DistFwOptions fopt = opt;
        fopt.faults.seed = 321;
        fopt.faults.drop_prob = kind.drop;
        fopt.faults.dup_prob = kind.dup;
        fopt.faults.delay_prob = kind.delay;
        fopt.faults.delay_seconds = 0.0005;
        fopt.resilience.send_timeout = 0.002;
        const auto faulty = dist::run_parallel_fw<S>(n, gen, grid, 2, fopt);

        const std::string where = std::string(kind.name) + " x " +
                                  dist::variant_name(variant) +
                                  (tiled ? " x tiled" : " x row_major");
        EXPECT_EQ(max_abs_diff<float>(expected.view(), faulty.dist.view()),
                  0.0)
            << where;
        EXPECT_EQ(faulty.traffic.messages, clean.traffic.messages) << where;
        EXPECT_EQ(faulty.traffic.bytes_total, clean.traffic.bytes_total)
            << where;
        EXPECT_EQ(faulty.traffic.bytes_internode,
                  clean.traffic.bytes_internode)
            << where;
        EXPECT_EQ(faulty.restarts, 0) << where;
        const auto injected = faulty.traffic.drops_injected +
                              faulty.traffic.dups_injected +
                              faulty.traffic.delays_injected;
        EXPECT_GT(injected, 0u) << where;
        if (kind.drop > 0) {
          EXPECT_GT(faulty.traffic.retries, 0u) << where;
          EXPECT_GT(faulty.traffic.retry_bytes, 0u) << where;
        }
        if (kind.dup > 0) {
          EXPECT_GT(faulty.traffic.dup_discarded, 0u) << where;
        }
      }
    }
  }
}

TEST(FaultMatrix, CountersAreDeterministicAcrossReplays) {
  // fault_roll is a pure function of (seed, flow, seq, attempt), so two
  // identical runs must inject the identical fault set regardless of
  // thread interleaving.
  const std::size_t n = 48, b = 8;
  DenseEntryGen<float> gen(607, 0.9, 1.0f, 80.0f, /*integral=*/true);
  auto run_once = [&] {
    dist::DistFwOptions opt;
    opt.variant = dist::Variant::kAsync;
    opt.block_size = b;
    opt.faults.seed = 98765;
    opt.faults.drop_prob = 0.04;
    opt.faults.dup_prob = 0.04;
    opt.faults.delay_prob = 0.1;
    opt.faults.delay_seconds = 0.0005;
    opt.resilience.send_timeout = 0.002;
    return dist::run_parallel_fw<S>(n, gen,
                                    dist::GridSpec::row_major(2, 2), 2, opt);
  };
  const auto a = run_once();
  const auto b2 = run_once();
  EXPECT_EQ(a.traffic.drops_injected, b2.traffic.drops_injected);
  EXPECT_EQ(a.traffic.dups_injected, b2.traffic.dups_injected);
  EXPECT_EQ(a.traffic.delays_injected, b2.traffic.delays_injected);
  EXPECT_EQ(a.traffic.dup_discarded, b2.traffic.dup_discarded);
  EXPECT_EQ(max_abs_diff<float>(a.dist.view(), b2.dist.view()), 0.0);
}

TEST(FaultMatrix, P2pFifoAndContentSurviveEveryFaultKind) {
  // The reliability envelope must hand application code the exact
  // fault-free stream: per-(src,tag) FIFO order and payload content,
  // whichever fault kind is active underneath.
  const int p = 4;
  const int msgs_per_pair = 30;
  for (const FaultKind& kind : kFaultKinds) {
    RuntimeOptions opt;
    opt.node_model = NodeModel::contiguous(p, 2);
    opt.faults.seed = 11 + static_cast<std::uint64_t>(kind.drop * 100);
    opt.faults.drop_prob = kind.drop;
    opt.faults.dup_prob = kind.dup;
    opt.faults.delay_prob = kind.delay;
    opt.faults.delay_seconds = 0.0005;
    opt.send_timeout = 0.002;
    Runtime::run(
        p,
        [&](Comm& c) {
          for (int dst = 0; dst < p; ++dst) {
            if (dst == c.rank()) continue;
            for (int s = 0; s < msgs_per_pair; ++s) {
              const std::uint64_t payload =
                  static_cast<std::uint64_t>(c.rank()) * 1000000 +
                  static_cast<std::uint64_t>(dst) * 1000 +
                  static_cast<std::uint64_t>(s);
              c.send_value(payload, dst, /*tag=*/60);
            }
          }
          for (int src = 0; src < p; ++src) {
            if (src == c.rank()) continue;
            for (int s = 0; s < msgs_per_pair; ++s) {
              const auto got = c.recv_value<std::uint64_t>(src, 60);
              EXPECT_EQ(got, static_cast<std::uint64_t>(src) * 1000000 +
                                 static_cast<std::uint64_t>(c.rank()) * 1000 +
                                 static_cast<std::uint64_t>(s))
                  << kind.name;
            }
          }
          c.barrier();
        },
        opt);
  }
}

}  // namespace
}  // namespace parfw::mpi
