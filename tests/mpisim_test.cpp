// Message-passing runtime tests: p2p matching, nonblocking ops,
// collectives (tree + ring), communicator split, barriers, NIC traffic
// accounting under the node model.
#include <gtest/gtest.h>

#include <array>
#include <atomic>
#include <cstdint>
#include <numeric>
#include <vector>

#include "mpisim/communicator.hpp"
#include "mpisim/runtime.hpp"

namespace parfw::mpi {
namespace {

TEST(P2p, SendRecvRoundTrip) {
  Runtime::run(2, [](Comm& c) {
    if (c.rank() == 0) {
      const std::vector<int> data{1, 2, 3, 4};
      c.send(std::span<const int>(data.data(), data.size()), 1, 5);
      const int echoed = c.recv_value<int>(1, 6);
      EXPECT_EQ(echoed, 10);
    } else {
      std::vector<int> data(4);
      c.recv(std::span<int>(data.data(), data.size()), 0, 5);
      EXPECT_EQ(data, (std::vector<int>{1, 2, 3, 4}));
      c.send_value(std::accumulate(data.begin(), data.end(), 0), 0, 6);
    }
  });
}

TEST(P2p, TagsKeepMessagesApart) {
  Runtime::run(2, [](Comm& c) {
    if (c.rank() == 0) {
      c.send_value<int>(111, 1, /*tag=*/1);
      c.send_value<int>(222, 1, /*tag=*/2);
    } else {
      // Receive in the opposite order of sending: matching is by tag.
      EXPECT_EQ(c.recv_value<int>(0, 2), 222);
      EXPECT_EQ(c.recv_value<int>(0, 1), 111);
    }
  });
}

TEST(P2p, FifoWithinKey) {
  Runtime::run(2, [](Comm& c) {
    if (c.rank() == 0) {
      for (int i = 0; i < 20; ++i) c.send_value(i, 1, 9);
    } else {
      for (int i = 0; i < 20; ++i) EXPECT_EQ(c.recv_value<int>(0, 9), i);
    }
  });
}

TEST(P2p, SizeMismatchThrows) {
  EXPECT_THROW(Runtime::run(2,
                            [](Comm& c) {
                              if (c.rank() == 0) {
                                c.send_value<std::int64_t>(1, 1, 3);
                              } else {
                                (void)c.recv_value<std::int32_t>(0, 3);
                              }
                            }),
               check_error);
}

TEST(P2p, NonblockingIrecvCompletesAtWait) {
  Runtime::run(2, [](Comm& c) {
    if (c.rank() == 0) {
      c.send_value<double>(2.5, 1, 4);
    } else {
      double slot = 0.0;
      Request r = c.irecv(std::span<double>(&slot, 1), 0, 4);
      EXPECT_TRUE(r.pending());
      r.wait();
      EXPECT_FALSE(r.pending());
      EXPECT_EQ(slot, 2.5);
    }
  });
}

class BcastSizes : public ::testing::TestWithParam<std::tuple<int, int>> {};
// (world size, payload bytes)

TEST_P(BcastSizes, TreeBcastDeliversEverywhere) {
  const auto [p, bytes] = GetParam();
  Runtime::run(p, [bytes = bytes, p = p](Comm& c) {
    for (int root = 0; root < p; ++root) {
      std::vector<std::uint8_t> buf(static_cast<std::size_t>(bytes));
      if (c.rank() == root)
        for (std::size_t i = 0; i < buf.size(); ++i)
          buf[i] = static_cast<std::uint8_t>((i + static_cast<std::size_t>(root)) & 0xff);
      c.bcast_bytes(buf, root, /*tag=*/-10 - root);
      for (std::size_t i = 0; i < buf.size(); ++i)
        ASSERT_EQ(buf[i],
                  static_cast<std::uint8_t>((i + static_cast<std::size_t>(root)) & 0xff));
    }
  });
}

TEST_P(BcastSizes, RingBcastDeliversEverywhere) {
  const auto [p, bytes] = GetParam();
  Runtime::run(p, [bytes = bytes, p = p](Comm& c) {
    for (int root = 0; root < p; ++root) {
      std::vector<std::uint8_t> buf(static_cast<std::size_t>(bytes));
      if (c.rank() == root)
        for (std::size_t i = 0; i < buf.size(); ++i)
          buf[i] = static_cast<std::uint8_t>((i * 3 + static_cast<std::size_t>(root)) & 0xff);
      c.ring_bcast_bytes(buf, root, /*tag=*/-20 - root);
      for (std::size_t i = 0; i < buf.size(); ++i)
        ASSERT_EQ(buf[i],
                  static_cast<std::uint8_t>((i * 3 + static_cast<std::size_t>(root)) & 0xff));
    }
  });
}

INSTANTIATE_TEST_SUITE_P(
    Sizes, BcastSizes,
    ::testing::Values(std::tuple{1, 64}, std::tuple{2, 100},
                      std::tuple{3, 1000}, std::tuple{4, 0},
                      std::tuple{7, 200000},  // > ring segment size
                      std::tuple{8, 4096}, std::tuple{13, 77777}));

TEST(Collectives, RingBandwidthOptimal) {
  // Every non-root rank receives the payload once and every rank except
  // the tail sends it once: total bytes on the wire = (p-1) * payload.
  const int p = 6;
  const std::size_t payload = 96 << 10;
  const auto traffic = Runtime::run(p, [&](Comm& c) {
    std::vector<std::uint8_t> buf(payload, 1);
    c.ring_bcast_bytes(buf, 0, -30);
  });
  EXPECT_EQ(traffic.bytes_total, static_cast<std::uint64_t>(p - 1) * payload);
}

TEST(Collectives, TreeBcastAlsoMovesMinimalVolume) {
  // A binomial tree also sends exactly p-1 copies in total (but its
  // critical path is log p serial sends of the FULL payload).
  const int p = 8;
  const std::size_t payload = 10000;
  const auto traffic = Runtime::run(p, [&](Comm& c) {
    std::vector<std::uint8_t> buf(payload, 2);
    c.bcast_bytes(buf, 3, -31);
  });
  EXPECT_EQ(traffic.bytes_total, static_cast<std::uint64_t>(p - 1) * payload);
}

TEST(Collectives, Allreduce) {
  for (int p : {1, 2, 3, 5, 8}) {
    Runtime::run(p, [p](Comm& c) {
      std::vector<int> v{c.rank(), 10 * c.rank()};
      c.allreduce(std::span<int>(v.data(), v.size()),
                  [](int a, int b) { return a + b; });
      const int sum = p * (p - 1) / 2;
      EXPECT_EQ(v[0], sum);
      EXPECT_EQ(v[1], 10 * sum);
    });
  }
}

TEST(Collectives, ReduceToEveryRoot) {
  const int p = 6;
  Runtime::run(p, [p](Comm& c) {
    for (int root = 0; root < p; ++root) {
      std::vector<int> v{c.rank() + 1, 100};
      c.reduce(std::span<int>(v.data(), v.size()),
               [](int a, int b) { return a + b; }, root);
      if (c.rank() == root) {
        EXPECT_EQ(v[0], p * (p + 1) / 2);
        EXPECT_EQ(v[1], 100 * p);
      }
    }
  });
}

TEST(Collectives, ReduceMaxOp) {
  Runtime::run(5, [](Comm& c) {
    int v = (c.rank() * 7) % 5;
    c.reduce(std::span<int>(&v, 1), [](int a, int b) { return std::max(a, b); },
             2);
    if (c.rank() == 2) {
      EXPECT_EQ(v, 4);
    }
  });
}

TEST(Collectives, Scatter) {
  Runtime::run(4, [](Comm& c) {
    std::vector<double> all;
    if (c.rank() == 1)
      for (int i = 0; i < 8; ++i) all.push_back(i * 1.5);
    std::array<double, 2> mine{};
    c.scatter(std::span<const double>(all.data(), all.size()),
              std::span<double>(mine.data(), 2), 1);
    EXPECT_EQ(mine[0], c.rank() * 2 * 1.5);
    EXPECT_EQ(mine[1], (c.rank() * 2 + 1) * 1.5);
  });
}

TEST(Collectives, AllToAll) {
  const int p = 5;
  Runtime::run(p, [p](Comm& c) {
    // rank r sends value 100*r + j to rank j.
    std::vector<int> send(static_cast<std::size_t>(p));
    std::vector<int> recv(static_cast<std::size_t>(p), -1);
    for (int j = 0; j < p; ++j)
      send[static_cast<std::size_t>(j)] = 100 * c.rank() + j;
    c.alltoall(std::span<const int>(send.data(), send.size()),
               std::span<int>(recv.data(), recv.size()), 1);
    for (int i = 0; i < p; ++i)
      EXPECT_EQ(recv[static_cast<std::size_t>(i)], 100 * i + c.rank());
  });
}

TEST(Collectives, Gather) {
  Runtime::run(5, [](Comm& c) {
    const std::array<int, 2> mine{c.rank(), c.rank() * c.rank()};
    std::vector<int> all(c.rank() == 2 ? 10 : 0);
    c.gather(std::span<const int>(mine.data(), 2),
             std::span<int>(all.data(), all.size()), 2);
    if (c.rank() == 2) {
      for (int r = 0; r < 5; ++r) {
        EXPECT_EQ(all[static_cast<std::size_t>(2 * r)], r);
        EXPECT_EQ(all[static_cast<std::size_t>(2 * r + 1)], r * r);
      }
    }
  });
}

TEST(Collectives, Barrier) {
  const int p = 6;
  Runtime::run(p, [](Comm& c) {
    static std::atomic<int> phase_count{0};
    for (int phase = 0; phase < 10; ++phase) {
      phase_count.fetch_add(1);
      c.barrier();
      // After the barrier everyone must observe all increments of this phase.
      EXPECT_GE(phase_count.load(), (phase + 1) * c.size());
      c.barrier();
    }
  });
  }

TEST(Split, GridRowsAndColumns) {
  // 6 ranks as a 2x3 grid; split into row and column communicators and
  // check ranks and sizes — the exact pattern parallel_fw uses.
  Runtime::run(6, [](Comm& world) {
    const int row = world.rank() / 3, col = world.rank() % 3;
    Comm row_comm = world.split(row, col);
    Comm col_comm = world.split(100 + col, row);
    EXPECT_EQ(row_comm.size(), 3);
    EXPECT_EQ(col_comm.size(), 2);
    EXPECT_EQ(row_comm.rank(), col);
    EXPECT_EQ(col_comm.rank(), row);
    // Sub-communicator p2p must be isolated from world traffic.
    if (col == 0) {
      row_comm.send_value(world.rank(), 1, 77);
    } else if (col == 1) {
      EXPECT_EQ(row_comm.recv_value<int>(0, 77), row * 3);
    }
  });
}

TEST(Split, SubCommunicatorCollectives) {
  Runtime::run(8, [](Comm& world) {
    Comm half = world.split(world.rank() % 2, world.rank());
    int v = half.rank() == 0 ? 42 + (world.rank() % 2) : -1;
    half.bcast(std::span<int>(&v, 1), 0);
    EXPECT_EQ(v, 42 + world.rank() % 2);
    half.barrier();
  });
}

TEST(Traffic, NodeModelCountsOnlyInternodeBytes) {
  RuntimeOptions opt;
  opt.node_model = NodeModel::contiguous(4, 2);  // nodes {0,1}, {2,3}
  const auto traffic = Runtime::run(
      4,
      [](Comm& c) {
        std::uint8_t byte[100] = {};
        if (c.rank() == 0) c.send_bytes(byte, 1, 1);       // intra-node
        if (c.rank() == 1) c.recv_bytes(byte, 0, 1);
        if (c.rank() == 0) c.send_bytes(byte, 2, 2);       // inter-node
        if (c.rank() == 2) c.recv_bytes(byte, 0, 2);
      },
      opt);
  EXPECT_EQ(traffic.bytes_total, 200u);
  EXPECT_EQ(traffic.bytes_internode, 100u);
  EXPECT_EQ(traffic.nic_bytes[0], 100u);
  EXPECT_EQ(traffic.nic_bytes[1], 100u);
  EXPECT_EQ(traffic.max_nic_bytes, 100u);
}

TEST(Traffic, MessageCount) {
  const auto traffic = Runtime::run(3, [](Comm& c) {
    if (c.rank() != 0) c.send_value(c.rank(), 0, 1);
    if (c.rank() == 0) {
      (void)c.recv_value<int>(1, 1);
      (void)c.recv_value<int>(2, 1);
    }
  });
  EXPECT_EQ(traffic.messages, 2u);
}

TEST(Runtime, RankExceptionPropagates) {
  EXPECT_THROW(Runtime::run(3,
                            [](Comm& c) {
                              if (c.rank() == 1) PARFW_CHECK(false);
                            }),
               check_error);
}

}  // namespace
}  // namespace parfw::mpi
