// Offload engine tests: ooGSrGemm correctness vs in-core SRGEMM (values
// and values+predecessors) across chunk geometries and stream counts,
// transfer-volume accounting against the §4.5 cost model, the per-chunk
// trace and metric contract of every entry point, and the full offload
// blocked FW vs sequential FW.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <string>
#include <tuple>
#include <vector>

#include "core/floyd_warshall.hpp"
#include "graph/generators.hpp"
#include "graph/graph.hpp"
#include "offload/offload_fw.hpp"
#include "offload/oog_srgemm.hpp"
#include "sched/trace.hpp"
#include "semiring/semiring.hpp"
#include "telemetry/metrics.hpp"
#include "util/rng.hpp"

namespace parfw {
namespace {

using S = MinPlus<float>;

Matrix<float> random_panel(std::size_t r, std::size_t c, std::uint64_t seed) {
  DenseEntryGen<float> gen(seed, 0.95, 1.0f, 60.0f, /*integral=*/true);
  Matrix<float> m(r, c);
  gen.fill_block(0, 0, m.view());
  return m;
}

class OogGeometry : public ::testing::TestWithParam<
                        std::tuple<int, int, int, int, int>> {};
// (m, n, k, chunk, streams)

TEST_P(OogGeometry, MatchesInCoreSrgemm) {
  const auto [m, n, k, chunk, streams] = GetParam();
  auto A = random_panel(m, k, 1);
  auto B = random_panel(k, n, 2);
  auto C0 = random_panel(m, n, 3);
  auto C1 = C0.clone();
  srgemm::multiply<S>(A.view(), B.view(), C0.view());

  dev::Device device;
  offload::OogConfig cfg;
  cfg.mx = static_cast<std::size_t>(chunk);
  cfg.nx = static_cast<std::size_t>(chunk);
  cfg.num_streams = static_cast<std::size_t>(streams);
  const auto stats =
      offload::oog_srgemm<S>(device, A.view(), B.view(), C1.view(), cfg);
  device.synchronize();
  EXPECT_EQ(max_abs_diff<float>(C0.view(), C1.view()), 0.0);
  // §4.5 volume terms: uploads (m+n)k, downloads m·n.
  EXPECT_EQ(stats.elems_h2d, static_cast<std::size_t>(m + n) *
                                 static_cast<std::size_t>(k));
  EXPECT_EQ(stats.elems_d2h,
            static_cast<std::size_t>(m) * static_cast<std::size_t>(n));
}

/// Deterministic predecessor ids in [0, 1000) — any values work; the test
/// only needs the pred lane to carry them through bit for bit.
Matrix<std::int64_t> random_ids(std::size_t r, std::size_t c,
                                std::uint64_t seed) {
  Matrix<std::int64_t> p(r, c);
  Rng rng(seed);
  for (std::size_t i = 0; i < r; ++i)
    for (std::size_t j = 0; j < c; ++j)
      p(i, j) = static_cast<std::int64_t>(rng.next_below(1000));
  return p;
}

// The values+predecessors payload over the same geometries: the chunked
// pipeline must reproduce the fused host kernel in distances AND preds.
TEST_P(OogGeometry, PredMatchesFusedKernel) {
  const auto [m, n, k, chunk, streams] = GetParam();
  auto A = random_panel(m, k, 1);
  auto B = random_panel(k, n, 2);
  auto C0 = random_panel(m, n, 3);
  auto C1 = C0.clone();
  auto predB = random_ids(k, n, 4);
  auto P0 = random_ids(m, n, 5);
  auto P1 = P0.clone();
  srgemm::multiply_with_pred<S>(A.view(), B.view(), C0.view(), predB.view(),
                                P0.view());

  dev::Device device;
  offload::OogConfig cfg;
  cfg.mx = static_cast<std::size_t>(chunk);
  cfg.nx = static_cast<std::size_t>(chunk);
  cfg.num_streams = static_cast<std::size_t>(streams);
  const auto stats = offload::oog_srgemm_pred<S>(
      device, A.view(), B.view(), C1.view(), predB.view(), P1.view(), cfg);
  device.synchronize();
  EXPECT_EQ(max_abs_diff<float>(C0.view(), C1.view()), 0.0);
  std::size_t pred_mismatch = 0;
  for (int i = 0; i < m; ++i)
    for (int j = 0; j < n; ++j)
      pred_mismatch += P0(i, j) != P1(i, j) ? 1 : 0;
  EXPECT_EQ(pred_mismatch, 0u);
  // OogStats counts value elements only, whatever the payload.
  EXPECT_EQ(stats.elems_h2d, static_cast<std::size_t>(m + n) *
                                 static_cast<std::size_t>(k));
  EXPECT_EQ(stats.elems_d2h,
            static_cast<std::size_t>(m) * static_cast<std::size_t>(n));
}

INSTANTIATE_TEST_SUITE_P(
    Geometry, OogGeometry,
    ::testing::Values(std::tuple{64, 64, 16, 32, 1},
                      std::tuple{64, 64, 16, 32, 2},
                      std::tuple{64, 64, 16, 32, 3},
                      std::tuple{100, 80, 24, 32, 4},
                      std::tuple{97, 61, 13, 30, 3},   // ragged chunks
                      std::tuple{128, 128, 32, 128, 3},  // single chunk
                      std::tuple{40, 200, 8, 64, 5},
                      std::tuple{256, 256, 64, 64, 3}));

TEST(OogSrgemm, PanelsUploadedExactlyOnce) {
  // Panel caching (§4.4): bytes_h2d counted by the device must equal the
  // logical volume — uploading a panel twice would double it.
  const std::size_t m = 96, n = 96, k = 16;
  auto A = random_panel(m, k, 7);
  auto B = random_panel(k, n, 8);
  auto C = random_panel(m, n, 9);
  dev::Device device;
  offload::OogConfig cfg;
  cfg.mx = cfg.nx = 32;  // 3x3 chunk grid: each panel reused 3 times
  cfg.num_streams = 3;
  offload::oog_srgemm<S>(device, A.view(), B.view(), C.view(), cfg);
  device.synchronize();
  EXPECT_EQ(device.counters().bytes_h2d, (m + n) * k * sizeof(float));
}

TEST(OogSrgemm, RespectsDeviceCapacity) {
  // Working set: dA(m·k) + dB(k·n) + s·mx·nx floats must fit; beyond that
  // the allocation throws.
  const std::size_t m = 64, n = 64, k = 16;
  auto A = random_panel(m, k, 11);
  auto B = random_panel(k, n, 12);
  auto C = random_panel(m, n, 13);
  offload::OogConfig cfg;
  cfg.mx = cfg.nx = 32;
  cfg.num_streams = 2;
  const std::size_t need =
      (m * k + k * n + 2 * cfg.mx * cfg.nx) * sizeof(float);
  {
    dev::DeviceConfig dc;
    dc.memory_bytes = need;
    dev::Device device(dc);
    EXPECT_NO_THROW(
        offload::oog_srgemm<S>(device, A.view(), B.view(), C.view(), cfg));
    device.synchronize();
  }
  {
    dev::DeviceConfig dc;
    dc.memory_bytes = need - 64;
    dev::Device device(dc);
    auto C2 = random_panel(m, n, 13);
    EXPECT_THROW(
        offload::oog_srgemm<S>(device, A.view(), B.view(), C2.view(), cfg),
        dev::DeviceOutOfMemory);
    device.synchronize();
  }
}

TEST(OogSrgemm, WorksOnSubViews) {
  // The offload FW passes strided sub-views of the big host matrix.
  auto big = random_panel(120, 120, 21);
  auto expected = big.clone();
  auto A = big.sub(0, 0, 80, 16);
  auto B = big.sub(0, 0, 16, 70);
  srgemm::multiply<S>(expected.sub(0, 0, 80, 16), expected.sub(0, 0, 16, 70),
                      expected.sub(30, 30, 80, 70));
  dev::Device device;
  offload::OogConfig cfg;
  cfg.mx = cfg.nx = 32;
  offload::oog_srgemm<S>(device, A, B, big.sub(30, 30, 80, 70), cfg);
  device.synchronize();
  EXPECT_EQ(max_abs_diff<float>(expected.view(), big.view()), 0.0);
}

TEST(OogSrgemmDevice, MatchesHostPanelsVariant) {
  // Upload panels manually, then run the device-resident variant; the
  // result must match the uploading variant and move zero h2d bytes.
  const std::size_t m = 96, n = 80, k = 16;
  auto A = random_panel(m, k, 31);
  auto B = random_panel(k, n, 32);
  auto C0 = random_panel(m, n, 33);
  auto C1 = C0.clone();

  dev::Device device;
  offload::OogConfig cfg;
  cfg.mx = cfg.nx = 32;
  cfg.num_streams = 3;
  offload::oog_srgemm<S>(device, A.view(), B.view(), C0.view(), cfg);
  device.synchronize();

  auto dA = device.alloc<float>(m * k);
  auto dB = device.alloc<float>(k * n);
  {
    auto st = device.create_stream();
    device.memcpy_h2d(*st, dA.data(), A.data(), m * k * sizeof(float));
    device.memcpy_h2d(*st, dB.data(), B.data(), k * n * sizeof(float));
    st->synchronize();
  }
  device.reset_counters();
  const auto stats = offload::oog_srgemm_device<S>(
      device, dA.data(), k, dB.data(), n, m, n, k, C1.view(), cfg);
  device.synchronize();
  EXPECT_EQ(max_abs_diff<float>(C0.view(), C1.view()), 0.0);
  EXPECT_EQ(stats.elems_h2d, 0u);
  EXPECT_EQ(device.counters().bytes_h2d, 0u);
  EXPECT_EQ(stats.elems_d2h, m * n);
}

TEST(OogSrgemmDevice, StridedPanelViews) {
  // Quadrant slicing: dA/dB address sub-blocks of larger device images
  // via leading dimensions, exactly how offload FW carves its panels.
  const std::size_t big_n = 64, bk = 8;
  auto col_panel = random_panel(big_n, bk, 41);  // n x b image
  auto row_panel = random_panel(bk, big_n, 42);  // b x n image
  auto C0 = random_panel(24, 40, 43);
  auto C1 = C0.clone();

  // Host reference: quadrant rows [16,40) x cols [8,48).
  srgemm::multiply<S>(col_panel.sub(16, 0, 24, bk), row_panel.sub(0, 8, bk, 40),
                      C0.view());

  dev::Device device;
  auto d_col = device.alloc<float>(big_n * bk);
  auto d_row = device.alloc<float>(bk * big_n);
  {
    auto st = device.create_stream();
    device.memcpy_h2d(*st, d_col.data(), col_panel.data(),
                      big_n * bk * sizeof(float));
    device.memcpy_h2d(*st, d_row.data(), row_panel.data(),
                      bk * big_n * sizeof(float));
    st->synchronize();
  }
  offload::OogConfig cfg;
  cfg.mx = cfg.nx = 16;
  offload::oog_srgemm_device<S>(device, d_col.data() + 16 * bk, bk,
                                d_row.data() + 8, big_n, 24, 40, bk,
                                C1.view(), cfg);
  device.synchronize();
  EXPECT_EQ(max_abs_diff<float>(C0.view(), C1.view()), 0.0);
}

// --- Trace and metric contract of every entry point -------------------------

enum class Entry { kValues, kPred, kDevice };

std::string entry_name(const ::testing::TestParamInfo<Entry>& info) {
  switch (info.param) {
    case Entry::kValues: return "values";
    case Entry::kPred: return "pred";
    case Entry::kDevice: return "device";
  }
  return "?";
}

class OogContract : public ::testing::TestWithParam<Entry> {};

// Each chunk emits one oogDev kSend and one oogWait kRecv joined on
// (ctx = kDeviceChannelCtx + rank, seq) plus one oogHost, all carrying the
// chunk payload; the oog.* counters match their closed forms.
TEST_P(OogContract, ChunkEventsAndCounters) {
  const Entry entry = GetParam();
  const bool pred = entry == Entry::kPred;
  const std::size_t elem = sizeof(float) + (pred ? sizeof(std::int64_t) : 0);
  const int rank = 2;
  // (m, n, k, chunk): ragged 4x3 chunk grid, and a single chunk.
  for (auto [m, n, k, chunk] : {std::tuple<std::size_t, std::size_t,
                                           std::size_t, std::size_t>{
                                    97, 61, 13, 30},
                                {40, 40, 8, 64}}) {
    for (std::size_t s = 1; s <= 5; s += 2) {
      SCOPED_TRACE(::testing::Message() << m << "x" << n << "x" << k
                                        << " chunk=" << chunk << " s=" << s);
      auto A = random_panel(m, k, 51);
      auto B = random_panel(k, n, 52);
      auto C = random_panel(m, n, 53);
      auto predB = random_ids(k, n, 54);
      auto predC = random_ids(m, n, 55);
      dev::Device device;
      auto dA = device.alloc<float>(m * k);
      auto dB = device.alloc<float>(k * n);
      if (entry == Entry::kDevice) {
        auto st = device.create_stream();
        device.memcpy_h2d(*st, dA.data(), A.data(), m * k * sizeof(float));
        device.memcpy_h2d(*st, dB.data(), B.data(), k * n * sizeof(float));
        st->synchronize();
      }
      sched::CollectTraceSink sink;
      telemetry::Registry reg;
      offload::OogConfig cfg;
      cfg.mx = cfg.nx = chunk;
      cfg.num_streams = s;
      cfg.trace = &sink;
      cfg.trace_rank = rank;
      cfg.metrics = &reg;
      offload::OogStats stats;
      switch (entry) {
        case Entry::kValues:
          stats = offload::oog_srgemm<S>(device, A.view(), B.view(), C.view(),
                                         cfg);
          break;
        case Entry::kPred:
          stats = offload::oog_srgemm_pred<S>(device, A.view(), B.view(),
                                              C.view(), predB.view(),
                                              predC.view(), cfg);
          break;
        case Entry::kDevice:
          stats = offload::oog_srgemm_device<S>(device, dA.data(), k,
                                                dB.data(), n, m, n, k,
                                                C.view(), cfg);
          break;
      }
      device.synchronize();

      const std::size_t mb = (m + chunk - 1) / chunk;
      const std::size_t nb = (n + chunk - 1) / chunk;
      const std::size_t chunks = mb * nb;
      EXPECT_EQ(stats.blocks, chunks);
      EXPECT_EQ(stats.elems_h2d, entry == Entry::kDevice ? 0 : (m + n) * k);
      EXPECT_EQ(stats.elems_d2h, m * n);

      // Chunk q = i·nb + j carries nr x nc elements of `elem` bytes.
      auto payload = [&](std::uint64_t q) {
        const std::size_t i = q / nb, j = q % nb;
        const std::size_t nr = std::min(chunk, m - i * chunk);
        const std::size_t nc = std::min(chunk, n - j * chunk);
        return static_cast<std::int64_t>(nr * nc * elem);
      };
      const std::uint64_t ctx =
          sched::kDeviceChannelCtx + static_cast<std::uint64_t>(rank);
      std::vector<int> sends(chunks, 0), recvs(chunks, 0);
      std::vector<double> send_t(chunks, 0.0);
      std::size_t hosts = 0;
      const auto events = sink.events();
      for (const auto& e : events) {
        ASSERT_EQ(e.rank, rank);
        const std::string name = e.name;
        if (name == "oogHost") {
          EXPECT_EQ(e.ek, sched::EventKind::kSpan);
          // Chunks retire in launch order.
          EXPECT_EQ(e.bytes, payload(hosts));
          ++hosts;
          continue;
        }
        ASSERT_TRUE(name == "oogDev" || name == "oogWait") << name;
        EXPECT_EQ(e.ctx, ctx);
        EXPECT_EQ(e.peer, rank);
        ASSERT_LT(e.seq, chunks);
        if (name == "oogDev") {
          EXPECT_EQ(e.ek, sched::EventKind::kSend);
          EXPECT_EQ(e.bytes, payload(e.seq));
          ++sends[e.seq];
          send_t[e.seq] = e.t_begin;
        } else {
          EXPECT_EQ(e.ek, sched::EventKind::kRecv);
          EXPECT_EQ(sends[e.seq], 1) << "wait before its launch, seq "
                                     << e.seq;
          EXPECT_GE(e.t_begin, send_t[e.seq]);
          ++recvs[e.seq];
        }
      }
      EXPECT_EQ(hosts, chunks);
      for (std::size_t q = 0; q < chunks; ++q) {
        EXPECT_EQ(sends[q], 1) << "seq " << q;
        EXPECT_EQ(recvs[q], 1) << "seq " << q;
      }

      // Closed forms: panels go up once (B's pred panel rides along on
      // paths runs); every chunk comes down padded to the buffer stride.
      const std::size_t h2d =
          entry == Entry::kDevice
              ? 0
              : m * k * sizeof(float) +
                    k * n * (pred ? sizeof(float) + sizeof(std::int64_t)
                                  : sizeof(float));
      const std::size_t d2h = (nb * (m - mb) * chunk + mb * n) * elem;
      EXPECT_EQ(reg.counter("oog.bytes_h2d").value(), h2d);
      EXPECT_EQ(reg.counter("oog.bytes_d2h").value(), d2h);
      EXPECT_EQ(reg.gauge("oog.inflight_max").value(),
                static_cast<double>(std::min(s, chunks)));
      EXPECT_EQ(reg.histogram("oog.host_update_seconds").count(), chunks);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Entry, OogContract,
                         ::testing::Values(Entry::kValues, Entry::kPred,
                                           Entry::kDevice),
                         entry_name);

class OffloadFwParam : public ::testing::TestWithParam<std::tuple<int, int>> {};
// (n, block_size)

TEST_P(OffloadFwParam, MatchesSequentialFw) {
  const auto [n, b] = GetParam();
  DenseEntryGen<float> gen(500 + n, 0.9, 1.0f, 80.0f, /*integral=*/true);
  auto expected = gen.full(n);
  floyd_warshall<S>(expected.view());

  auto m = gen.full(n);
  dev::Device device;
  offload::OffloadFwOptions opt;
  opt.block_size = static_cast<std::size_t>(b);
  opt.oog.mx = opt.oog.nx = 32;
  opt.oog.num_streams = 3;
  const auto stats = offload::offload_blocked_fw<S>(device, m.view(), opt);
  device.synchronize();
  EXPECT_EQ(max_abs_diff<float>(expected.view(), m.view()), 0.0)
      << "n=" << n << " b=" << b;
  EXPECT_EQ(stats.iterations, (static_cast<std::size_t>(n) + b - 1) / b);
  // Panels are uploaded exactly once per iteration (§4.4): total h2d =
  // Σ_k (b_k² + 2·n·b_k); the outer update streams results only.
  std::size_t expected_h2d = 0;
  const std::size_t ns = static_cast<std::size_t>(n);
  for (std::size_t k0 = 0; k0 < ns; k0 += b) {
    const std::size_t bk = std::min<std::size_t>(b, ns - k0);
    expected_h2d += bk * bk + 2 * ns * bk;
  }
  EXPECT_EQ(stats.elems_h2d, expected_h2d);
}

INSTANTIATE_TEST_SUITE_P(Sweep, OffloadFwParam,
                         ::testing::Values(std::tuple{32, 8},
                                           std::tuple{64, 16},
                                           std::tuple{96, 32},
                                           std::tuple{100, 30},
                                           std::tuple{128, 64}));

TEST(OffloadFw, ClassicDiagStrategyAlsoCorrect) {
  const int n = 80;
  DenseEntryGen<float> gen(901, 1.0, 1.0f, 40.0f, /*integral=*/true);
  auto expected = gen.full(n);
  floyd_warshall<S>(expected.view());
  auto m = gen.full(n);
  dev::Device device;
  offload::OffloadFwOptions opt;
  opt.block_size = 20;
  opt.diag = DiagStrategy::kClassic;
  opt.oog.mx = opt.oog.nx = 40;
  offload::offload_blocked_fw<S>(device, m.view(), opt);
  device.synchronize();
  EXPECT_EQ(max_abs_diff<float>(expected.view(), m.view()), 0.0);
}

TEST(OffloadFw, HostMatrixLargerThanDeviceMemory) {
  // The headline property: close a matrix whose footprint exceeds device
  // capacity. n=128 floats = 64 KiB host matrix; device gets 24 KiB.
  const std::size_t n = 128, b = 16;
  DenseEntryGen<float> gen(903, 1.0, 1.0f, 25.0f, /*integral=*/true);
  auto expected = gen.full(static_cast<vertex_t>(n));
  floyd_warshall<S>(expected.view());
  auto m = gen.full(static_cast<vertex_t>(n));
  dev::DeviceConfig dc;
  dc.memory_bytes = 40 << 10;  // 40 KiB device vs a 64 KiB host matrix
  dev::Device device(dc);
  offload::OffloadFwOptions opt;
  opt.block_size = b;
  opt.oog.mx = opt.oog.nx = 16;
  opt.oog.num_streams = 2;
  offload::offload_blocked_fw<S>(device, m.view(), opt);
  device.synchronize();
  EXPECT_LT(device.counters().peak_bytes_in_use, n * n * sizeof(float));
  EXPECT_EQ(max_abs_diff<float>(expected.view(), m.view()), 0.0);
}

}  // namespace
}  // namespace parfw
