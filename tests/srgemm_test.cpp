// SRGEMM kernel tests: the value kernel vs the naive oracle across shapes,
// semirings, tilings and entry points, the naive fallback for a semiring
// without SIMD forms, argmin tracking, element-wise ops, parallel driver.
#include <gtest/gtest.h>

#include <cstdint>
#include <limits>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include "core/blocked_fw.hpp"
#include "core/floyd_warshall.hpp"
#include "semiring/semiring.hpp"
#include "srgemm/srgemm.hpp"
#include "telemetry/metrics.hpp"
#include "util/rng.hpp"

namespace parfw {
namespace {

template <typename T>
Matrix<T> random_matrix(std::size_t r, std::size_t c, std::uint64_t seed,
                        double inf_prob = 0.0) {
  Matrix<T> m(r, c);
  Rng rng(seed);
  for (std::size_t i = 0; i < r; ++i)
    for (std::size_t j = 0; j < c; ++j)
      m(i, j) = rng.next_double() < inf_prob
                    ? value_traits<T>::infinity()
                    : static_cast<T>(rng.next_double() * 100.0);
  return m;
}

using Shape = std::tuple<int, int, int>;  // m, n, k

class SrgemmShapes : public ::testing::TestWithParam<Shape> {};

TEST_P(SrgemmShapes, TiledMatchesNaiveMinPlusFloat) {
  using S = MinPlus<float>;
  const auto [m, n, k] = GetParam();
  auto A = random_matrix<float>(m, k, 1, 0.1);
  auto B = random_matrix<float>(k, n, 2, 0.1);
  auto C0 = random_matrix<float>(m, n, 3, 0.2);
  auto C1 = C0.clone();
  srgemm::multiply_reference<S>(A.view(), B.view(), C0.view());
  srgemm::multiply<S>(A.view(), B.view(), C1.view());
  EXPECT_EQ(max_abs_diff<float>(C0.view(), C1.view()), 0.0)
      << "shape " << m << "x" << n << "x" << k;
}

TEST_P(SrgemmShapes, TiledMatchesNaivePlusTimesDouble) {
  // The non-idempotent semiring catches double-accumulation bugs that
  // min-plus would silently absorb.
  using S = PlusTimes<double>;
  const auto [m, n, k] = GetParam();
  auto A = random_matrix<double>(m, k, 4);
  auto B = random_matrix<double>(k, n, 5);
  auto C0 = random_matrix<double>(m, n, 6);
  auto C1 = C0.clone();
  srgemm::multiply_reference<S>(A.view(), B.view(), C0.view());
  srgemm::multiply<S>(A.view(), B.view(), C1.view());
  EXPECT_LT(max_abs_diff<double>(C0.view(), C1.view()), 1e-6);
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, SrgemmShapes,
    ::testing::Values(Shape{1, 1, 1}, Shape{4, 16, 8}, Shape{5, 17, 9},
                      Shape{64, 64, 64}, Shape{63, 65, 31}, Shape{128, 40, 70},
                      Shape{3, 200, 1}, Shape{200, 3, 257}, Shape{33, 47, 129},
                      Shape{100, 100, 100}));

TEST(Srgemm, MaxMinSemiring) {
  using S = MaxMin<float>;
  auto A = random_matrix<float>(20, 30, 7);
  auto B = random_matrix<float>(30, 25, 8);
  Matrix<float> C0(20, 25, S::zero());
  auto C1 = C0.clone();
  srgemm::multiply_reference<S>(A.view(), B.view(), C0.view());
  srgemm::multiply<S>(A.view(), B.view(), C1.view());
  EXPECT_EQ(max_abs_diff<float>(C0.view(), C1.view()), 0.0);
}

TEST(Srgemm, MinPlusIdentityMatrix) {
  // A ⊗ I == A over min-plus: I has one() on the diagonal, zero() elsewhere.
  using S = MinPlus<float>;
  const std::size_t n = 37;
  auto A = random_matrix<float>(n, n, 11);
  Matrix<float> I(n, n, S::zero());
  for (std::size_t i = 0; i < n; ++i) I(i, i) = S::one();
  Matrix<float> C(n, n, S::zero());
  srgemm::multiply<S>(A.view(), I.view(), C.view());
  EXPECT_EQ(max_abs_diff<float>(A.view(), C.view()), 0.0);
}

TEST(Srgemm, AccumulatesIntoC) {
  // Entries of C better than any product path must survive.
  using S = MinPlus<float>;
  Matrix<float> A(2, 2, 10.0f), B(2, 2, 10.0f);
  Matrix<float> C(2, 2, 1.0f);
  srgemm::multiply<S>(A.view(), B.view(), C.view());
  for (std::size_t i = 0; i < 2; ++i)
    for (std::size_t j = 0; j < 2; ++j) EXPECT_EQ(C(i, j), 1.0f);
}

TEST(Srgemm, ParallelDriverMatchesSequential) {
  using S = MinPlus<float>;
  ThreadPool pool(4);
  auto A = random_matrix<float>(300, 90, 21, 0.05);
  auto B = random_matrix<float>(90, 210, 22, 0.05);
  auto C0 = random_matrix<float>(300, 210, 23);
  auto C1 = C0.clone();
  srgemm::Config seq{};
  srgemm::Config par{};
  par.pool = &pool;
  srgemm::multiply<S>(A.view(), B.view(), C0.view(), seq);
  srgemm::multiply<S>(A.view(), B.view(), C1.view(), par);
  EXPECT_EQ(max_abs_diff<float>(C0.view(), C1.view()), 0.0);
}

TEST(Srgemm, PackedKernelMatchesUnpacked) {
  // multiply packs its operands; multiply_prepacked streams them in place.
  using S = MinPlus<float>;
  for (auto [m, n, k] : {std::tuple{65, 130, 70}, std::tuple{4, 16, 256},
                         std::tuple{129, 257, 300}}) {
    auto A = random_matrix<float>(m, k, 71, 0.05);
    auto B = random_matrix<float>(k, n, 72, 0.05);
    auto C0 = random_matrix<float>(m, n, 73);
    auto C1 = C0.clone();
    srgemm::multiply<S>(A.view(), B.view(), C0.view());
    srgemm::multiply_prepacked<S>(A.view(), B.view(), C1.view());
    EXPECT_EQ(max_abs_diff<float>(C0.view(), C1.view()), 0.0)
        << m << "x" << n << "x" << k;
  }
}

TEST(Srgemm, PackedKernelOnStridedViews) {
  using S = MinPlus<float>;
  auto big = random_matrix<float>(300, 300, 74);
  auto expected = big.clone();
  srgemm::multiply_reference<S>(expected.sub(0, 0, 100, 50),
                                expected.sub(0, 100, 50, 80),
                                expected.sub(100, 100, 100, 80));
  srgemm::multiply<S>(big.sub(0, 0, 100, 50), big.sub(0, 100, 50, 80),
                      big.sub(100, 100, 100, 80));
  EXPECT_EQ(max_abs_diff<float>(expected.view(), big.view()), 0.0);
}

TEST(Srgemm, ShapeMismatchThrows) {
  using S = MinPlus<float>;
  Matrix<float> A(3, 4), B(5, 6), C(3, 6);
  EXPECT_THROW(srgemm::multiply<S>(A.view(), B.view(), C.view()), check_error);
}

TEST(Srgemm, StridedViewsWork) {
  // Operate on sub-blocks of larger allocations (the blocked-FW pattern).
  using S = MinPlus<float>;
  auto big = random_matrix<float>(100, 100, 31);
  auto A = big.sub(10, 10, 20, 30);
  auto B = big.sub(40, 40, 30, 25);
  Matrix<float> C0(20, 25, S::zero());
  auto C1 = C0.clone();
  srgemm::multiply_reference<S>(A, B, C0.view());
  srgemm::multiply<S>(A, B, C1.view());
  EXPECT_EQ(max_abs_diff<float>(C0.view(), C1.view()), 0.0);
}

// ---------------------------------------------------------------------------
// Fused predecessor-tracking kernel (multiply_with_pred) vs scalar oracle.
// ---------------------------------------------------------------------------

/// Random values in 1..50 (integral, so ties are common) with the given
/// share of zero().
template <typename S>
void fill_pred_operand(Matrix<typename S::value_type>& mat, Rng& rng,
                       double inf_prob) {
  using T = typename S::value_type;
  for (std::size_t i = 0; i < mat.rows(); ++i)
    for (std::size_t j = 0; j < mat.cols(); ++j)
      mat(i, j) = rng.next_double() < inf_prob
                      ? S::zero()
                      : static_cast<T>(1 + rng.next_below(50));
}

/// multiply_with_pred vs multiply_with_pred_reference on one m x n x k
/// product, under `cfg`: values and preds must be bit-identical. With
/// `prepacked` the product goes through multiply_payload, which streams
/// the operands in place instead of packing them.
template <typename S>
void check_pred_shape(std::size_t m, std::size_t n, std::size_t k,
                      std::uint64_t seed, const srgemm::Config& cfg,
                      bool prepacked = false) {
  using T = typename S::value_type;
  Rng rng(seed);
  Matrix<T> A(m, k), B(k, n), C(m, n);
  fill_pred_operand<S>(A, rng, 0.15);
  fill_pred_operand<S>(B, rng, 0.15);
  fill_pred_operand<S>(C, rng, 0.4);
  Matrix<std::int64_t> predB(k, n), predC(m, n, -1);
  for (std::size_t t = 0; t < k; ++t)
    for (std::size_t j = 0; j < n; ++j)
      predB(t, j) = static_cast<std::int64_t>(rng.next_below(1000));

  auto C_ref = C.clone();
  auto P_ref = predC.clone();
  srgemm::multiply_with_pred_reference<S>(A.view(), B.view(), C_ref.view(),
                                          predB.view(), P_ref.view());
  auto C_got = C.clone();
  auto P_got = predC.clone();
  if (prepacked)
    srgemm::multiply_payload<S>(A.view(), B.view(), C_got.view(),
                                predB.view(), P_got.view(), cfg,
                                /*prepacked=*/true);
  else
    srgemm::multiply_with_pred<S>(A.view(), B.view(), C_got.view(),
                                  predB.view(), P_got.view(), cfg);

  const bool pooled = cfg.pool != nullptr;
  EXPECT_EQ(max_abs_diff<T>(C_ref.view(), C_got.view()), 0.0)
      << m << "x" << n << "x" << k << " tile_k " << cfg.tile_k
      << (pooled ? " pooled" : "") << (prepacked ? " prepacked" : "");
  std::size_t mism = 0;
  for (std::size_t i = 0; i < m; ++i)
    for (std::size_t j = 0; j < n; ++j)
      if (P_ref(i, j) != P_got(i, j)) ++mism;
  EXPECT_EQ(mism, 0u) << m << "x" << n << "x" << k << " tile_k "
                      << cfg.tile_k << (pooled ? " pooled" : "")
                      << (prepacked ? " prepacked" : "");
}

/// The argmin kernel against the scalar oracle on: a few plain shapes;
/// every m mod MR crossed with every n mod NR (the argmin fragment's
/// columns, so the one-vector tail and the scalar edge both run); and
/// depths past the 256-deep k chunk that are multiples of nothing, so k
/// chunks compose. Each shape runs sequentially under Config{}, under
/// Config{} with the operands streamed in place (multiply_payload's
/// prepacked path), sequentially under small tiles (tile_k = 20: many
/// chunks), and under the small tiles on a 4-worker pool. Rows of C are
/// independent when B !≡ C, so the pool split must be bit-identical too.
template <typename S>
void check_pred_kernel(std::uint64_t seed) {
  using T = typename S::value_type;
  constexpr std::size_t MR = srgemm::detail::kMicroRows;
  constexpr std::size_t NR =
      srgemm::detail::kMicroVecs * simd::native_lanes<T>();
  std::vector<std::tuple<std::size_t, std::size_t, std::size_t>> shapes = {
      {1, 1, 1}, {3, 5, 2}, {7, 65, 9}, {33, 47, 25}, {64, 64, 64},
      {9, 70, 263}, {13, 37, 301}};
  for (std::size_t r = 0; r < MR; ++r)
    for (std::size_t c = 0; c < NR; ++c)
      shapes.emplace_back(2 * MR + r, NR + c, 19 + r);

  ThreadPool pool(4);
  srgemm::Config small;
  small.tile_m = 8;
  small.tile_n = 24;
  small.tile_k = 20;
  srgemm::Config small_pooled = small;
  small_pooled.pool = &pool;
  for (const auto& [m, n, k] : shapes) {
    const std::uint64_t s = seed + m * 1000 + n * 7 + k;
    check_pred_shape<S>(m, n, k, s, srgemm::Config{});
    check_pred_shape<S>(m, n, k, s, srgemm::Config{}, /*prepacked=*/true);
    check_pred_shape<S>(m, n, k, s, small);
    check_pred_shape<S>(m, n, k, s, small_pooled);
  }
}

TEST(SrgemmPred, FusedKernelMatchesScalarOracleMinPlusFloat) {
  check_pred_kernel<MinPlus<float>>(91);
}
TEST(SrgemmPred, FusedKernelMatchesScalarOracleMinPlusDouble) {
  check_pred_kernel<MinPlus<double>>(92);
}
TEST(SrgemmPred, FusedKernelMatchesScalarOracleMinPlusInt32) {
  check_pred_kernel<MinPlus<std::int32_t>>(93);
}
TEST(SrgemmPred, FusedKernelMatchesScalarOracleMaxMinFloat) {
  check_pred_kernel<MaxMin<float>>(94);
}

TEST(SrgemmPred, RecordsDispatchMetricsWhenEnabled) {
  // multiply_with_pred lands in the same srgemm.* series as multiply(),
  // once per call: under kernel=argmin when B does not alias C, under
  // kernel=pred for the row panel (B ≡ C) — and records nothing while
  // ambient telemetry is off.
  using S = MinPlus<float>;
  const std::size_t m = 12, n = 20, k = 7;
  auto A = random_matrix<float>(m, k, 96);
  auto B = random_matrix<float>(k, n, 97);
  auto C = random_matrix<float>(m, n, 98);
  auto akk = random_matrix<float>(k, k, 99);
  auto strip = random_matrix<float>(k, n, 100);
  Matrix<std::int64_t> predB(k, n, 0), predC(m, n, -1), pstrip(k, n, 0);
  telemetry::Registry& reg = telemetry::Registry::global();
  struct Series {
    const telemetry::Counter& calls;
    const telemetry::Counter& flops;
    const telemetry::Histogram& secs;
    std::uint64_t calls0, flops0, secs0;
  };
  auto series = [&](const std::string& labels) {
    const telemetry::Counter& calls = reg.counter("srgemm.calls", labels);
    const telemetry::Counter& flops = reg.counter("srgemm.flops", labels);
    const telemetry::Histogram& secs = reg.histogram("srgemm.seconds", labels);
    return Series{calls, flops, secs, calls.value(), flops.value(),
                  secs.count()};
  };
  const Series argmin = series("kernel=argmin");
  const Series pred = series("kernel=pred");
  const bool was_enabled = telemetry::enabled();

  auto product = [&] {
    srgemm::multiply_with_pred<S>(A.view(), B.view(), C.view(), predB.view(),
                                  predC.view());
  };
  auto row_panel = [&] {
    srgemm::multiply_with_pred<S>(akk.view(), strip.view(), strip.view(),
                                  pstrip.view(), pstrip.view());
  };
  telemetry::set_enabled(false);
  product();
  row_panel();
  EXPECT_EQ(argmin.calls.value(), argmin.calls0);
  EXPECT_EQ(pred.calls.value(), pred.calls0);
  telemetry::set_enabled(true);
  for (int rep = 0; rep < 3; ++rep) product();
  for (int rep = 0; rep < 2; ++rep) row_panel();
  telemetry::set_enabled(was_enabled);

  EXPECT_EQ(argmin.calls.value() - argmin.calls0, 3u);
  EXPECT_EQ(argmin.flops.value() - argmin.flops0,
            static_cast<std::uint64_t>(3 * srgemm::flops(m, n, k)));
  EXPECT_EQ(argmin.secs.count() - argmin.secs0, 3u);
  EXPECT_EQ(pred.calls.value() - pred.calls0, 2u);
  EXPECT_EQ(pred.flops.value() - pred.flops0,
            static_cast<std::uint64_t>(2 * srgemm::flops(k, n, k)));
  EXPECT_EQ(pred.secs.count() - pred.secs0, 2u);
}

/// Test-local row-buffered oracle of a blocked-FW panel update: each row's
/// values and preds are computed from the row as it stood before the call
/// (A(i,·) and C(i,·) read from one snapshot), by an ascending-t scan that
/// takes strict improvements, and committed after the whole scan. A ≡ C
/// and B ≡ C both mean "the snapshot of row i".
template <typename S>
void row_buffered_oracle(MatrixView<typename S::value_type> C,
                         MatrixView<std::int64_t> predC,
                         MatrixView<const typename S::value_type> A,
                         MatrixView<const typename S::value_type> B,
                         MatrixView<const std::int64_t> predB, bool a_is_c,
                         bool b_is_c) {
  using T = typename S::value_type;
  const std::size_t m = C.rows(), n = C.cols(), k = A.cols();
  for (std::size_t i = 0; i < m; ++i) {
    std::vector<T> row(C.data() + i * C.ld(), C.data() + i * C.ld() + n);
    std::vector<std::int64_t> prow(predC.data() + i * predC.ld(),
                                   predC.data() + i * predC.ld() + n);
    std::vector<T> best = row;
    std::vector<std::int64_t> bp = prow;
    for (std::size_t t = 0; t < k; ++t) {
      const T a = a_is_c ? row[t] : A(i, t);
      for (std::size_t j = 0; j < n; ++j) {
        const T b = b_is_c ? C(t, j) : B(t, j);
        const std::int64_t pb = b_is_c ? predC(t, j) : predB(t, j);
        const T cand = S::mul(a, b);
        if (S::less_add(cand, best[j])) {
          best[j] = cand;
          bp[j] = pb;
        }
      }
    }
    std::copy(best.begin(), best.end(), C.data() + i * C.ld());
    std::copy(bp.begin(), bp.end(), predC.data() + i * predC.ld());
  }
}

/// A closed b x b diagonal block full of integral ties, and distinct ids.
template <typename S>
std::pair<Matrix<typename S::value_type>, Matrix<std::int64_t>> closed_akk(
    std::size_t b, std::uint64_t seed) {
  using T = typename S::value_type;
  Rng rng(seed);
  Matrix<T> akk(b, b);
  fill_pred_operand<S>(akk, rng, 0.3);
  for (std::size_t d = 0; d < b; ++d) akk(d, d) = S::one();
  floyd_warshall<S>(akk.view());
  Matrix<std::int64_t> pkk(b, b);
  for (std::size_t t = 0; t < b; ++t)
    for (std::size_t j = 0; j < b; ++j)
      pkk(t, j) = static_cast<std::int64_t>(t * 1000 + j);
  return {std::move(akk), std::move(pkk)};
}

template <typename S>
void check_column_panel_alias(std::size_t m, std::size_t b,
                              std::uint64_t seed) {
  using T = typename S::value_type;
  auto [akk, pkk] = closed_akk<S>(b, seed);
  Rng rng(seed + 1);
  Matrix<T> panel(m, b);
  fill_pred_operand<S>(panel, rng, 0.3);
  Matrix<std::int64_t> ppanel(m, b, -1);

  auto C_ref = panel.clone();
  auto P_ref = ppanel.clone();
  row_buffered_oracle<S>(C_ref.view(), P_ref.view(), C_ref.view(),
                         akk.view(), pkk.view(), /*a_is_c=*/true,
                         /*b_is_c=*/false);
  ThreadPool pool(4);
  srgemm::Config small;
  small.tile_m = 8;
  small.tile_n = 24;
  small.tile_k = 20;
  srgemm::Config small_pooled = small;
  small_pooled.pool = &pool;
  for (const srgemm::Config& cfg : {srgemm::Config{}, small, small_pooled})
    for (const bool prepacked : {false, true}) {
      auto C = panel.clone();
      auto P = ppanel.clone();
      srgemm::multiply_payload<S>(C.view(), akk.view(), C.view(), pkk.view(),
                                  P.view(), cfg, prepacked);
      EXPECT_EQ(max_abs_diff<T>(C_ref.view(), C.view()), 0.0)
          << m << "x" << b << " tile_k " << cfg.tile_k << " prepacked "
          << prepacked;
      for (std::size_t i = 0; i < m; ++i)
        for (std::size_t j = 0; j < b; ++j)
          ASSERT_EQ(P_ref(i, j), P(i, j)) << i << "," << j << " tile_k "
                                          << cfg.tile_k << " prepacked "
                                          << prepacked;
    }
}

TEST(SrgemmPred, ColumnPanelAliasMatchesRowSweep) {
  // Blocked FW's column panel and dist PanelUpdateCol call the product
  // with A ≡ C. The argmin kernel must read the pre-update row of A even
  // after writing earlier fragments of that row; otherwise ties pick a
  // different t and the preds change.
  check_column_panel_alias<MinPlus<float>>(70, 48, 601);
  check_column_panel_alias<MinPlus<std::int32_t>>(37, 67, 602);
  check_column_panel_alias<MaxMin<float>>(45, 33, 603);
  check_column_panel_alias<MinPlus<double>>(11, 270, 604);
}

TEST(SrgemmPred, RowPanelAliasKeepsRowSweep) {
  // The row panel (B ≡ C) carries dependencies across rows, so it stays on
  // the row-buffered sweep: recorded under kernel=pred, never argmin, and
  // equal to the row-buffered oracle.
  using S = MinPlus<float>;
  const std::size_t b = 40, n = 90;
  auto [akk, pkk] = closed_akk<S>(b, 611);
  Rng rng(612);
  Matrix<float> strip(b, n);
  fill_pred_operand<S>(strip, rng, 0.3);
  Matrix<std::int64_t> pstrip(b, n);
  for (std::size_t t = 0; t < b; ++t)
    for (std::size_t j = 0; j < n; ++j)
      pstrip(t, j) = static_cast<std::int64_t>(t * 1000 + j);

  auto C_ref = strip.clone();
  auto P_ref = pstrip.clone();
  row_buffered_oracle<S>(C_ref.view(), P_ref.view(), akk.view(),
                         C_ref.view(), P_ref.view(), /*a_is_c=*/false,
                         /*b_is_c=*/true);

  telemetry::Registry& reg = telemetry::Registry::global();
  const telemetry::Counter& pred = reg.counter("srgemm.calls", "kernel=pred");
  const telemetry::Counter& argmin =
      reg.counter("srgemm.calls", "kernel=argmin");
  const std::uint64_t pred0 = pred.value(), argmin0 = argmin.value();
  const bool was_enabled = telemetry::enabled();
  telemetry::set_enabled(true);
  srgemm::multiply_with_pred<S>(akk.view(), strip.view(), strip.view(),
                                pstrip.view(), pstrip.view());
  telemetry::set_enabled(was_enabled);
  EXPECT_EQ(pred.value() - pred0, 1u);
  EXPECT_EQ(argmin.value(), argmin0);
  EXPECT_EQ(max_abs_diff<float>(C_ref.view(), strip.view()), 0.0);
  for (std::size_t i = 0; i < b; ++i)
    for (std::size_t j = 0; j < n; ++j)
      ASSERT_EQ(P_ref(i, j), pstrip(i, j)) << i << "," << j;
}

TEST(SrgemmPred, EwiseMergeEquivalentToFusedKernel) {
  // The offload pipeline computes the chunk product into a zero()-filled X
  // with pred attachment, then merges with ewise_add_with_pred; the result
  // must be bit-identical to running the fused kernel on C directly.
  using S = MinPlus<float>;
  const std::size_t m = 33, n = 47, k = 25;
  Rng rng(95);
  auto fill = [&](Matrix<float>& mat, double inf_prob) {
    for (std::size_t i = 0; i < mat.rows(); ++i)
      for (std::size_t j = 0; j < mat.cols(); ++j)
        mat(i, j) = rng.next_double() < inf_prob
                        ? S::zero()
                        : static_cast<float>(1 + rng.next_below(50));
  };
  Matrix<float> A(m, k), B(k, n), C(m, n);
  fill(A, 0.15);
  fill(B, 0.15);
  fill(C, 0.4);
  Matrix<std::int64_t> predB(k, n), predC(m, n, -1);
  for (std::size_t t = 0; t < k; ++t)
    for (std::size_t j = 0; j < n; ++j)
      predB(t, j) = static_cast<std::int64_t>(rng.next_below(1000));

  auto C_fused = C.clone();
  auto P_fused = predC.clone();
  srgemm::multiply_with_pred<S>(A.view(), B.view(), C_fused.view(),
                                predB.view(), P_fused.view());

  Matrix<float> X(m, n, S::zero());
  Matrix<std::int64_t> Xp(m, n, -1);
  srgemm::multiply_with_pred<S>(A.view(), B.view(), X.view(), predB.view(),
                                Xp.view());
  auto C_merged = C.clone();
  auto P_merged = predC.clone();
  srgemm::ewise_add_with_pred<S>(X.view(), Xp.view(), C_merged.view(),
                                 P_merged.view());

  EXPECT_EQ(max_abs_diff<float>(C_fused.view(), C_merged.view()), 0.0);
  for (std::size_t i = 0; i < m; ++i)
    for (std::size_t j = 0; j < n; ++j)
      ASSERT_EQ(P_fused(i, j), P_merged(i, j)) << i << "," << j;
}

// ---------------------------------------------------------------------------
// Value-kernel cross-validation: every configuration and entry point must
// produce a bit-identical result to the naive oracle, on fringe shapes (m,
// n, k not multiples of MR/NR/tile sizes) and on strided sub-views, for
// every vectorizable FW semiring.
// ---------------------------------------------------------------------------

/// Runs the product under {small tiles, Config{}, small tiles split over a
/// 4-worker pool} x {multiply (packs), multiply_prepacked (streams in
/// place)} and expects each result to equal `expected` exactly.
template <typename S>
void expect_all_variants(MatrixView<const typename S::value_type> A,
                         MatrixView<const typename S::value_type> B,
                         MatrixView<const typename S::value_type> C0,
                         MatrixView<const typename S::value_type> expected,
                         const std::string& what) {
  using T = typename S::value_type;
  ThreadPool pool(4);
  srgemm::Config small;  // small tiles: the shapes cross tile boundaries
  small.tile_m = 16;
  small.tile_n = 32;
  small.tile_k = 24;
  srgemm::Config pooled = small;
  pooled.pool = &pool;
  const std::pair<const char*, srgemm::Config> configs[] = {
      {"small tiles", small}, {"Config{}", srgemm::Config{}},
      {"pooled", pooled}};
  for (const auto& [name, cfg] : configs) {
    for (const bool prepacked : {false, true}) {
      Matrix<T> C(C0.rows(), C0.cols());
      C.view().copy_from(C0);
      if (prepacked)
        srgemm::multiply_prepacked<S>(A, B, C.view(), cfg);
      else
        srgemm::multiply<S>(A, B, C.view(), cfg);
      EXPECT_EQ(max_abs_diff<T>(expected, C.view()), 0.0)
          << what << ", " << name
          << (prepacked ? ", multiply_prepacked" : ", multiply");
    }
  }
}

template <typename S>
void check_all_kernels(std::uint64_t seed, double inf_prob) {
  using T = typename S::value_type;
  // Deliberately awkward shapes: below one micro-tile, fringe in every
  // dimension, and spanning several macro tiles.
  for (auto [m, n, k] :
       {std::tuple{1, 1, 1}, std::tuple{3, 5, 2}, std::tuple{7, 65, 9},
        std::tuple{33, 47, 25}, std::tuple{65, 130, 70},
        std::tuple{100, 31, 129}}) {
    Matrix<T> A(m, k), B(k, n), C0(m, n);
    Rng rng(seed);
    auto fill = [&](Matrix<T>& mat) {
      for (std::size_t i = 0; i < mat.rows(); ++i)
        for (std::size_t j = 0; j < mat.cols(); ++j)
          mat(i, j) = rng.next_double() < inf_prob
                          ? S::zero()
                          : static_cast<T>(rng.next_double() * 60.0);
    };
    fill(A);
    fill(B);
    fill(C0);
    auto expected = C0.clone();
    srgemm::multiply_reference<S>(A.view(), B.view(), expected.view());
    expect_all_variants<S>(A.view(), B.view(), C0.view(), expected.view(),
                           "shape " + std::to_string(m) + "x" +
                               std::to_string(n) + "x" + std::to_string(k));
  }
}

TEST(SrgemmKernels, AllVariantsMatchReferenceMinPlusFloat) {
  check_all_kernels<MinPlus<float>>(101, 0.15);
}

TEST(SrgemmKernels, AllVariantsMatchReferenceMinPlusInt32) {
  // Integral tropical ⊗ exercises the vsat_add sentinel/overflow path.
  check_all_kernels<MinPlus<std::int32_t>>(102, 0.15);
}

TEST(SrgemmKernels, IntegralSaturationWithNegativeWeights) {
  // inf ⊗ w must stay absorbing even for negative w; the SIMD vsat_add
  // pins infinite lanes explicitly (clamping alone would yield inf + w).
  using S = MinPlus<std::int32_t>;
  const std::size_t m = 37, n = 53, k = 29;
  Matrix<std::int32_t> A(m, k), B(k, n), C0(m, n);
  Rng rng(107);
  auto fill = [&](Matrix<std::int32_t>& mat) {
    for (std::size_t i = 0; i < mat.rows(); ++i)
      for (std::size_t j = 0; j < mat.cols(); ++j) {
        const double u = rng.next_double();
        mat(i, j) = u < 0.2 ? value_traits<std::int32_t>::infinity()
                            : static_cast<std::int32_t>(u * 100.0) - 40;
      }
  };
  fill(A);
  fill(B);
  fill(C0);
  auto expected = C0.clone();
  srgemm::multiply_reference<S>(A.view(), B.view(), expected.view());
  expect_all_variants<S>(A.view(), B.view(), C0.view(), expected.view(),
                         "negative weights");
}

TEST(SrgemmKernels, AllVariantsMatchReferenceMaxMin) {
  check_all_kernels<MaxMin<float>>(103, 0.1);
}

TEST(SrgemmKernels, AllVariantsMatchReferenceBoolOr) {
  using S = BoolOrAnd;
  for (auto [m, n, k] : {std::tuple{5, 67, 9}, std::tuple{64, 64, 64},
                         std::tuple{77, 130, 131}}) {
    Matrix<std::uint8_t> A(m, k), B(k, n), C0(m, n);
    Rng rng(104);
    auto fill = [&](Matrix<std::uint8_t>& mat) {
      for (std::size_t i = 0; i < mat.rows(); ++i)
        for (std::size_t j = 0; j < mat.cols(); ++j)
          mat(i, j) = rng.next_double() < 0.3 ? 1 : 0;
    };
    fill(A);
    fill(B);
    fill(C0);
    auto expected = C0.clone();
    srgemm::multiply_reference<S>(A.view(), B.view(), expected.view());
    expect_all_variants<S>(A.view(), B.view(), C0.view(), expected.view(),
                           "bool " + std::to_string(m));
  }
}

TEST(SrgemmKernels, AllVariantsOnStridedSubViews) {
  // Operands carved out of one backing matrix with ld >> cols — the
  // blocked-FW panel pattern.
  using S = MinPlus<float>;
  auto big = random_matrix<float>(260, 260, 105, 0.05);
  auto A = big.sub(3, 7, 60, 41);
  auto B = big.sub(70, 11, 41, 83);
  auto C0 = random_matrix<float>(60, 83, 106);
  auto expected = C0.clone();
  srgemm::multiply_reference<S>(A, B, expected.view());
  expect_all_variants<S>(A, B, C0.view(), expected.view(), "strided");
}

TEST(SrgemmKernels, PowerOfTwoLeadingDimensions) {
  // Operands carved from backings whose row stride is a 4 KiB multiple
  // (ld = 1024 and 2048 floats), with n off every NR multiple: multiply
  // re-strides B into a padded_ld pack buffer, and the prepacked entry
  // streams B in place at the aliasing stride.
  using S = MinPlus<float>;
  for (std::size_t ld : {1024u, 2048u}) {
    auto backing = random_matrix<float>(200, ld, 120 + ld, 0.05);
    auto c_backing = random_matrix<float>(80, ld, 121 + ld);
    const std::size_t m = 70, n = ld - 37, k = 90;
    auto A = backing.sub(3, 5, m, k);
    auto B = backing.sub(100, 17, k, n);
    auto C0 = c_backing.sub(2, 9, m, n);
    Matrix<float> expected(m, n);
    expected.view().copy_from(C0);
    srgemm::multiply_reference<S>(A, B, expected.view());
    expect_all_variants<S>(A, B, C0, expected.view(),
                           "ld " + std::to_string(ld));
  }
}

TEST(SrgemmKernels, SimdParallelDriverMatchesSequential) {
  using S = MinPlus<float>;
  ThreadPool pool(4);
  auto A = random_matrix<float>(300, 90, 111, 0.05);
  auto B = random_matrix<float>(90, 210, 112, 0.05);
  auto C0 = random_matrix<float>(300, 210, 113);
  auto C1 = C0.clone();
  srgemm::Config seq;
  seq.tile_m = 16;
  seq.tile_n = 32;
  seq.tile_k = 24;
  auto par = seq;
  par.pool = &pool;
  srgemm::multiply<S>(A.view(), B.view(), C0.view(), seq);
  srgemm::multiply<S>(A.view(), B.view(), C1.view(), par);
  EXPECT_EQ(max_abs_diff<float>(C0.view(), C1.view()), 0.0);
}

/// A tropical semiring with no simd_ops specialisation: every product on
/// it must take the naive fallback.
struct ScalarMinPlus {
  using value_type = float;
  static constexpr float zero() {
    return std::numeric_limits<float>::infinity();
  }
  static constexpr float one() { return 0.0f; }
  static constexpr float add(float x, float y) { return x < y ? x : y; }
  static constexpr float mul(float x, float y) { return x + y; }
  static constexpr bool less_add(float x, float y) { return x < y; }
};
static_assert(!simd_ops<ScalarMinPlus>::available);

TEST(Srgemm, SemiringWithoutSimdOpsUsesNaiveFallback) {
  using S = ScalarMinPlus;
  for (auto [m, n, k] : {std::tuple{3, 5, 2}, std::tuple{65, 130, 70}}) {
    auto A = random_matrix<float>(m, k, 131, 0.1);
    auto B = random_matrix<float>(k, n, 132, 0.1);
    auto C0 = random_matrix<float>(m, n, 133, 0.2);
    auto expected = C0.clone();
    srgemm::multiply_reference<S>(A.view(), B.view(), expected.view());
    expect_all_variants<S>(A.view(), B.view(), C0.view(), expected.view(),
                           "no simd_ops " + std::to_string(m));
  }

  // The dispatch says which body ran.
  telemetry::Registry& reg = telemetry::Registry::global();
  const telemetry::Counter& calls = reg.counter("srgemm.calls", "kernel=naive");
  const std::uint64_t calls0 = calls.value();
  const bool was_enabled = telemetry::enabled();
  telemetry::set_enabled(true);
  Matrix<float> A(4, 3, 1.0f), B(3, 5, 2.0f), C(4, 5, S::zero());
  srgemm::multiply<S>(A.view(), B.view(), C.view());
  telemetry::set_enabled(was_enabled);
  EXPECT_EQ(calls.value() - calls0, 1u);
  EXPECT_EQ(C(3, 4), 3.0f);

  // The whole single-node engine runs on it, against the sequential
  // oracle. Integral weights keep every path sum exact in float.
  const std::size_t n = 70;
  Matrix<float> d(n, n);
  Rng rng(134);
  for (std::size_t i = 0; i < n; ++i)
    for (std::size_t j = 0; j < n; ++j)
      d(i, j) = i == j                      ? 0.0f
                : rng.next_double() < 0.85 ? S::zero()
                                           : static_cast<float>(
                                                 1 + rng.next_below(50));
  auto oracle = d.clone();
  floyd_warshall<S>(oracle.view());
  BlockedFwOptions opt;
  opt.block_size = 16;
  blocked_floyd_warshall<S>(d.view(), opt);
  EXPECT_EQ(max_abs_diff<float>(oracle.view(), d.view()), 0.0);
}

TEST(Srgemm, RecordsValueKernelDispatchUnderKernelSimd) {
  // With ambient telemetry on, a MinPlus<float> multiply lands in the
  // srgemm.* series labelled kernel=simd, once per call.
  using S = MinPlus<float>;
  const std::size_t m = 12, n = 20, k = 7;
  auto A = random_matrix<float>(m, k, 141);
  auto B = random_matrix<float>(k, n, 142);
  auto C = random_matrix<float>(m, n, 143);
  telemetry::Registry& reg = telemetry::Registry::global();
  const telemetry::Counter& calls = reg.counter("srgemm.calls", "kernel=simd");
  const telemetry::Counter& flops = reg.counter("srgemm.flops", "kernel=simd");
  const bool was_enabled = telemetry::enabled();
  const std::uint64_t calls0 = calls.value(), flops0 = flops.value();
  telemetry::set_enabled(true);
  srgemm::multiply<S>(A.view(), B.view(), C.view());
  srgemm::multiply_prepacked<S>(A.view(), B.view(), C.view());
  telemetry::set_enabled(was_enabled);
  EXPECT_EQ(calls.value() - calls0, 2u);
  EXPECT_EQ(flops.value() - flops0,
            static_cast<std::uint64_t>(2 * srgemm::flops(m, n, k)));
}

TEST(SrgemmConfig, AutotuneIsDeterministic) {
  // Same machine profile + environment → same configuration, every call.
  const srgemm::Config a = srgemm::Config::tuned();
  const srgemm::Config b = srgemm::Config::tuned();
  EXPECT_EQ(a.tile_m, b.tile_m);
  EXPECT_EQ(a.tile_n, b.tile_n);
  EXPECT_EQ(a.tile_k, b.tile_k);
  // Tuned tiles are sane: nonzero and bounded by the clamps in tuned().
  EXPECT_GE(a.tile_k, 32u);
  EXPECT_LE(a.tile_k, 512u);
  EXPECT_GE(a.tile_m, 32u);
  EXPECT_LE(a.tile_m, 512u);
}

TEST(Srgemm, EwiseAdd) {
  using S = MinPlus<float>;
  auto X = random_matrix<float>(13, 17, 51);
  auto C = random_matrix<float>(13, 17, 52);
  auto expected = C.clone();
  for (std::size_t i = 0; i < 13; ++i)
    for (std::size_t j = 0; j < 17; ++j)
      expected(i, j) = std::min(expected(i, j), X(i, j));
  srgemm::ewise_add<S>(X.view(), C.view());
  EXPECT_EQ(max_abs_diff<float>(expected.view(), C.view()), 0.0);
}

TEST(Srgemm, EwiseAddSimdAndPooled) {
  // Width crossing several vectors plus a fringe, strided views, and the
  // thread-pooled row partition — all must match the scalar oracle.
  using S = MinPlus<float>;
  ThreadPool pool(4);
  auto backing = random_matrix<float>(120, 150, 53);
  auto X = backing.sub(2, 3, 100, 131);
  auto C0 = random_matrix<float>(100, 131, 54);
  auto C1 = C0.clone();
  auto expected = C0.clone();
  for (std::size_t i = 0; i < 100; ++i)
    for (std::size_t j = 0; j < 131; ++j)
      expected(i, j) = std::min(expected(i, j), X(i, j));
  srgemm::ewise_add<S>(X, C0.view());
  srgemm::ewise_add<S>(X, C1.view(), &pool);
  EXPECT_EQ(max_abs_diff<float>(expected.view(), C0.view()), 0.0);
  EXPECT_EQ(max_abs_diff<float>(expected.view(), C1.view()), 0.0);
}

TEST(Srgemm, FlopCountConvention) {
  EXPECT_DOUBLE_EQ(srgemm::flops(10, 20, 30), 2.0 * 10 * 20 * 30);
}

TEST(Srgemm, EmptyProductIsNoop) {
  using S = MinPlus<float>;
  Matrix<float> A(5, 0), B(0, 7);
  auto C = random_matrix<float>(5, 7, 61);
  auto before = C.clone();
  srgemm::multiply<S>(A.view(), B.view(), C.view());
  EXPECT_EQ(max_abs_diff<float>(before.view(), C.view()), 0.0);
}

}  // namespace
}  // namespace parfw
