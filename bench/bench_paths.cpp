// Path-tracking benchmarks: the argmin-SIMD fused kernel vs the scalar
// reference, and the end-to-end overhead a paths run adds to a value run
// of the distributed solver.
//
// Acceptance claims this binary measures:
//   * srgemm::multiply_with_pred (SIMD argmin tracking) is >= 5x the
//     scalar srgemm::multiply_with_pred_reference oracle at n = 512 —
//     check.sh --paths enforces the ratio from the emitted JSON;
//   * the paths overhead of the distributed solve stays a small constant
//     factor (pred companion broadcasts roughly triple the row-panel
//     volume; compute roughly doubles per improving element).
//
// Baseline numbers live in BENCH_paths.json (regenerate with
//   bench_paths --benchmark_out=BENCH_paths.json
//               --benchmark_out_format=json).
#include <benchmark/benchmark.h>

#include <cstdint>

#include "dist/driver.hpp"
#include "semiring/semiring.hpp"
#include "srgemm/srgemm.hpp"

namespace {

using S = parfw::MinPlus<float>;

parfw::Matrix<float> make(std::size_t r, std::size_t c, std::uint64_t seed) {
  parfw::DenseEntryGen<float> gen(seed, 1.0, 1.0f, 100.0f);
  parfw::Matrix<float> m(r, c);
  gen.fill_block(0, 0, m.view());
  return m;
}

parfw::Matrix<std::int64_t> make_pred(std::size_t r, std::size_t c) {
  parfw::Matrix<std::int64_t> p(r, c);
  for (std::size_t i = 0; i < r; ++i)
    for (std::size_t j = 0; j < c; ++j)
      p(i, j) = static_cast<std::int64_t>((i * 31 + j * 7) % (r * c));
  return p;
}

/// Scalar reference: the oracle the fused kernel's >= 5x gate divides by.
void BM_PredScalar(benchmark::State& state) {
  const std::size_t n = static_cast<std::size_t>(state.range(0));
  auto A = make(n, n, 1), B = make(n, n, 2), C = make(n, n, 3);
  auto predB = make_pred(n, n);
  parfw::Matrix<std::int64_t> predC(n, n, -1);
  for (auto _ : state) {
    parfw::srgemm::multiply_with_pred_reference<S>(
        A.view(), B.view(), C.view(), predB.view(), predC.view());
    benchmark::DoNotOptimize(C.data());
    benchmark::DoNotOptimize(predC.data());
  }
  state.counters["GFLOP/s"] = benchmark::Counter(
      parfw::srgemm::flops(n, n, n) * static_cast<double>(state.iterations()) /
          1e9,
      benchmark::Counter::kIsRate);
}
BENCHMARK(BM_PredScalar)->Arg(256)->Arg(512)->Unit(benchmark::kMillisecond);

/// The production fused kernel (SIMD argmin tracking, single thread —
/// same work division as the scalar loop so the ratio is kernel-only).
void BM_PredFused(benchmark::State& state) {
  const std::size_t n = static_cast<std::size_t>(state.range(0));
  auto A = make(n, n, 1), B = make(n, n, 2), C = make(n, n, 3);
  auto predB = make_pred(n, n);
  parfw::Matrix<std::int64_t> predC(n, n, -1);
  for (auto _ : state) {
    parfw::srgemm::multiply_with_pred<S>(A.view(), B.view(), C.view(),
                                         predB.view(), predC.view());
    benchmark::DoNotOptimize(C.data());
    benchmark::DoNotOptimize(predC.data());
  }
  state.counters["GFLOP/s"] = benchmark::Counter(
      parfw::srgemm::flops(n, n, n) * static_cast<double>(state.iterations()) /
          1e9,
      benchmark::Counter::kIsRate);
}
BENCHMARK(BM_PredFused)->Arg(256)->Arg(512)->Unit(benchmark::kMillisecond);

/// End-to-end distributed solve, values only — the denominator of the
/// paths-overhead claim.
void run_dist(benchmark::State& state, bool track_paths) {
  const std::size_t n = 256, b = 32;
  const auto grid = parfw::dist::GridSpec::row_major(2, 2);
  parfw::DenseEntryGen<float> gen(7, 0.85, 1.0f, 90.0f, /*integral=*/true);
  parfw::dist::DistFwOptions opt;
  opt.variant = parfw::sched::Variant::kAsync;
  opt.block_size = b;
  for (auto _ : state) {
    const auto r = parfw::dist::run_parallel_fw<S>(n, gen, grid, 2, opt,
                                                   track_paths);
    benchmark::DoNotOptimize(r.dist.data());
  }
}

void BM_DistValue(benchmark::State& state) { run_dist(state, false); }
BENCHMARK(BM_DistValue)->Unit(benchmark::kMillisecond);

void BM_DistPaths(benchmark::State& state) { run_dist(state, true); }
BENCHMARK(BM_DistPaths)->Unit(benchmark::kMillisecond);

}  // namespace

BENCHMARK_MAIN();
