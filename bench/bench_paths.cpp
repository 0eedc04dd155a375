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

/// dist-paths' per-rank OuterUpdate shape: 1056 x 1056 x b, b = 132.
constexpr std::size_t kOuterN = 1056, kOuterB = 132;

/// Depth of a row's product: n x n x n, except the kOuterN row, which runs
/// the OuterUpdate shape kOuterN x kOuterN x kOuterB.
std::size_t depth_of(std::size_t n) { return n == kOuterN ? kOuterB : n; }

/// Times `product(A, B, C, predB, predC)` on n x n x depth_of(n) operands.
template <typename Product>
void run_pred(benchmark::State& state, Product&& product) {
  const std::size_t n = static_cast<std::size_t>(state.range(0));
  const std::size_t k = depth_of(n);
  auto A = make(n, k, 1), B = make(k, n, 2), C = make(n, n, 3);
  auto predB = make_pred(k, n);
  parfw::Matrix<std::int64_t> predC(n, n, -1);
  for (auto _ : state) {
    product(A.view(), B.view(), C.view(), predB.view(), predC.view());
    benchmark::DoNotOptimize(C.data());
    benchmark::DoNotOptimize(predC.data());
  }
  state.counters["GFLOP/s"] = benchmark::Counter(
      parfw::srgemm::flops(n, n, k) * static_cast<double>(state.iterations()) /
          1e9,
      benchmark::Counter::kIsRate);
}

/// Scalar reference: the oracle the fused kernel's >= 5x gate divides by.
void BM_PredScalar(benchmark::State& state) {
  run_pred(state, [](auto A, auto B, auto C, auto predB, auto predC) {
    parfw::srgemm::multiply_with_pred_reference<S>(A, B, C, predB, predC);
  });
}
BENCHMARK(BM_PredScalar)->Arg(256)->Arg(512)->Unit(benchmark::kMillisecond);

/// The production fused kernel (the register-blocked argmin kernel, single
/// thread — same work division as the scalar loop so the ratio is
/// kernel-only).
void BM_PredFused(benchmark::State& state) {
  run_pred(state, [](auto A, auto B, auto C, auto predB, auto predC) {
    parfw::srgemm::multiply_with_pred<S>(A, B, C, predB, predC);
  });
}
BENCHMARK(BM_PredFused)
    ->Arg(256)
    ->Arg(512)
    ->Arg(kOuterN)
    ->Unit(benchmark::kMillisecond);

/// The value kernel at the OuterUpdate shape: the denominator of the
/// pred-vs-multiply rate gate (check.sh --paths).
void BM_SrgemmSimd(benchmark::State& state) {
  run_pred(state, [](auto A, auto B, auto C, auto, auto) {
    parfw::srgemm::multiply<S>(A, B, C);
  });
}
BENCHMARK(BM_SrgemmSimd)->Arg(kOuterN)->Unit(benchmark::kMillisecond);

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
