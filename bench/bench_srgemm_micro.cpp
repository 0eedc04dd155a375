// SRGEMM micro-benchmark (paper §2.6 / §4.1 claim: the SRGEMM kernel
// reaches 6.8 TF/s on a V100, ~87% of the no-FMA peak).
//
// Here the kernel is the CPU substitute, so the comparable claim is the
// one value kernel (packed SIMD, DESIGN.md §4.1a) against the naive
// multiply_reference oracle on this host. The Simd rows run the
// cache-derived Config::tuned() tiles; "Auto" is the default Config{}
// every engine passes; the Fringe rows run widths that are not multiples
// of the register fragment. The paper-scale V100 number is reproduced by
// the performance model in the figure benches.
//
// Baseline numbers live in BENCH_srgemm.json (regenerate with
//   bench_srgemm_micro --benchmark_out=BENCH_srgemm.json
//                      --benchmark_out_format=json).
#include <benchmark/benchmark.h>

#include <iostream>

#include "graph/graph.hpp"
#include "semiring/semiring.hpp"
#include "srgemm/srgemm.hpp"
#include "telemetry/export.hpp"

namespace {

using S = parfw::MinPlus<float>;

parfw::Matrix<float> make(std::size_t r, std::size_t c, std::uint64_t seed) {
  parfw::DenseEntryGen<float> gen(seed, 1.0, 1.0f, 100.0f);
  parfw::Matrix<float> m(r, c);
  gen.fill_block(0, 0, m.view());
  return m;
}

/// Times `product(A, B, C)` on n x n operands, n = range(0).
template <typename Product>
void run_square(benchmark::State& state, Product&& product) {
  const std::size_t n = static_cast<std::size_t>(state.range(0));
  auto A = make(n, n, 1), B = make(n, n, 2), C = make(n, n, 3);
  for (auto _ : state) {
    product(A.view(), B.view(), C.view());
    benchmark::DoNotOptimize(C.data());
  }
  state.counters["GFLOP/s"] = benchmark::Counter(
      parfw::srgemm::flops(n, n, n) * static_cast<double>(state.iterations()) /
          1e9,
      benchmark::Counter::kIsRate);
}

/// multiply() under `cfg`, as a run_square product.
auto multiply_with(const parfw::srgemm::Config& cfg) {
  return [cfg](auto A, auto B, auto C) {
    parfw::srgemm::multiply<S>(A, B, C, cfg);
  };
}

void BM_SrgemmNaive(benchmark::State& state) {
  run_square(state, [](auto A, auto B, auto C) {
    parfw::srgemm::multiply_reference<S>(A, B, C);
  });
}
BENCHMARK(BM_SrgemmNaive)->Arg(128)->Arg(256)->Unit(benchmark::kMillisecond);

void BM_SrgemmSimd(benchmark::State& state) {
  run_square(state, multiply_with(parfw::srgemm::Config::tuned()));
}
BENCHMARK(BM_SrgemmSimd)
    ->Arg(128)
    ->Arg(256)
    ->Arg(512)
    ->Arg(1024)
    ->Unit(benchmark::kMillisecond);

/// What a caller with a default Config{} gets.
void BM_SrgemmAuto(benchmark::State& state) {
  run_square(state, multiply_with(parfw::srgemm::Config{}));
}
BENCHMARK(BM_SrgemmAuto)->Arg(512)->Unit(benchmark::kMillisecond);

/// Dense, caller-owned operands through the prepacked entry point (no
/// operand copies at all — blocked FW's quadrant-update fast path).
void BM_SrgemmSimdPrepacked(benchmark::State& state) {
  const std::size_t n = static_cast<std::size_t>(state.range(0));
  auto A = make(n, n, 1), B = make(n, n, 2), C = make(n, n, 3);
  auto cfg = parfw::srgemm::Config::tuned();
  for (auto _ : state) {
    parfw::srgemm::multiply_prepacked<S>(A.view(), B.view(), C.view(), cfg);
    benchmark::DoNotOptimize(C.data());
  }
  state.counters["GFLOP/s"] = benchmark::Counter(
      parfw::srgemm::flops(n, n, n) * static_cast<double>(state.iterations()) /
          1e9,
      benchmark::Counter::kIsRate);
}
BENCHMARK(BM_SrgemmSimdPrepacked)
    ->Arg(256)
    ->Arg(512)
    ->Unit(benchmark::kMillisecond);

void run_panel(benchmark::State& state, const parfw::srgemm::Config& cfg) {
  // The blocked-FW hot shape: (m, n, k) = (local, local, b).
  const std::size_t m = 1024, k = static_cast<std::size_t>(state.range(0));
  auto A = make(m, k, 1), B = make(k, m, 2), C = make(m, m, 3);
  for (auto _ : state) {
    parfw::srgemm::multiply<S>(A.view(), B.view(), C.view(), cfg);
    benchmark::DoNotOptimize(C.data());
  }
  state.counters["GFLOP/s"] = benchmark::Counter(
      parfw::srgemm::flops(m, m, k) * static_cast<double>(state.iterations()) /
          1e9,
      benchmark::Counter::kIsRate);
}

void BM_SrgemmPanelShapeSimd(benchmark::State& state) {
  run_panel(state, parfw::srgemm::Config::tuned());
}
BENCHMARK(BM_SrgemmPanelShapeSimd)
    ->Arg(64)
    ->Arg(128)
    ->Arg(256)
    ->Unit(benchmark::kMillisecond);

/// Vector fringes: m = n, k = 132 (a dist block) on the engines' default
/// tiles. 1040, 1056 and 1072 (n mod 64 = 16, 32, 48) end every strip in
/// a 1- or 2-vector fragment; each must run within 15% of its 1024 and
/// 1088 neighbours (check.sh --bench).
void BM_SrgemmFringe(benchmark::State& state) {
  const std::size_t n = static_cast<std::size_t>(state.range(0)), k = 132;
  auto A = make(n, k, 1), B = make(k, n, 2), C = make(n, n, 3);
  for (auto _ : state) {
    parfw::srgemm::multiply<S>(A.view(), B.view(), C.view());
    benchmark::DoNotOptimize(C.data());
  }
  state.counters["GFLOP/s"] = benchmark::Counter(
      parfw::srgemm::flops(n, n, k) * static_cast<double>(state.iterations()) /
          1e9,
      benchmark::Counter::kIsRate);
}
BENCHMARK(BM_SrgemmFringe)
    ->Arg(1024)
    ->Arg(1040)
    ->Arg(1056)
    ->Arg(1072)
    ->Arg(1088)
    ->Unit(benchmark::kMillisecond);

}  // namespace

// PARFW_METRICS=json|prom|table dumps the ambient kernel-dispatch series
// (calls, flops, GF/s per kernel label) after the run.
int main(int argc, char** argv) {
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  parfw::telemetry::dump_env(std::cerr);
  return 0;
}
