// SRGEMM — semiring general matrix-matrix multiply (paper §2.6, §4.1).
//
// Computes the accumulating product
//     C ← C ⊕ (A ⊗ B),   C: m x n,  A: m x k,  B: k x n
// over an arbitrary semiring. For MinPlus this is the min-plus product
//     C[i,j] = min(C[i,j], min_k (A[i,k] + B[k,j]))
// which is the workhorse of blocked Floyd-Warshall: PanelUpdate and
// OuterUpdate are both SRGEMM calls.
//
// The paper's kernel is a CUTLASS-derived CUDA kernel (6.8 TF/s on V100);
// this is its CPU substitute with the same blocked structure: an L2-sized
// macro tile, a k-panel loop, and a register-blocked micro-kernel. There is
// one value kernel (DESIGN.md §4.1a): the packed SIMD macro-kernel, whose
// register fragment is fixed by the vector ISA. multiply() packs its
// operands; multiply_prepacked() streams caller-owned panels in place. A
// semiring without simd_ops (every in-tree one has them) falls back to the
// naive triple loop, which is also the multiply_reference oracle. The
// paths product multiply_with_pred runs the value kernel's argmin sibling
// wherever B does not alias C, and a row-buffered sweep for the row panel
// (B ≡ C). The multi-threaded driver partitions C by row panels across a
// thread pool, mirroring how a GPU partitions C across thread blocks.
#pragma once

#include <algorithm>
#include <chrono>
#include <cstddef>
#include <cstdint>
#include <cstdlib>
#include <string>

#if defined(__unix__) || defined(__APPLE__)
#include <unistd.h>
#endif

#include "semiring/semiring.hpp"
#include "srgemm/srgemm_kernels.hpp"
#include "telemetry/metrics.hpp"
#include "util/matrix.hpp"
#include "util/thread_pool.hpp"

namespace parfw::srgemm {

/// Tiling parameters. Defaults are tuned for a ~1 MiB L2: 64x256 C
/// macro-tiles with 256-deep k panels. Config::tuned() derives tile sizes
/// from the actual cache geometry instead. The PARFW_TILE_* environment
/// pins (see README) are applied inside the multiply driver, so they take
/// effect for every Config, tuned or default-constructed.
struct Config {
  std::size_t tile_m = 64;
  std::size_t tile_n = 256;
  std::size_t tile_k = 256;
  /// Pool used to parallelise over C row panels; nullptr = sequential.
  ThreadPool* pool = nullptr;

  /// Cache-geometry-derived configuration. Deterministic for a fixed
  /// machine profile (computed once, then cached).
  static Config tuned();
};

namespace detail {

/// L1/L2 data-cache sizes in bytes, with conservative fallbacks when the
/// OS does not report them (sysconf returns 0/-1 in some containers).
struct CacheGeometry {
  std::size_t l1 = 32 * 1024;
  std::size_t l2 = 1024 * 1024;
};

inline CacheGeometry detect_cache() {
  CacheGeometry g;
#if defined(_SC_LEVEL1_DCACHE_SIZE)
  const long l1 = ::sysconf(_SC_LEVEL1_DCACHE_SIZE);
  if (l1 > 0) g.l1 = static_cast<std::size_t>(l1);
#endif
#if defined(_SC_LEVEL2_CACHE_SIZE)
  const long l2 = ::sysconf(_SC_LEVEL2_CACHE_SIZE);
  if (l2 > 0) g.l2 = static_cast<std::size_t>(l2);
#endif
  return g;
}

inline std::size_t round_down(std::size_t x, std::size_t mult,
                              std::size_t lo) {
  const std::size_t r = x / mult * mult;
  return r < lo ? lo : r;
}

inline Config tuned_uncached() {
  Config cfg;
  const CacheGeometry cache = detect_cache();
  // GotoBLAS sizing against a nominal 4-byte element and 64-wide NR:
  //  * tile_k: a kk x NR B micro-panel should fill at most half of L1.
  //  * tile_m: the packed tile_m x tile_k A tile at most half of L2.
  //  * tile_n: bounded so the packed B row panel stays a few MiB.
  constexpr std::size_t elem = 4, nr = 64;
  cfg.tile_k = std::clamp<std::size_t>(
      round_down(cache.l1 / (2 * nr * elem), 32, 32), 32, 512);
  cfg.tile_m = std::clamp<std::size_t>(
      round_down(cache.l2 / (2 * cfg.tile_k * elem), 8, 32), 32, 512);
  cfg.tile_n = 512;

  return cfg;
}

/// PARFW_TILE_* environment pins, read once per process so every
/// resolution is deterministic. Applied inside multiply_impl so they reach
/// EVERY driver (blocked FW, distributed, offload, benches) no matter which
/// options struct the Config travelled through — not only Config::tuned()
/// callers. A pin always wins over the caller's tile: that is what "pin"
/// means for an ablation run.
inline Config apply_env_pins(Config cfg) {
  static const Config pins = [] {
    Config p;
    p.tile_m = p.tile_n = p.tile_k = 0;  // 0 = not pinned
    if (const char* e = std::getenv("PARFW_TILE_M"))
      p.tile_m = std::max<std::size_t>(1, std::strtoull(e, nullptr, 10));
    if (const char* e = std::getenv("PARFW_TILE_N"))
      p.tile_n = std::max<std::size_t>(1, std::strtoull(e, nullptr, 10));
    if (const char* e = std::getenv("PARFW_TILE_K"))
      p.tile_k = std::max<std::size_t>(1, std::strtoull(e, nullptr, 10));
    return p;
  }();
  if (pins.tile_m != 0) cfg.tile_m = pins.tile_m;
  if (pins.tile_n != 0) cfg.tile_n = pins.tile_n;
  if (pins.tile_k != 0) cfg.tile_k = pins.tile_k;
  return cfg;
}

/// The one row split of C across a pool: `tasks` ranges of `grain` rows
/// (the last clipped, possibly empty) run body(r0, r1) as parallel_for
/// items. Each range owns disjoint rows of C, so the body needs no
/// synchronisation. Runs inline as one range without a multi-worker pool
/// or with fewer than two tasks.
template <typename Body>
inline void split_rows(ThreadPool* pool, std::size_t rows, std::size_t tasks,
                       std::size_t grain, Body&& body) {
  if (pool == nullptr || pool->size() < 2 || tasks < 2) {
    body(std::size_t{0}, rows);
    return;
  }
  pool->parallel_for(tasks, [&](std::size_t p) {
    const std::size_t r0 = std::min(rows, p * grain);
    body(r0, std::min(rows, r0 + grain));
  });
}

/// Row panels of a product: tile_m rows each, split once there are two.
inline std::size_t row_panels(const Config& cfg, std::size_t rows) {
  return rows >= 2 * cfg.tile_m ? (rows + cfg.tile_m - 1) / cfg.tile_m : 1;
}

/// Runs one dispatch and lands it in the ambient dispatch-level metrics
/// (PARFW_METRICS gate): one set of series per label set in the global
/// registry — kernel=simd (or kernel=naive for a semiring without
/// simd_ops) for multiply(), kernel=argmin or kernel=pred for
/// multiply_with_pred. Recording
/// costs two atomic adds + two histogram observes per call — measured at
/// the dispatch granularity, not per tile, so the kernels themselves stay
/// untouched. `packs` marks a call whose operands stream through the pack
/// buffers.
template <typename S, typename Dispatch>
inline void record_dispatch_metrics(const std::string& labels, std::size_t m,
                                    std::size_t n, std::size_t k, bool packs,
                                    Dispatch&& dispatch) {
  const auto t0 = std::chrono::steady_clock::now();
  dispatch();
  const double seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
          .count();
  telemetry::Registry& reg = telemetry::Registry::global();
  const double fl = 2.0 * static_cast<double>(m) * static_cast<double>(n) *
                    static_cast<double>(k);
  reg.counter("srgemm.calls", labels).inc();
  reg.counter("srgemm.flops", labels).add(static_cast<std::uint64_t>(fl));
  if (packs) {
    // Operand footprint staged through the pack buffers (A and B panels).
    reg.counter("srgemm.bytes_packed", labels)
        .add(static_cast<std::uint64_t>((m * k + k * n) *
                                        sizeof(typename S::value_type)));
  }
  reg.histogram("srgemm.seconds", labels).observe(seconds);
  if (seconds > 0.0)
    reg.histogram("srgemm.gflops", labels).observe(fl / seconds / 1e9);
}

/// The value kernel on one row slice of the product: the SIMD macro-kernel
/// when the semiring has lane-wise forms, packing its operands unless the
/// caller promises panel-resident ones; the naive triple loop otherwise.
template <typename S>
inline void run_slice(MatrixView<const typename S::value_type> A,
                      MatrixView<const typename S::value_type> B,
                      MatrixView<typename S::value_type> C, const Config& cfg,
                      bool prepacked) {
  if constexpr (simd_ops<S>::available)
    tiled_kernel_simd<S, kMicroRows, kMicroVecs>(
        A, B, C, cfg.tile_m, cfg.tile_n, cfg.tile_k, /*pack=*/!prepacked);
  else
    naive_kernel<S>(A, B, C);
}

template <typename S>
inline void multiply_impl(MatrixView<const typename S::value_type> A,
                          MatrixView<const typename S::value_type> B,
                          MatrixView<typename S::value_type> C,
                          const Config& caller_cfg, bool prepacked) {
  const Config cfg = apply_env_pins(caller_cfg);
  const std::size_t m = C.rows();
  const auto dispatch = [&] {
    split_rows(cfg.pool, m, row_panels(cfg, m), cfg.tile_m,
               [&](std::size_t r0, std::size_t r1) {
                 run_slice<S>(A.sub(r0, 0, r1 - r0, A.cols()), B,
                              C.sub(r0, 0, r1 - r0, C.cols()), cfg, prepacked);
               });
  };
  if (!telemetry::enabled()) {
    dispatch();
    return;
  }
  constexpr bool simd = simd_ops<S>::available;
  record_dispatch_metrics<S>(simd ? "kernel=simd" : "kernel=naive", m,
                             C.cols(), A.cols(), simd && !prepacked, dispatch);
}

}  // namespace detail

inline Config Config::tuned() {
  static const Config cached = detail::tuned_uncached();
  return cached;
}

/// C ← C ⊕ A ⊗ B. Dimensions are validated; views may alias only if
/// the semiring is idempotent AND the caller understands blocked-FW
/// in-place semantics (PanelUpdate aliases A or B with C deliberately,
/// exactly as Algorithm 2 does).
template <typename S>
void multiply(MatrixView<const typename S::value_type> A,
              MatrixView<const typename S::value_type> B,
              MatrixView<typename S::value_type> C, const Config& cfg = {}) {
  PARFW_CHECK_MSG(A.rows() == C.rows() && B.cols() == C.cols() &&
                      A.cols() == B.rows(),
                  "srgemm shape mismatch: C(" << C.rows() << "x" << C.cols()
                      << ") += A(" << A.rows() << "x" << A.cols() << ") * B("
                      << B.rows() << "x" << B.cols() << ")");
  if (C.empty() || A.cols() == 0) return;
  detail::multiply_impl<S>(A, B, C, cfg, /*prepacked=*/false);
}

/// C ← C ⊕ A ⊗ B where A and B are already panel-resident: dense (or
/// near-dense) operands the caller packed once and reuses across many
/// products — blocked FW's pivot panels, the distributed drivers' received
/// panel buffers, the offload engine's device-resident panels. Skips the
/// per-call operand packing the kernels would otherwise do; everything
/// else (dispatch, tiling, row-panel threading) matches multiply().
template <typename S>
void multiply_prepacked(MatrixView<const typename S::value_type> A,
                        MatrixView<const typename S::value_type> B,
                        MatrixView<typename S::value_type> C,
                        const Config& cfg = {}) {
  PARFW_CHECK_MSG(A.rows() == C.rows() && B.cols() == C.cols() &&
                      A.cols() == B.rows(),
                  "srgemm shape mismatch: C(" << C.rows() << "x" << C.cols()
                      << ") += A(" << A.rows() << "x" << A.cols() << ") * B("
                      << B.rows() << "x" << B.cols() << ")");
  if (C.empty() || A.cols() == 0) return;
  detail::multiply_impl<S>(A, B, C, cfg, /*prepacked=*/true);
}

/// Reference implementation (naive triple loop) — the oracle the value
/// kernel is validated against.
template <typename S>
void multiply_reference(MatrixView<const typename S::value_type> A,
                        MatrixView<const typename S::value_type> B,
                        MatrixView<typename S::value_type> C) {
  PARFW_CHECK(A.rows() == C.rows() && B.cols() == C.cols() &&
              A.cols() == B.rows());
  detail::naive_kernel<S>(A, B, C);
}

/// Scalar reference for multiply_with_pred: for each (i,j), an ascending-t
/// scan that takes the first strict improvement and its predB(t,j). Both
/// pred kernels are bit-identical to it on non-aliased operands; the kernel
/// tests diff against it and bench_paths measures the speedup over it.
template <typename S>
void multiply_with_pred_reference(MatrixView<const typename S::value_type> A,
                                  MatrixView<const typename S::value_type> B,
                                  MatrixView<typename S::value_type> C,
                                  MatrixView<const std::int64_t> predB,
                                  MatrixView<std::int64_t> predC) {
  using T = typename S::value_type;
  PARFW_CHECK(A.rows() == C.rows() && B.cols() == C.cols() &&
              A.cols() == B.rows());
  PARFW_CHECK(predB.rows() == B.rows() && predB.cols() == B.cols());
  PARFW_CHECK(predC.rows() == C.rows() && predC.cols() == C.cols());
  const std::size_t m = C.rows(), n = C.cols(), k = A.cols();
  for (std::size_t i = 0; i < m; ++i)
    for (std::size_t j = 0; j < n; ++j) {
      T best = C(i, j);
      std::int64_t bp = predC(i, j);
      for (std::size_t t = 0; t < k; ++t) {
        const T cand = S::mul(A(i, t), B(t, j));
        if (S::less_add(cand, best)) {
          best = cand;
          bp = predB(t, j);
        }
      }
      C(i, j) = best;
      predC(i, j) = bp;
    }
}

namespace detail {

/// multiply_with_pred's body. `prepacked` streams panel-resident operands
/// in place, as for multiply_prepacked; it has no effect on the row sweep.
template <typename S>
void multiply_with_pred_impl(MatrixView<const typename S::value_type> A,
                             MatrixView<const typename S::value_type> B,
                             MatrixView<typename S::value_type> C,
                             MatrixView<const std::int64_t> predB,
                             MatrixView<std::int64_t> predC,
                             const Config& caller_cfg, bool prepacked) {
  PARFW_CHECK_MSG(A.rows() == C.rows() && B.cols() == C.cols() &&
                      A.cols() == B.rows(),
                  "srgemm shape mismatch: C(" << C.rows() << "x" << C.cols()
                      << ") += A(" << A.rows() << "x" << A.cols() << ") * B("
                      << B.rows() << "x" << B.cols() << ")");
  PARFW_CHECK(predB.rows() == B.rows() && predB.cols() == B.cols());
  PARFW_CHECK(predC.rows() == C.rows() && predC.cols() == C.cols());
  if (C.empty() || A.cols() == 0) return;
  const Config cfg = apply_env_pins(caller_cfg);
  const std::size_t m = C.rows();
  const bool rows_independent = B.data() != C.data();
  const bool argmin = simd_ops<S>::available && rows_independent;
  const auto dispatch = [&] {
    split_rows(
        cfg.pool, m, rows_independent ? row_panels(cfg, m) : 1, cfg.tile_m,
        [&](std::size_t r0, std::size_t r1) {
          if constexpr (simd_ops<S>::available) {
            if (argmin) {
              const std::size_t rows = r1 - r0;
              tiled_kernel_argmin<S, kMicroRows, kMicroVecs>(
                  A.sub(r0, 0, rows, A.cols()), B,
                  C.sub(r0, 0, rows, C.cols()), predB,
                  predC.sub(r0, 0, rows, C.cols()), cfg.tile_m, cfg.tile_n,
                  cfg.tile_k, /*pack=*/!prepacked);
              return;
            }
          }
          pred_sweep_rows<S>(A, B, C, predB, predC, r0, r1);
        });
  };
  if (!telemetry::enabled()) {
    dispatch();
    return;
  }
  record_dispatch_metrics<S>(argmin ? "kernel=argmin" : "kernel=pred", m,
                             C.cols(), A.cols(), argmin && !prepacked,
                             dispatch);
}

}  // namespace detail

/// Fused predecessor-tracking SRGEMM:
///     where C[i,j] improves through row t of B, predC[i,j] ← predB[t,j]
/// (the blocked-FW pred rule: pred(i,j) ← pred(t,j), with predB carrying
/// global vertex ids). This is the one place that chooses between the two
/// deterministic pred kernels, which is what makes the distributed pred
/// matrices bit-identical to the single-node blocked_floyd_warshall result
/// with a pred view:
///   * detail::tiled_kernel_argmin (kernel=argmin) — the register-blocked
///     argmin kernel — for every product whose B does not alias C, when
///     the semiring has lane-wise forms. Rows of C are then independent
///     sub-problems, so the pool split cannot change results. A ≡ C (the
///     column panel) is allowed: the kernel reads a copy of A.
///   * detail::pred_sweep_rows (kernel=pred) — the row-buffered rank-1
///     sweep — for the row panel, B ≡ C, whose dependencies run across
///     rows (Gauss-Seidel across rows, so it runs unsplit), and for a
///     semiring without simd_ops. It costs O(b·n) per FW round.
template <typename S>
void multiply_with_pred(MatrixView<const typename S::value_type> A,
                        MatrixView<const typename S::value_type> B,
                        MatrixView<typename S::value_type> C,
                        MatrixView<const std::int64_t> predB,
                        MatrixView<std::int64_t> predC,
                        const Config& cfg = {}) {
  detail::multiply_with_pred_impl<S>(A, B, C, predB, predC, cfg,
                                     /*prepacked=*/false);
}

/// The SRGEMM entry of the payload-generic engines (blocked FW and the
/// distributed interpreter's compute ops). Empty pred views mean a
/// values-only product: multiply_prepacked when the caller's operands are
/// panel-resident, multiply otherwise. Non-empty ones select
/// multiply_with_pred, which chooses its pred kernel itself and streams
/// panel-resident operands in place too.
template <typename S>
void multiply_payload(MatrixView<const typename S::value_type> A,
                      MatrixView<const typename S::value_type> B,
                      MatrixView<typename S::value_type> C,
                      MatrixView<const std::int64_t> predB,
                      MatrixView<std::int64_t> predC, const Config& cfg,
                      bool prepacked) {
  if (!predC.empty())
    detail::multiply_with_pred_impl<S>(A, B, C, predB, predC, cfg, prepacked);
  else if (prepacked)
    multiply_prepacked<S>(A, B, C, cfg);
  else
    multiply<S>(A, B, C, cfg);
}

/// Element-wise accumulate with predecessor attachment (the offload
/// engine's hostUpdate in paths mode): where X strictly improves C, take
/// X's value and its predecessor. When (X, Xpred) is a chunk product
/// computed by multiply_with_pred on a zero()-filled X, this merge is
/// bit-identical to running the fused kernel directly on C — the chunk's
/// first-t-attaining argmin composes with the strict-improvement merge.
template <typename S>
void ewise_add_with_pred(MatrixView<const typename S::value_type> X,
                         MatrixView<const std::int64_t> Xpred,
                         MatrixView<typename S::value_type> C,
                         MatrixView<std::int64_t> predC,
                         ThreadPool* pool = nullptr) {
  PARFW_CHECK(X.rows() == C.rows() && X.cols() == C.cols());
  PARFW_CHECK(Xpred.rows() == C.rows() && Xpred.cols() == C.cols());
  PARFW_CHECK(predC.rows() == C.rows() && predC.cols() == C.cols());
  using T = typename S::value_type;
  const std::size_t rows = C.rows(), cols = C.cols();
  auto run_rows = [&](std::size_t r0, std::size_t r1) {
    for (std::size_t i = r0; i < r1; ++i) {
      const T* x = X.data() + i * X.ld();
      const std::int64_t* xp = Xpred.data() + i * Xpred.ld();
      T* c = C.data() + i * C.ld();
      std::int64_t* pc = predC.data() + i * predC.ld();
      std::size_t j = 0;
      if constexpr (simd_ops<S>::available) {
        if constexpr (simd::kNativeBytes > 0) {
          constexpr std::size_t W = simd::native_lanes<T>();
          for (; j + W <= cols; j += W) {
            const auto xv = simd::load<T, W>(x + j);
            const auto cv = simd::load<T, W>(c + j);
            const auto imp = simd_ops<S>::vimproves(xv, cv);
            if (simd::vany(imp)) {
              simd::store<T, W>(c + j, simd::vselect(imp, xv, cv));
              simd::vblend_ids(imp, xp + j, pc + j);
            }
          }
        }
      }
      for (; j < cols; ++j) {
        if (S::less_add(x[j], c[j])) {
          c[j] = x[j];
          pc[j] = xp[j];
        }
      }
    }
  };
  // One chunk of rows per worker, once every worker gets two rows.
  const std::size_t nw =
      pool == nullptr ? 1 : std::max<std::size_t>(1, pool->size());
  detail::split_rows(pool, rows, rows >= 2 * nw ? nw : 1, (rows + nw - 1) / nw,
                     run_rows);
}

/// Element-wise accumulate C ← C ⊕ X (the offload engine's hostUpdate).
/// Rows stream through the SIMD ⊕ when the semiring has lane-wise forms;
/// a pool spreads row ranges across workers (each worker owns disjoint
/// rows, so no synchronisation) — this path is DRAM-bandwidth bound and
/// sits on the offload engine's critical path (§4.3's hostUpdate).
template <typename S>
void ewise_add(MatrixView<const typename S::value_type> X,
               MatrixView<typename S::value_type> C,
               ThreadPool* pool = nullptr) {
  PARFW_CHECK(X.rows() == C.rows() && X.cols() == C.cols());
  using T = typename S::value_type;
  const std::size_t rows = C.rows(), cols = C.cols();
  auto run_rows = [&](std::size_t r0, std::size_t r1) {
    for (std::size_t i = r0; i < r1; ++i) {
      const T* x = X.data() + i * X.ld();
      T* c = C.data() + i * C.ld();
      std::size_t j = 0;
      if constexpr (simd_ops<S>::available) {
        constexpr std::size_t W = simd::native_lanes<T>();
        for (; j + W <= cols; j += W)
          simd::store<T, W>(
              c + j, simd_ops<S>::vadd(simd::load<T, W>(c + j),
                                       simd::load<T, W>(x + j)));
      }
      for (; j < cols; ++j) c[j] = S::add(c[j], x[j]);
    }
  };
  // One chunk of rows per worker, once every worker gets two rows.
  const std::size_t nw =
      pool == nullptr ? 1 : std::max<std::size_t>(1, pool->size());
  detail::split_rows(pool, rows, rows >= 2 * nw ? nw : 1, (rows + nw - 1) / nw,
                     run_rows);
}

/// FLOP count convention used throughout (matches the paper): an SRGEMM of
/// shape (m,n,k) performs 2·m·n·k flops (one ⊕ and one ⊗ per MAC).
inline double flops(std::size_t m, std::size_t n, std::size_t k) {
  return 2.0 * static_cast<double>(m) * static_cast<double>(n) *
         static_cast<double>(k);
}

}  // namespace parfw::srgemm
