// Kernel bodies for SRGEMM: the naive oracle, the one value kernel (a
// cache-tiled, packed, register-blocked SIMD macro-kernel) and the fused
// predecessor-tracking sweep behind multiply_with_pred.
//
// The value kernel follows the canonical GotoBLAS decomposition adapted to
// semirings: C is walked in tile_m x tile_n macro tiles; the k dimension
// is consumed in tile_k panels; inside a panel an MR x (NV*W) fragment of
// C stays in vector registers across the k loop (util/simd.hpp plus the
// per-semiring simd_ops traits), updated with one broadcast per A element
// and NV vector ops per ⊕/⊗ — the CPU rendition of the CUTLASS
// warp-fragment loop the paper's kernel uses. min/+ has no FMA, matching
// the paper's observation that SRGEMM peak is half the FMA peak (§4.1).
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>

#include "semiring/semiring.hpp"
#include "util/matrix.hpp"
#include "util/simd.hpp"

namespace parfw::srgemm::detail {

template <typename S>
void naive_kernel(MatrixView<const typename S::value_type> A,
                  MatrixView<const typename S::value_type> B,
                  MatrixView<typename S::value_type> C) {
  using T = typename S::value_type;
  const std::size_t m = C.rows(), n = C.cols(), k = A.cols();
  for (std::size_t i = 0; i < m; ++i) {
    for (std::size_t j = 0; j < n; ++j) {
      T acc = S::zero();
      for (std::size_t t = 0; t < k; ++t)
        acc = S::add(acc, S::mul(A(i, t), B(t, j)));
      C(i, j) = S::add(C(i, j), acc);
    }
  }
}

/// Edge handler for fringe blocks smaller than the register tile.
template <typename S>
inline void edge_kernel(const typename S::value_type* a, std::size_t lda,
                        const typename S::value_type* b, std::size_t ldb,
                        typename S::value_type* c, std::size_t ldc,
                        std::size_t mm, std::size_t nn, std::size_t kk) {
  using T = typename S::value_type;
  for (std::size_t i = 0; i < mm; ++i) {
    for (std::size_t j = 0; j < nn; ++j) {
      T acc = c[i * ldc + j];
      for (std::size_t t = 0; t < kk; ++t)
        acc = S::add(acc, S::mul(a[i * lda + t], b[t * ldb + j]));
      c[i * ldc + j] = acc;
    }
  }
}

/// Register-fragment shape of the value kernel, fixed by the vector ISA:
/// MR rows x NV native vectors of C accumulators. 32-register ISAs
/// (64-byte vectors) hold 4x4 — 16 accumulators, 4 B vectors and a
/// broadcast; 16-register ISAs (AVX2, SSE, NEON) hold 4x2.
inline constexpr std::size_t kMicroRows = 4;
inline constexpr std::size_t kMicroVecs = simd::kNativeBytes >= 64 ? 4 : 2;

/// SIMD micro-kernel: an MR x (NV*W) fragment of C held in MR*NV vector
/// accumulators across the k loop (W = native lanes for the value type).
/// Per k step: NV vector loads of the B row, MR broadcasts of A, and one
/// vadd(vmul(...)) pair per accumulator — min/+ maps to vminps/vaddps.
template <typename S, std::size_t MR, std::size_t NV>
inline void micro_kernel_simd(const typename S::value_type* a,
                              std::size_t lda,
                              const typename S::value_type* b,
                              std::size_t ldb, typename S::value_type* c,
                              std::size_t ldc, std::size_t kk) {
  using T = typename S::value_type;
  using Ops = simd_ops<S>;
  constexpr std::size_t W = simd::native_lanes<T>();
  using V = simd::Vec<T, W>;
  V acc[MR][NV];
  for (std::size_t i = 0; i < MR; ++i)
    for (std::size_t v = 0; v < NV; ++v)
      acc[i][v] = simd::load<T, W>(c + i * ldc + v * W);
  for (std::size_t t = 0; t < kk; ++t) {
    const T* brow = b + t * ldb;
    V bv[NV];
    for (std::size_t v = 0; v < NV; ++v)
      bv[v] = simd::load<T, W>(brow + v * W);
    for (std::size_t i = 0; i < MR; ++i) {
      const V av = simd::broadcast<T, W>(a[i * lda + t]);
      for (std::size_t v = 0; v < NV; ++v)
        acc[i][v] = Ops::vadd(acc[i][v], Ops::vmul(av, bv[v]));
    }
  }
  for (std::size_t i = 0; i < MR; ++i)
    for (std::size_t v = 0; v < NV; ++v)
      simd::store<T, W>(c + i * ldc + v * W, acc[i][v]);
}

/// Register-tiled sweep with the SIMD micro-kernel; scalar edge kernels
/// mop up rows/columns beyond the last full MR x (NV*W) fragment.
template <typename S, std::size_t MR, std::size_t NV>
inline void simd_sweep(const typename S::value_type* a, std::size_t lda,
                       const typename S::value_type* b, std::size_t ldb,
                       typename S::value_type* c, std::size_t ldc,
                       std::size_t mm, std::size_t nn, std::size_t kk) {
  constexpr std::size_t NR = NV * simd::native_lanes<typename S::value_type>();
  std::size_t i = 0;
  for (; i + MR <= mm; i += MR) {
    std::size_t j = 0;
    for (; j + NR <= nn; j += NR)
      micro_kernel_simd<S, MR, NV>(a + i * lda, lda, b + j, ldb,
                                   c + i * ldc + j, ldc, kk);
    if (j < nn)
      edge_kernel<S>(a + i * lda, lda, b + j, ldb, c + i * ldc + j, ldc, MR,
                     nn - j, kk);
  }
  if (i < mm)
    edge_kernel<S>(a + i * lda, lda, b, ldb, c + i * ldc, ldc, mm - i, nn, kk);
}

/// SIMD macro-kernel. With `pack` set, operands are copied into contiguous
/// scratch before the register sweep (GotoBLAS-style) in k0 → i0 → j0
/// order: the whole kk x n row panel of B is packed once per k0, at a
/// padded_ld stride that never aliases a 4 KiB multiple, and every A
/// macro-tile exactly once per (i0, k0). Without it the sweep runs
/// directly on the views — the path multiply_prepacked uses when the
/// caller already owns contiguous panels.
template <typename S, std::size_t MR, std::size_t NV>
void tiled_kernel_simd(MatrixView<const typename S::value_type> A,
                       MatrixView<const typename S::value_type> B,
                       MatrixView<typename S::value_type> C,
                       std::size_t tile_m, std::size_t tile_n,
                       std::size_t tile_k, bool pack) {
  using T = typename S::value_type;
  const std::size_t m = C.rows(), n = C.cols(), k = A.cols();

  if (!pack) {
    for (std::size_t k0 = 0; k0 < k; k0 += tile_k) {
      const std::size_t kk = std::min(tile_k, k - k0);
      for (std::size_t i0 = 0; i0 < m; i0 += tile_m) {
        const std::size_t mi = std::min(tile_m, m - i0);
        for (std::size_t j0 = 0; j0 < n; j0 += tile_n) {
          const std::size_t nj = std::min(tile_n, n - j0);
          simd_sweep<S, MR, NV>(A.data() + i0 * A.ld() + k0, A.ld(),
                                B.data() + k0 * B.ld() + j0, B.ld(),
                                C.data() + i0 * C.ld() + j0, C.ld(), mi, nj,
                                kk);
        }
      }
    }
    return;
  }

  const std::size_t ldb = padded_ld<T>(n);
  AlignedBuffer<T> a_pack(tile_m * tile_k);
  AlignedBuffer<T> b_pack(std::min(tile_k, k) * ldb);
  for (std::size_t k0 = 0; k0 < k; k0 += tile_k) {
    const std::size_t kk = std::min(tile_k, k - k0);
    for (std::size_t t = 0; t < kk; ++t)
      std::copy_n(B.data() + (k0 + t) * B.ld(), n, b_pack.data() + t * ldb);
    for (std::size_t i0 = 0; i0 < m; i0 += tile_m) {
      const std::size_t mi = std::min(tile_m, m - i0);
      for (std::size_t i = 0; i < mi; ++i)
        std::copy_n(A.data() + (i0 + i) * A.ld() + k0, kk,
                    a_pack.data() + i * kk);
      for (std::size_t j0 = 0; j0 < n; j0 += tile_n) {
        const std::size_t nj = std::min(tile_n, n - j0);
        simd_sweep<S, MR, NV>(a_pack.data(), kk, b_pack.data() + j0, ldb,
                              C.data() + i0 * C.ld() + j0, C.ld(), mi, nj,
                              kk);
      }
    }
  }
}

/// Fused predecessor-tracking SRGEMM over rows [r0, r1) of C:
///     C(i,j) ← best over t of A(i,t) ⊗ B(t,j) vs the incumbent C(i,j),
///     predC(i,j) ← predB(t*, j) for the first t* attaining that best.
/// Row-buffered: each row's new values/preds are computed into scratch
/// from the current operand state and committed only after the full
/// ascending-t scan — Jacobi within a row, Gauss-Seidel across rows. The
/// aliased blocked-FW panel updates (B ≡ C in the row panel, A ≡ C in the
/// column panel) are therefore deterministic and independent of the vector
/// width and of how a strip is cut into per-block calls.
///
/// The inner loop is the vector chain  cand = va ⊗ B-row,
/// mask = vimproves(cand, best), blend values, widen the mask to int64
/// lanes and blend the predB row — one branch-free pass per (t, j-vector).
template <typename S>
void pred_sweep_rows(MatrixView<const typename S::value_type> A,
                     MatrixView<const typename S::value_type> B,
                     MatrixView<typename S::value_type> C,
                     MatrixView<const std::int64_t> predB,
                     MatrixView<std::int64_t> predC, std::size_t r0,
                     std::size_t r1) {
  using T = typename S::value_type;
  const std::size_t n = C.cols(), k = A.cols();
  AlignedBuffer<T> best_buf(n);
  AlignedBuffer<std::int64_t> bp_buf(n);
  T* best = best_buf.data();
  std::int64_t* bp = bp_buf.data();
  for (std::size_t i = r0; i < r1; ++i) {
    std::copy_n(C.data() + i * C.ld(), n, best);
    std::copy_n(predC.data() + i * predC.ld(), n, bp);
    for (std::size_t t = 0; t < k; ++t) {
      const T av = A(i, t);
      const T* brow = B.data() + t * B.ld();
      const std::int64_t* prow = predB.data() + t * predB.ld();
      std::size_t j = 0;
      if constexpr (simd_ops<S>::available) {
        if constexpr (simd::kNativeBytes > 0) {
          constexpr std::size_t W = simd::native_lanes<T>();
          const auto va = simd::broadcast<T, W>(av);
          for (; j + W <= n; j += W) {
            const auto cand = simd_ops<S>::vmul(va, simd::load<T, W>(brow + j));
            const auto bv = simd::load<T, W>(best + j);
            const auto imp = simd_ops<S>::vimproves(cand, bv);
            // Most (t, j-group) pairs improve nothing once the running min
            // settles; skipping them keeps the predB row out of the memory
            // stream entirely, which is where a paths sweep spends its time.
            if (simd::vany(imp)) {
              simd::store<T, W>(best + j, simd::vselect(imp, cand, bv));
              simd::vblend_ids(imp, prow + j, bp + j);
            }
          }
        }
      }
      for (; j < n; ++j) {
        const T cand = S::mul(av, brow[j]);
        if (S::less_add(cand, best[j])) {
          best[j] = cand;
          bp[j] = prow[j];
        }
      }
    }
    std::copy_n(best, n, C.data() + i * C.ld());
    std::copy_n(bp, n, predC.data() + i * predC.ld());
  }
}

}  // namespace parfw::srgemm::detail
