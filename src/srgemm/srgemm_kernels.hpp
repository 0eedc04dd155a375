// Kernel bodies for SRGEMM: the naive oracle, the one value kernel (a
// cache-tiled, packed, register-blocked SIMD macro-kernel) and the two
// predecessor-tracking kernels behind multiply_with_pred — its argmin
// sibling, for every product whose B does not alias C, and the
// row-buffered sweep for the row panel (B ≡ C). Both register-blocked
// kernels walk their macro tiles through walk_macro_tiles and their
// fragments, fringes included, through walk_fragments, and share the
// fragment shape.
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
#include <bit>
#include <cstddef>
#include <cstdint>
#include <functional>

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

/// Register-fragment shape of both kernels, fixed by the vector ISA:
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

/// The one fragment walk of both sweeps over an mm x nn block of C: strips
/// of MR rows, then single rows past the last full strip. Inside a strip,
/// fragments of NV vectors of W lanes, then at most one each of NV/2, ...,
/// 1 vectors, then edge(i, j, rows, cols) for the last < W columns. frag is
/// called as frag.template operator()<R, V>(i, j).
template <std::size_t R, std::size_t V, std::size_t W, typename Frag,
          typename Edge>
inline void walk_cols(std::size_t i, std::size_t j, std::size_t nn,
                      Frag& frag, Edge& edge) {
  for (; j + V * W <= nn; j += V * W) frag.template operator()<R, V>(i, j);
  if constexpr (V > 1)
    walk_cols<R, V / 2, W>(i, j, nn, frag, edge);
  else if (j < nn)
    edge(i, j, R, nn - j);
}

template <std::size_t MR, std::size_t NV, std::size_t W, typename Frag,
          typename Edge>
inline void walk_fragments(std::size_t mm, std::size_t nn, Frag&& frag,
                           Edge&& edge) {
  std::size_t i = 0;
  for (; i + MR <= mm; i += MR) walk_cols<MR, NV, W>(i, 0, nn, frag, edge);
  for (; i < mm; ++i) walk_cols<1, NV, W>(i, 0, nn, frag, edge);
}

/// Register-tiled sweep with the SIMD micro-kernel; the scalar edge kernel
/// mops up the columns beyond the last one-vector fragment.
template <typename S, std::size_t MR, std::size_t NV>
inline void simd_sweep(const typename S::value_type* a, std::size_t lda,
                       const typename S::value_type* b, std::size_t ldb,
                       typename S::value_type* c, std::size_t ldc,
                       std::size_t mm, std::size_t nn, std::size_t kk) {
  walk_fragments<MR, NV, simd::native_lanes<typename S::value_type>()>(
      mm, nn,
      [&]<std::size_t R, std::size_t V>(std::size_t i, std::size_t j) {
        micro_kernel_simd<S, R, V>(a + i * lda, lda, b + j, ldb,
                                   c + i * ldc + j, ldc, kk);
      },
      [&](std::size_t i, std::size_t j, std::size_t rows, std::size_t cols) {
        edge_kernel<S>(a + i * lda, lda, b + j, ldb, c + i * ldc + j, ldc,
                       rows, cols, kk);
      });
}

/// The k0 → i0 → j0 macro walk of both register-blocked kernels over the
/// m x n product of A (m x k) and B (k x n), k consumed in chunks of kc.
/// sweep(a, lda, b, ldb, i0, j0, k0, mi, nj, kk) runs one mi x nj macro
/// tile on the kk-deep operand panels at a and b. With `pack` set, the
/// operands are copied into contiguous scratch first (GotoBLAS-style): the
/// whole kk x n row panel of B once per k0, at a padded_ld stride that
/// never aliases a 4 KiB multiple, and every A macro-tile exactly once per
/// (i0, k0). Without it the sweep runs directly on the views — the path
/// for callers that already own contiguous panels.
template <typename T, typename Sweep>
void walk_macro_tiles(MatrixView<const T> A, MatrixView<const T> B,
                      std::size_t n, std::size_t tile_m, std::size_t tile_n,
                      std::size_t kc, bool pack, Sweep&& sweep) {
  const std::size_t m = A.rows(), k = A.cols();
  const std::size_t ldb = pack ? padded_ld<T>(n) : B.ld();
  AlignedBuffer<T> a_pack, b_pack;
  if (pack) {
    a_pack = AlignedBuffer<T>(tile_m * kc);
    b_pack = AlignedBuffer<T>(std::min(kc, k) * ldb);
  }
  for (std::size_t k0 = 0; k0 < k; k0 += kc) {
    const std::size_t kk = std::min(kc, k - k0);
    const T* b = B.data() + k0 * B.ld();
    if (pack) {
      for (std::size_t t = 0; t < kk; ++t)
        std::copy_n(b + t * B.ld(), n, b_pack.data() + t * ldb);
      b = b_pack.data();
    }
    for (std::size_t i0 = 0; i0 < m; i0 += tile_m) {
      const std::size_t mi = std::min(tile_m, m - i0);
      const T* a = A.data() + i0 * A.ld() + k0;
      std::size_t lda = A.ld();
      if (pack) {
        for (std::size_t i = 0; i < mi; ++i)
          std::copy_n(a + i * A.ld(), kk, a_pack.data() + i * kk);
        a = a_pack.data();
        lda = kk;
      }
      for (std::size_t j0 = 0; j0 < n; j0 += tile_n)
        sweep(a, lda, b + j0, ldb, i0, j0, k0, mi, std::min(tile_n, n - j0),
              kk);
    }
  }
}

/// SIMD macro-kernel: simd_sweep over the macro walk, k in tile_k panels.
template <typename S, std::size_t MR, std::size_t NV>
void tiled_kernel_simd(MatrixView<const typename S::value_type> A,
                       MatrixView<const typename S::value_type> B,
                       MatrixView<typename S::value_type> C,
                       std::size_t tile_m, std::size_t tile_n,
                       std::size_t tile_k, bool pack) {
  using T = typename S::value_type;
  walk_macro_tiles<T>(
      A, B, C.cols(), tile_m, tile_n, tile_k, pack,
      [&](const T* a, std::size_t lda, const T* b, std::size_t ldb,
          std::size_t i0, std::size_t j0, std::size_t, std::size_t mi,
          std::size_t nj, std::size_t kk) {
        simd_sweep<S, MR, NV>(a, lda, b, ldb, C.data() + i0 * C.ld() + j0,
                              C.ld(), mi, nj, kk);
      });
}

/// Deepest k chunk of the argmin kernel: a winning t fits the byte that
/// simd::last_hits writes.
inline constexpr std::size_t kArgminDepth = 256;

/// acc ← cand in the lanes where cand strictly improves acc; returns those
/// lanes as a bitmask. With mask registers the compare writes the bitmask
/// and the blend reads it; elsewhere the blend takes the vector mask and
/// the bitmask is read off it.
template <typename S, std::size_t W>
inline simd::bits_t<W> improve(simd::Vec<typename S::value_type, W> cand,
                               simd::Vec<typename S::value_type, W>& acc) {
  using Ops = simd_ops<S>;
  if constexpr (simd::kMaskRegisters) {
    const auto k = Ops::vimproves_bits(cand, acc);
    acc = simd::vselect_bits(k, cand, acc);
    return k;
  } else {
    const auto imp = Ops::vimproves(cand, acc);
    acc = simd::vselect(imp, cand, acc);
    return simd::vbits(imp);
  }
}

/// Argmin micro-kernel: the MR x (NV*W) value fragment of
/// micro_kernel_simd, where each k step, in ascending t, moves
/// cand = A(i,t) ⊗ B(t,·) into the lanes it strictly improves and stores
/// which lanes those were as one row of MR*NV bitmasks (`masks`, kk rows).
/// An element's last improving t is the first t attaining its best —
/// exactly the t of multiply_with_pred_reference — so after the k loop
/// simd::last_hits reads each improved element's t* off the rows, and the
/// element reads predC(i,j) = predB(t*, j) once. The t bookkeeping costs
/// the loop one mask store per vector instead of a vector blend, and
/// nothing at all once no element of the fragment improves.
template <typename S, std::size_t MR, std::size_t NV>
inline void micro_kernel_argmin(
    const typename S::value_type* a, std::size_t lda,
    const typename S::value_type* b, std::size_t ldb,
    typename S::value_type* c, std::size_t ldc, const std::int64_t* pb,
    std::size_t ldpb, std::int64_t* pc, std::size_t ldpc, std::size_t kk,
    simd::bits_t<simd::native_lanes<typename S::value_type>()>* masks) {
  using T = typename S::value_type;
  constexpr std::size_t W = simd::native_lanes<T>();
  using V = simd::Vec<T, W>;
  using Bits = simd::bits_t<W>;
  V acc[MR][NV];
  for (std::size_t i = 0; i < MR; ++i)
    for (std::size_t v = 0; v < NV; ++v)
      acc[i][v] = simd::load<T, W>(c + i * ldc + v * W);
  for (std::size_t t = 0; t < kk; ++t) {
    const T* brow = b + t * ldb;
    Bits* mrow = masks + t * MR * NV;
    V bv[NV];
    for (std::size_t v = 0; v < NV; ++v)
      bv[v] = simd::load<T, W>(brow + v * W);
    for (std::size_t i = 0; i < MR; ++i) {
      const V av = simd::broadcast<T, W>(a[i * lda + t]);
      for (std::size_t v = 0; v < NV; ++v)
        simd::store_bits<W>(mrow + i * NV + v,
                            improve<S>(simd_ops<S>::vmul(av, bv[v]),
                                       acc[i][v]));
    }
  }
  Bits hits[MR * NV];
  Bits any = 0;
  for (std::size_t i = 0; i < MR; ++i)
    for (std::size_t v = 0; v < NV; ++v) {
      T* cv = c + i * ldc + v * W;
      hits[i * NV + v] =
          simd_ops<S>::vimproves_bits(acc[i][v], simd::load<T, W>(cv));
      any |= hits[i * NV + v];
      simd::store<T, W>(cv, acc[i][v]);
    }
  if (any == 0) return;
  std::uint8_t win[MR * NV * W] = {};
  simd::last_hits<MR * NV, W>(masks, kk, hits, win);
  for (std::size_t i = 0; i < MR; ++i)
    for (std::size_t v = 0; v < NV; ++v)
      simd::vpick_rows<W>(hits[i * NV + v], win + (i * NV + v) * W,
                          pb + v * W, ldpb, pc + i * ldpc + v * W);
}

/// Scalar argmin for the columns past the last one-vector fragment.
template <typename S>
inline void argmin_edge(const typename S::value_type* a, std::size_t lda,
                        const typename S::value_type* b, std::size_t ldb,
                        typename S::value_type* c, std::size_t ldc,
                        const std::int64_t* pb, std::size_t ldpb,
                        std::int64_t* pc, std::size_t ldpc, std::size_t mm,
                        std::size_t nn, std::size_t kk) {
  using T = typename S::value_type;
  for (std::size_t i = 0; i < mm; ++i)
    for (std::size_t j = 0; j < nn; ++j) {
      T best = c[i * ldc + j];
      std::size_t win = kk;
      for (std::size_t t = 0; t < kk; ++t) {
        const T cand = S::mul(a[i * lda + t], b[t * ldb + j]);
        if (S::less_add(cand, best)) {
          best = cand;
          win = t;
        }
      }
      c[i * ldc + j] = best;
      if (win < kk) pc[i * ldpc + j] = pb[win * ldpb + j];
    }
}

/// Register-tiled argmin sweep: the same fragment walk as simd_sweep.
template <typename S, std::size_t MR, std::size_t NV>
inline void argmin_sweep(
    const typename S::value_type* a, std::size_t lda,
    const typename S::value_type* b, std::size_t ldb,
    typename S::value_type* c, std::size_t ldc, const std::int64_t* pb,
    std::size_t ldpb, std::int64_t* pc, std::size_t ldpc, std::size_t mm,
    std::size_t nn, std::size_t kk,
    simd::bits_t<simd::native_lanes<typename S::value_type>()>* masks) {
  walk_fragments<MR, NV, simd::native_lanes<typename S::value_type>()>(
      mm, nn,
      [&]<std::size_t R, std::size_t V>(std::size_t i, std::size_t j) {
        micro_kernel_argmin<S, R, V>(a + i * lda, lda, b + j, ldb,
                                     c + i * ldc + j, ldc, pb + j, ldpb,
                                     pc + i * ldpc + j, ldpc, kk, masks);
      },
      [&](std::size_t i, std::size_t j, std::size_t rows, std::size_t cols) {
        argmin_edge<S>(a + i * lda, lda, b + j, ldb, c + i * ldc + j, ldc,
                       pb + j, ldpb, pc + i * ldpc + j, ldpc, rows, cols,
                       kk);
      });
}

/// True iff the memory spans of two non-empty views overlap.
template <typename T>
inline bool spans_overlap(MatrixView<const T> x, MatrixView<T> y) {
  const std::less<const T*> before;
  const T* x1 = x.data() + (x.rows() - 1) * x.ld() + x.cols();
  const T* y1 = y.data() + (y.rows() - 1) * y.ld() + y.cols();
  return before(x.data(), y1) && before(y.data(), x1);
}

/// Argmin macro-kernel behind multiply_with_pred for every product whose B
/// does not alias C: argmin_sweep over the macro walk, k in chunks of at
/// most kArgminDepth. Chunks compose, since each starts from the values
/// and preds the previous one left and only a strict improvement moves
/// them.
///
/// A may alias C (the column panel, A ≡ C). Every t of row i must then read
/// row i as it was before the call, as the row sweep does, so A is copied
/// whole before any fragment is written.
template <typename S, std::size_t MR, std::size_t NV>
void tiled_kernel_argmin(MatrixView<const typename S::value_type> A,
                         MatrixView<const typename S::value_type> B,
                         MatrixView<typename S::value_type> C,
                         MatrixView<const std::int64_t> predB,
                         MatrixView<std::int64_t> predC, std::size_t tile_m,
                         std::size_t tile_n, std::size_t tile_k, bool pack) {
  using T = typename S::value_type;
  const std::size_t m = C.rows(), k = A.cols();
  AlignedBuffer<T> a_copy;
  if (spans_overlap(A, C)) {
    a_copy = AlignedBuffer<T>(m * k);
    for (std::size_t i = 0; i < m; ++i)
      std::copy_n(A.data() + i * A.ld(), k, a_copy.data() + i * k);
    A = MatrixView<const T>(a_copy.data(), m, k, k);
  }
  const std::size_t kc = std::min(tile_k, kArgminDepth);
  AlignedBuffer<simd::bits_t<simd::native_lanes<T>()>> masks(
      std::min(kc, k) * MR * NV);
  walk_macro_tiles<T>(
      A, B, C.cols(), tile_m, tile_n, kc, pack,
      [&](const T* a, std::size_t lda, const T* b, std::size_t ldb,
          std::size_t i0, std::size_t j0, std::size_t k0, std::size_t mi,
          std::size_t nj, std::size_t kk) {
        argmin_sweep<S, MR, NV>(
            a, lda, b, ldb, C.data() + i0 * C.ld() + j0, C.ld(),
            predB.data() + k0 * predB.ld() + j0, predB.ld(),
            predC.data() + i0 * predC.ld() + j0, predC.ld(), mi, nj, kk,
            masks.data());
      });
}

/// Row-buffered predecessor-tracking SRGEMM over rows [r0, r1) of C:
///     C(i,j) ← best over t of A(i,t) ⊗ B(t,j) vs the incumbent C(i,j),
///     predC(i,j) ← predB(t*, j) for the first t* attaining that best.
/// Each row's new values/preds are computed into scratch from the current
/// operand state and committed only after the full ascending-t scan —
/// Jacobi within a row, Gauss-Seidel across rows. multiply_with_pred runs
/// it for the row panel (B ≡ C), whose later rows read the committed
/// earlier ones, and for semirings without simd_ops.
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
