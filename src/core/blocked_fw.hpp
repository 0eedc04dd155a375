// Blocked Floyd-Warshall (paper Algorithm 2).
//
// The n x n matrix is processed in nb = ⌈n/b⌉ block iterations. Iteration k:
//   1. DiagUpdate  — close A(k,k)
//   2. PanelUpdate — A(k,j) ← A(k,j) ⊕ A(k,k) ⊗ A(k,j)   (block row)
//                    A(i,k) ← A(i,k) ⊕ A(i,k) ⊗ A(k,k)   (block column)
//   3. MinPlusOuter — A(i,j) ← A(i,j) ⊕ A(i,k) ⊗ A(k,j)  ∀ i,j ≠ k
//
// The column-panel update runs in place (C aliases the A operand). That is
// safe because ⊕ is idempotent and A(k,k) is closed: any prematurely
// updated entry only substitutes a candidate that is itself a ⊕-sum of
// valid path candidates, so the fixpoint is unchanged. This is exactly
// the property the paper's asynchronous pipeline also relies on. The
// row-panel update (C aliases B) reads B from a snapshot of the pivot row
// strip instead: the pool splits C by rows, and every worker streams all
// of B while the others write their rows. The result is the same, since
// both orders reach the same fixpoint.
//
// Paths are a payload of the same round loop: pass a predecessor view
// and every product becomes the argmin-tracking kernel (whenever a
// distance improves through intermediate vertex t, pred(i,j) ← pred(t,j);
// the extension the paper lists as future work, §7). The paths row panel
// stays in place, as in the distributed interpreter: its tie-breaks depend
// on the in-place order, and the pred kernel never splits an aliased C.
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <functional>

#include "core/diag_update.hpp"
#include "core/solve_options.hpp"
#include "srgemm/srgemm.hpp"
#include "util/matrix.hpp"
#include "util/thread_pool.hpp"

namespace parfw {

/// block_size / diag live in the shared SolveCommon base (one source of
/// defaults for all three option structs — see core/solve_options.hpp).
/// gemm.pool parallelises the products; nullptr = sequential.
struct BlockedFwOptions : SolveCommon {
  srgemm::Config gemm{};
};

/// Blocked FW over block iterations [start_block, nb) — the restartable
/// core. With start_block = 0 this is the full Algorithm 2; resuming from
/// a checkpoint's next_block continues an interrupted run exactly
/// (in-place FW state after iteration k fully determines the rest).
/// `on_block(k_done, view)` fires after each completed iteration — the
/// hook periodic checkpointing uses (see core/checkpoint.hpp). A non-empty
/// `pred` (initialised with init_predecessors) makes it a paths run.
template <typename S>
void blocked_floyd_warshall_range(
    MatrixView<typename S::value_type> a, std::size_t start_block,
    const BlockedFwOptions& opt = {},
    const std::function<void(std::size_t, MatrixView<typename S::value_type>)>&
        on_block = {},
    MatrixView<std::int64_t> pred = {}) {
  static_assert(is_idempotent<S>(), "blocked FW requires idempotent semiring");
  using T = typename S::value_type;
  PARFW_CHECK(a.rows() == a.cols());
  PARFW_CHECK_MSG(opt.block_size > 0, "block size must be positive");
  const bool paths = !pred.empty();
  PARFW_CHECK(!paths || (pred.rows() == a.rows() && pred.cols() == a.cols()));
  const std::size_t n = a.rows();
  const std::size_t b = opt.block_size;
  const std::size_t nb = (n + b - 1) / b;
  PARFW_CHECK_MSG(start_block <= nb, "resume point beyond the last block");

  const srgemm::Config& cfg = opt.gemm;
  Matrix<T> scratch(b, b);
  // Pivot row/column panel snapshots that the round's products stream
  // through multiply_prepacked. Their leading dimensions are padded
  // (padded_ld) so the rows the kernel streams as B never alias in cache
  // at power-of-two n.
  const std::size_t bmax = std::min(b, n);
  Matrix<T> row_panel(bmax, padded_ld<T>(n));
  Matrix<T> col_panel(n, padded_ld<T>(bmax));
  // Sub-block of the predecessors, or the empty view on a values run.
  auto psub = [&](std::size_t r0, std::size_t c0, std::size_t nr,
                  std::size_t nc) {
    return paths ? pred.sub(r0, c0, nr, nc) : pred;
  };

  for (std::size_t k = start_block; k < nb; ++k) {
    const std::size_t k0 = k * b;
    const std::size_t bk = std::min(n, k0 + b) - k0;
    const std::size_t after0 = k0 + bk;
    const std::size_t after_n = n - after0;
    auto akk = a.sub(k0, k0, bk, bk);
    auto pkk = psub(k0, k0, bk, bk);

    // 1. DiagUpdate
    diag_update<S>(akk, opt.diag, scratch.view(), cfg, pkk);

    // 2. PanelUpdate on the halves left/above and right/below A(k,k). The
    //    values row panel reads B from a snapshot of the pivot row strip,
    //    the paths one reads it in place (see the file comment); the
    //    column panel runs in place, since each worker reads only the rows
    //    of A ≡ C it writes and B = A(k,k).
    auto strip = row_panel.sub(0, 0, bk, n);
    strip.copy_from(a.sub(k0, 0, bk, n));
    const MatrixView<const T> row_b = paths ? a.sub(k0, 0, bk, n) : strip;
    auto panel_update = [&](std::size_t lo, std::size_t len) {
      if (len == 0) return;
      srgemm::multiply_payload<S>(akk, row_b.sub(0, lo, bk, len),
                                  a.sub(k0, lo, bk, len), psub(k0, lo, bk, len),
                                  psub(k0, lo, bk, len), cfg,
                                  /*prepacked=*/true);
      srgemm::multiply_payload<S>(a.sub(lo, k0, len, bk), akk,
                                  a.sub(lo, k0, len, bk), pkk,
                                  psub(lo, k0, len, bk), cfg,
                                  /*prepacked=*/false);
    };
    panel_update(0, k0);
    panel_update(after0, after_n);

    // 3. MinPlusOuter on the four off-panel quadrants: re-snapshot the
    //    updated pivot panels and run every quadrant prepacked. The pivot
    //    row's preds are not written in this phase, so they are read live.
    strip.copy_from(a.sub(k0, 0, bk, n));
    col_panel.sub(0, 0, n, bk).copy_from(a.sub(0, k0, n, bk));
    auto outer = [&](std::size_t r0, std::size_t nr, std::size_t c0,
                     std::size_t nc) {
      if (nr == 0 || nc == 0) return;
      srgemm::multiply_payload<S>(col_panel.sub(r0, 0, nr, bk),
                                  strip.sub(0, c0, bk, nc),
                                  a.sub(r0, c0, nr, nc), psub(k0, c0, bk, nc),
                                  psub(r0, c0, nr, nc), cfg,
                                  /*prepacked=*/true);
    };
    outer(0, k0, 0, k0);
    outer(0, k0, after0, after_n);
    outer(after0, after_n, 0, k0);
    outer(after0, after_n, after0, after_n);
    if (on_block) on_block(k + 1, a);
  }
}

/// In-place blocked FW over any idempotent semiring (paper Algorithm 2);
/// with a non-empty `pred` it also computes the predecessors.
template <typename S>
void blocked_floyd_warshall(MatrixView<typename S::value_type> a,
                            const BlockedFwOptions& opt = {},
                            MatrixView<std::int64_t> pred = {}) {
  blocked_floyd_warshall_range<S>(a, 0, opt, {}, pred);
}

/// FLOP count of blocked FW under the 2·n³ convention (paper §2.7.1).
inline double blocked_fw_flops(std::size_t n) {
  const double nd = static_cast<double>(n);
  return 2.0 * nd * nd * nd;
}

}  // namespace parfw
