// Semiring algebra underlying the Floyd-Warshall family (paper §2.3).
//
// APSP is matrix closure over the tropical (min,+) semiring:
//     x ⊕ y = min(x, y)         additive op, identity +∞
//     x ⊗ y = x + y             multiplicative op, identity 0
//
// Everything downstream (SRGEMM kernels, blocked FW, the distributed
// pipeline, the offload engine) is templated on a Semiring type, so the
// same machinery computes shortest paths (MinPlus), widest paths /
// bottleneck capacities (MaxMin), transitive closure (BoolOrAnd), and
// ordinary linear algebra (PlusTimes, used to cross-check the kernels
// against textbook GEMM).
//
// A Semiring S over value type S::value_type provides:
//   zero()  — ⊕-identity and ⊗-annihilator (the "no path" value)
//   one()   — ⊗-identity (the "empty path" value)
//   add(x,y), mul(x,y) — the two operators
//   less_add(x,y) — true iff add(x,y) == x strictly improves on y's slot;
//                   used by argmin-tracking kernels for path reconstruction.
#pragma once

#include <algorithm>
#include <cstdint>
#include <limits>
#include <type_traits>

#include "util/simd.hpp"

namespace parfw {

/// Infinity handling: IEEE types use real infinity; integral types use a
/// large sentinel with saturating ⊗ so that INF + w does not wrap around.
template <typename T>
struct value_traits {
  static_assert(std::is_floating_point_v<T>,
                "specialise value_traits for non-IEEE types");
  static constexpr T infinity() { return std::numeric_limits<T>::infinity(); }
  /// Saturating add is a plain add for IEEE types (inf + x == inf).
  static constexpr T sat_add(T a, T b) { return a + b; }
  static constexpr bool is_inf(T x) {
    return x == std::numeric_limits<T>::infinity();
  }
};

template <>
struct value_traits<std::int32_t> {
  // Half of max so that sentinel + sentinel still compares as "infinite"
  // without signed overflow (UB).
  static constexpr std::int32_t infinity() {
    return std::numeric_limits<std::int32_t>::max() / 2;
  }
  static constexpr std::int32_t sat_add(std::int32_t a, std::int32_t b) {
    // "No path" is absorbing even with negative weights: inf + w == inf.
    if (is_inf(a) || is_inf(b)) return infinity();
    const std::int64_t s = std::int64_t{a} + std::int64_t{b};
    return s >= infinity() ? infinity() : static_cast<std::int32_t>(s);
  }
  static constexpr bool is_inf(std::int32_t x) { return x >= infinity(); }
};

template <>
struct value_traits<std::int64_t> {
  static constexpr std::int64_t infinity() {
    return std::numeric_limits<std::int64_t>::max() / 2;
  }
  static constexpr std::int64_t sat_add(std::int64_t a, std::int64_t b) {
    if (is_inf(a) || is_inf(b)) return infinity();
    // Both operands are now below infinity(); the sum cannot overflow.
    const std::int64_t s = a + b;
    return s >= infinity() ? infinity() : s;
  }
  static constexpr bool is_inf(std::int64_t x) { return x >= infinity(); }
};

/// Tropical (min, +) semiring — shortest paths. The paper's semiring.
template <typename T>
struct MinPlus {
  using value_type = T;
  static constexpr T zero() { return value_traits<T>::infinity(); }
  static constexpr T one() { return T{0}; }
  static constexpr T add(T x, T y) { return x < y ? x : y; }
  static constexpr T mul(T x, T y) { return value_traits<T>::sat_add(x, y); }
  /// x strictly better than y in the ⊕ order.
  static constexpr bool less_add(T x, T y) { return x < y; }
};

/// (max, min) semiring — widest path / bottleneck capacity.
template <typename T>
struct MaxMin {
  using value_type = T;
  static constexpr T zero() { return T{0}; }  // no path: zero capacity
  static constexpr T one() { return value_traits<T>::infinity(); }
  static constexpr T add(T x, T y) { return x > y ? x : y; }
  static constexpr T mul(T x, T y) { return x < y ? x : y; }
  static constexpr bool less_add(T x, T y) { return x > y; }
};

/// Boolean (or, and) semiring — transitive closure / reachability.
struct BoolOrAnd {
  using value_type = std::uint8_t;
  static constexpr std::uint8_t zero() { return 0; }
  static constexpr std::uint8_t one() { return 1; }
  static constexpr std::uint8_t add(std::uint8_t x, std::uint8_t y) {
    return x | y;
  }
  static constexpr std::uint8_t mul(std::uint8_t x, std::uint8_t y) {
    return x & y;
  }
  static constexpr bool less_add(std::uint8_t x, std::uint8_t y) {
    return x > y;  // 1 "improves" 0
  }
};

/// Ordinary (+, ×) — lets the SRGEMM kernels be validated against classical
/// GEMM identities in the tests.
template <typename T>
struct PlusTimes {
  using value_type = T;
  static constexpr T zero() { return T{0}; }
  static constexpr T one() { return T{1}; }
  static constexpr T add(T x, T y) { return x + y; }
  static constexpr T mul(T x, T y) { return x * y; }
  static constexpr bool less_add(T, T) { return false; }
};

// ---------------------------------------------------------------------------
// SIMD traits — the lane-wise forms of ⊕ and ⊗ for the vectorized SRGEMM
// micro-kernels (the CPU analogue of the paper's per-semiring CUTLASS
// operator specializations in cuASR). A semiring is SIMD-capable when both
// operators have a branch-free vector form; the primary template says "no"
// so exotic semirings fall back to the naive kernel.
//
// The ops take and return simd::Vec<value_type, W> for any width W, so one
// micro-kernel template serves every vector ISA (and the scalar fallback).
// vimproves is less_add lane-wise as a vector mask (the selects of the
// row sweep); vimproves_bits is the same test as a lane bitmask (the
// argmin kernel's t bookkeeping).
// ---------------------------------------------------------------------------

template <typename S>
struct simd_ops {
  static constexpr bool available = false;
};

/// MinPlus over IEEE types: ⊕ = min, ⊗ = plain add (inf + x == inf holds
/// natively, so no sentinel handling is needed).
template <typename T>
  requires std::is_floating_point_v<T>
struct simd_ops<MinPlus<T>> {
  static constexpr bool available = true;
  template <std::size_t W>
  static simd::Vec<T, W> vadd(simd::Vec<T, W> x, simd::Vec<T, W> y) {
    return simd::vmin(x, y);
  }
  template <std::size_t W>
  static simd::Vec<T, W> vmul(simd::Vec<T, W> x, simd::Vec<T, W> y) {
    return simd::vadd(x, y);
  }
  template <std::size_t W>
  static simd::Vec<simd::mask_t<T>, W> vimproves(simd::Vec<T, W> cand,
                                                 simd::Vec<T, W> best) {
    return simd::vcmp_lt(cand, best);  // less_add: x < y
  }
  template <std::size_t W>
  static simd::bits_t<W> vimproves_bits(simd::Vec<T, W> cand,
                                        simd::Vec<T, W> best) {
    return simd::vcmp_lt_bits(cand, best);
  }
};

/// MinPlus over integral types: ⊕ = min, ⊗ = saturating add against the
/// "no path" sentinel (vsat_add clamps both inputs to the sentinel first,
/// so the lane sum cannot overflow — the vector form of sat_add above).
template <typename T>
  requires std::is_integral_v<T>
struct simd_ops<MinPlus<T>> {
  static constexpr bool available = true;
  template <std::size_t W>
  static simd::Vec<T, W> vadd(simd::Vec<T, W> x, simd::Vec<T, W> y) {
    return simd::vmin(x, y);
  }
  template <std::size_t W>
  static simd::Vec<T, W> vmul(simd::Vec<T, W> x, simd::Vec<T, W> y) {
    return simd::vsat_add(
        x, y, simd::broadcast<T, W>(value_traits<T>::infinity()));
  }
  template <std::size_t W>
  static simd::Vec<simd::mask_t<T>, W> vimproves(simd::Vec<T, W> cand,
                                                 simd::Vec<T, W> best) {
    return simd::vcmp_lt(cand, best);
  }
  template <std::size_t W>
  static simd::bits_t<W> vimproves_bits(simd::Vec<T, W> cand,
                                        simd::Vec<T, W> best) {
    return simd::vcmp_lt_bits(cand, best);
  }
};

/// MaxMin: ⊕ = max, ⊗ = min — both are single instructions everywhere.
template <typename T>
struct simd_ops<MaxMin<T>> {
  static constexpr bool available = true;
  template <std::size_t W>
  static simd::Vec<T, W> vadd(simd::Vec<T, W> x, simd::Vec<T, W> y) {
    return simd::vmax(x, y);
  }
  template <std::size_t W>
  static simd::Vec<T, W> vmul(simd::Vec<T, W> x, simd::Vec<T, W> y) {
    return simd::vmin(x, y);
  }
  template <std::size_t W>
  static simd::Vec<simd::mask_t<T>, W> vimproves(simd::Vec<T, W> cand,
                                                 simd::Vec<T, W> best) {
    return simd::vcmp_gt(cand, best);  // less_add: x > y
  }
  template <std::size_t W>
  static simd::bits_t<W> vimproves_bits(simd::Vec<T, W> cand,
                                        simd::Vec<T, W> best) {
    return simd::vcmp_gt_bits(cand, best);
  }
};

/// BoolOrAnd: ⊕ = bitwise or, ⊗ = bitwise and (values are 0/1 bytes, so
/// the bitwise forms coincide with the logical ones, 64 lanes per AVX-512
/// vector).
template <>
struct simd_ops<BoolOrAnd> {
  static constexpr bool available = true;
  using T = std::uint8_t;
  template <std::size_t W>
  static simd::Vec<T, W> vadd(simd::Vec<T, W> x, simd::Vec<T, W> y) {
    return simd::vor(x, y);
  }
  template <std::size_t W>
  static simd::Vec<T, W> vmul(simd::Vec<T, W> x, simd::Vec<T, W> y) {
    return simd::vand(x, y);
  }
  template <std::size_t W>
  static simd::Vec<simd::mask_t<T>, W> vimproves(simd::Vec<T, W> cand,
                                                 simd::Vec<T, W> best) {
    return simd::vcmp_gt(cand, best);  // 1 "improves" 0
  }
  template <std::size_t W>
  static simd::bits_t<W> vimproves_bits(simd::Vec<T, W> cand,
                                        simd::Vec<T, W> best) {
    return simd::vcmp_gt_bits(cand, best);
  }
};

/// PlusTimes: ordinary GEMM lanes. ⊕ reassociates under vectorization, so
/// floating-point results may differ from the scalar oracle in the last
/// ulp — exact for the integral instantiations the tests cross-check.
template <typename T>
struct simd_ops<PlusTimes<T>> {
  static constexpr bool available = true;
  template <std::size_t W>
  static simd::Vec<T, W> vadd(simd::Vec<T, W> x, simd::Vec<T, W> y) {
    return simd::vadd(x, y);
  }
  template <std::size_t W>
  static simd::Vec<T, W> vmul(simd::Vec<T, W> x, simd::Vec<T, W> y) {
    return simd::vmul(x, y);
  }
  template <std::size_t W>
  static simd::Vec<simd::mask_t<T>, W> vimproves(simd::Vec<T, W>,
                                                 simd::Vec<T, W>) {
    return simd::broadcast<simd::mask_t<T>, W>(0);  // less_add: never
  }
  template <std::size_t W>
  static simd::bits_t<W> vimproves_bits(simd::Vec<T, W>, simd::Vec<T, W>) {
    return 0;
  }
};

/// True if the semiring's ⊕ is idempotent (x ⊕ x == x). Idempotence is what
/// makes in-place blocked FW correct and makes repeating an update harmless —
/// the property the asynchronous pipeline relies on.
template <typename S>
constexpr bool is_idempotent() {
  using T = typename S::value_type;
  const T a = S::one();
  return S::add(a, a) == a;
}

}  // namespace parfw
