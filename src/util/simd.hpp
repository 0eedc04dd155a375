// Portable fixed-width SIMD layer for the SRGEMM micro-kernels.
//
// The paper's kernel reaches its rate by making the min-plus inner loop
// explicitly vector-shaped (CUTLASS tile iterators over warp fragments);
// this is the CPU analogue: a Vec<T, W> wrapper over the GCC/Clang vector
// extensions with the handful of lane-wise ops the semirings need
// (load/store/broadcast, add/mul/min/max/or/and and a mask blend). Every
// op lowers to one instruction on SSE2/AVX2/AVX-512/NEON; on compilers
// without vector extensions the same API falls back to scalar arrays that
// the autovectorizer can still chew on, so kernel code is written once.
//
// Width policy: kNativeBytes is the widest vector the target ISA supports
// (64 on AVX-512, 32 on AVX, 16 on SSE2/NEON, sizeof(T) otherwise) and
// native_lanes<T>() is the lane count the micro-kernels are stamped out
// with. Loads and stores are unaligned (memcpy-based) so kernels can walk
// arbitrary leading dimensions; packing buffers are 64-byte aligned anyway.
//
// Lane bitmasks (bits_t) are the argmin kernel's t bookkeeping. Where
// comparisons write mask registers (kMaskRegisters, AVX-512) the bitmask
// ops are AVX-512 intrinsics; elsewhere they are lane loops over the
// vector-mask ops above.
#pragma once

#include <bit>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <type_traits>

#if (defined(__GNUC__) || defined(__clang__)) && defined(__AVX512BW__) && \
    defined(__AVX512DQ__)
#define PARFW_SIMD_MASK_REGS 1
#include <immintrin.h>
#else
#define PARFW_SIMD_MASK_REGS 0
#endif

namespace parfw::simd {

#if defined(__GNUC__) || defined(__clang__)
#define PARFW_SIMD_VECTOR_EXT 1
#else
#define PARFW_SIMD_VECTOR_EXT 0
#endif

#if PARFW_SIMD_VECTOR_EXT && defined(__AVX512F__)
inline constexpr std::size_t kNativeBytes = 64;
#elif PARFW_SIMD_VECTOR_EXT && defined(__AVX__)
inline constexpr std::size_t kNativeBytes = 32;
#elif PARFW_SIMD_VECTOR_EXT && \
    (defined(__SSE2__) || defined(__ARM_NEON) || defined(__aarch64__))
inline constexpr std::size_t kNativeBytes = 16;
#else
inline constexpr std::size_t kNativeBytes = 0;  // scalar fallback
#endif

/// True where native-width comparisons write mask registers (AVX-512 with
/// byte, word and doubleword mask ops): vcmp_lt_bits then yields a bitmask
/// directly and vselect_bits consumes one, with no vector mask in between.
inline constexpr bool kMaskRegisters = PARFW_SIMD_MASK_REGS == 1;

/// Lanes per native vector for element type T (>= 1; 4 in scalar fallback
/// so the micro-kernels still get an unrollable shape).
template <typename T>
constexpr std::size_t native_lanes() {
  return kNativeBytes == 0 ? 4 : kNativeBytes / sizeof(T);
}

/// Signed integer type as wide as Bytes — the lane type of comparison
/// masks (vector comparisons yield same-width integer lanes, all-ones on
/// true).
template <std::size_t Bytes>
struct int_of_size;
template <>
struct int_of_size<1> {
  using type = std::int8_t;
};
template <>
struct int_of_size<2> {
  using type = std::int16_t;
};
template <>
struct int_of_size<4> {
  using type = std::int32_t;
};
template <>
struct int_of_size<8> {
  using type = std::int64_t;
};

/// Mask lane type matching T's width.
template <typename T>
using mask_t = typename int_of_size<sizeof(T)>::type;

/// Fixed-width vector of W lanes of T. Trivially copyable; all ops are
/// free functions so the type stays a plain register-sized value.
template <typename T, std::size_t W>
struct Vec {
#if PARFW_SIMD_VECTOR_EXT
  typedef T native __attribute__((vector_size(W * sizeof(T))));
  native v;
#else
  T v[W];
#endif
};

template <typename T, std::size_t W>
inline Vec<T, W> load(const T* p) {
  Vec<T, W> r;
  std::memcpy(&r.v, p, W * sizeof(T));  // unaligned load
  return r;
}

template <typename T, std::size_t W>
inline void store(T* p, Vec<T, W> a) {
  std::memcpy(p, &a.v, W * sizeof(T));  // unaligned store
}

template <typename T, std::size_t W>
inline Vec<T, W> broadcast(T x) {
  Vec<T, W> r;
#if PARFW_SIMD_VECTOR_EXT
  r.v = x - typename Vec<T, W>::native{};  // splat via vector-scalar op
#else
  for (std::size_t i = 0; i < W; ++i) r.v[i] = x;
#endif
  return r;
}

#if PARFW_SIMD_VECTOR_EXT

template <typename T, std::size_t W>
inline Vec<T, W> vadd(Vec<T, W> a, Vec<T, W> b) {
  return {a.v + b.v};
}
template <typename T, std::size_t W>
inline Vec<T, W> vmul(Vec<T, W> a, Vec<T, W> b) {
  return {a.v * b.v};
}
template <typename T, std::size_t W>
inline Vec<T, W> vmin(Vec<T, W> a, Vec<T, W> b) {
  return {a.v < b.v ? a.v : b.v};
}
template <typename T, std::size_t W>
inline Vec<T, W> vmax(Vec<T, W> a, Vec<T, W> b) {
  return {a.v > b.v ? a.v : b.v};
}
template <typename T, std::size_t W>
inline Vec<T, W> vor(Vec<T, W> a, Vec<T, W> b) {
  return {a.v | b.v};
}
template <typename T, std::size_t W>
inline Vec<T, W> vand(Vec<T, W> a, Vec<T, W> b) {
  return {a.v & b.v};
}
/// Lanes where either operand is >= limit become limit; the rest take
/// min(a + b, limit). This is the integer tropical ⊗ (saturating add with
/// an absorbing "no path" sentinel) in three vector ops: both inputs are
/// clamped to limit first, so the lane-wise sum cannot overflow even when
/// callers feed values above the sentinel.
template <typename T, std::size_t W>
inline Vec<T, W> vsat_add(Vec<T, W> a, Vec<T, W> b, Vec<T, W> limit) {
  auto ac = a.v < limit.v ? a.v : limit.v;
  auto bc = b.v < limit.v ? b.v : limit.v;
  auto s = ac + bc;
  s = s < limit.v ? s : limit.v;
  // "No path" absorbs even negative weights: any lane with an infinite
  // operand is pinned to limit regardless of the sum.
  return {((a.v >= limit.v) | (b.v >= limit.v)) ? limit.v : s};
}

/// Lane-wise a < b as an all-ones/all-zeros mask of T-width integer lanes.
template <typename T, std::size_t W>
inline Vec<mask_t<T>, W> vcmp_lt(Vec<T, W> a, Vec<T, W> b) {
  Vec<mask_t<T>, W> r;
  // The builtin comparison already yields same-width signed lanes; the
  // convertvector pins down the exact lane type (int vs long spelling).
  r.v = __builtin_convertvector(a.v < b.v,
                                typename Vec<mask_t<T>, W>::native);
  return r;
}
template <typename T, std::size_t W>
inline Vec<mask_t<T>, W> vcmp_gt(Vec<T, W> a, Vec<T, W> b) {
  Vec<mask_t<T>, W> r;
  r.v = __builtin_convertvector(a.v > b.v,
                                typename Vec<mask_t<T>, W>::native);
  return r;
}
/// Lanes where the mask is nonzero take x, the rest keep y.
template <typename M, typename T, std::size_t W>
inline Vec<T, W> vselect(Vec<M, W> m, Vec<T, W> x, Vec<T, W> y) {
  static_assert(sizeof(M) == sizeof(T), "mask lanes must match value lanes");
  return {m.v ? x.v : y.v};
}
/// Sign-extend (or narrow) a mask to To-width lanes, e.g. an int32 float
/// mask to the int64 lanes of a predecessor vector.
template <typename To, typename M, std::size_t W>
inline Vec<To, W> vmask_cast(Vec<M, W> m) {
  Vec<To, W> r;
  r.v = __builtin_convertvector(m.v, typename Vec<To, W>::native);
  return r;
}

#else  // scalar fallback: same API, lane loops

#define PARFW_SIMD_LANEWISE(name, expr)                     \
  template <typename T, std::size_t W>                      \
  inline Vec<T, W> name(Vec<T, W> a, Vec<T, W> b) {         \
    Vec<T, W> r;                                            \
    for (std::size_t i = 0; i < W; ++i) r.v[i] = (expr);    \
    return r;                                               \
  }
PARFW_SIMD_LANEWISE(vadd, a.v[i] + b.v[i])
PARFW_SIMD_LANEWISE(vmul, a.v[i] * b.v[i])
PARFW_SIMD_LANEWISE(vmin, a.v[i] < b.v[i] ? a.v[i] : b.v[i])
PARFW_SIMD_LANEWISE(vmax, a.v[i] > b.v[i] ? a.v[i] : b.v[i])
PARFW_SIMD_LANEWISE(vor, a.v[i] | b.v[i])
PARFW_SIMD_LANEWISE(vand, a.v[i] & b.v[i])
#undef PARFW_SIMD_LANEWISE

template <typename T, std::size_t W>
inline Vec<T, W> vsat_add(Vec<T, W> a, Vec<T, W> b, Vec<T, W> limit) {
  Vec<T, W> r;
  for (std::size_t i = 0; i < W; ++i) {
    if (a.v[i] >= limit.v[i] || b.v[i] >= limit.v[i]) {
      r.v[i] = limit.v[i];
      continue;
    }
    const T s = a.v[i] + b.v[i];
    r.v[i] = s < limit.v[i] ? s : limit.v[i];
  }
  return r;
}

template <typename T, std::size_t W>
inline Vec<mask_t<T>, W> vcmp_lt(Vec<T, W> a, Vec<T, W> b) {
  Vec<mask_t<T>, W> r;
  for (std::size_t i = 0; i < W; ++i)
    r.v[i] = a.v[i] < b.v[i] ? mask_t<T>(-1) : mask_t<T>(0);
  return r;
}
template <typename T, std::size_t W>
inline Vec<mask_t<T>, W> vcmp_gt(Vec<T, W> a, Vec<T, W> b) {
  Vec<mask_t<T>, W> r;
  for (std::size_t i = 0; i < W; ++i)
    r.v[i] = a.v[i] > b.v[i] ? mask_t<T>(-1) : mask_t<T>(0);
  return r;
}
template <typename M, typename T, std::size_t W>
inline Vec<T, W> vselect(Vec<M, W> m, Vec<T, W> x, Vec<T, W> y) {
  static_assert(sizeof(M) == sizeof(T), "mask lanes must match value lanes");
  Vec<T, W> r;
  for (std::size_t i = 0; i < W; ++i) r.v[i] = m.v[i] ? x.v[i] : y.v[i];
  return r;
}
template <typename To, typename M, std::size_t W>
inline Vec<To, W> vmask_cast(Vec<M, W> m) {
  Vec<To, W> r;
  for (std::size_t i = 0; i < W; ++i) r.v[i] = static_cast<To>(m.v[i]);
  return r;
}

#endif  // PARFW_SIMD_VECTOR_EXT

/// Half of a vector (Half = 0 low, 1 high) as a half-width value. The
/// memcpy lowers to a register extract; it exists so wide logical vectors
/// can be processed at native register width (see vblend_ids).
template <std::size_t Half, typename T, std::size_t W>
inline Vec<T, W / 2> vhalf(Vec<T, W> a) {
  static_assert(Half < 2 && W % 2 == 0);
  Vec<T, W / 2> r;
  std::memcpy(&r.v,
              reinterpret_cast<const unsigned char*>(&a.v) +
                  Half * (W / 2) * sizeof(T),
              (W / 2) * sizeof(T));
  return r;
}

/// True iff any lane of a comparison mask is set (log2(W) OR folds).
template <typename M, std::size_t W>
inline bool vany(Vec<M, W> m) {
  if constexpr (W == 1) {
    return m.v[0] != 0;
  } else {
    return vany(vor(vhalf<0>(m), vhalf<1>(m)));
  }
}

/// Masked predecessor blend: lanes where the value-width mask is set take
/// src, the rest keep dst — W int64 id lanes driven by a W-lane mask of
/// sizeof(M)-byte lanes. When sizeof(M) < 8 the widened mask would be a
/// 2x-native vector, and compilers scalarize selects on oversized generic
/// vectors (GCC emits a per-lane extract/cmove storm that is slower than
/// the scalar loop), so the widen + blend runs in two native-width halves.
template <typename M, std::size_t W>
inline void vblend_ids(Vec<M, W> m, const std::int64_t* src,
                       std::int64_t* dst) {
  if constexpr (sizeof(M) == sizeof(std::int64_t)) {
    store<std::int64_t, W>(
        dst, vselect(vmask_cast<std::int64_t>(m), load<std::int64_t, W>(src),
                     load<std::int64_t, W>(dst)));
  } else {
    constexpr std::size_t H = W / 2;
    store<std::int64_t, H>(
        dst, vselect(vmask_cast<std::int64_t>(vhalf<0>(m)),
                     load<std::int64_t, H>(src), load<std::int64_t, H>(dst)));
    store<std::int64_t, H>(
        dst + H,
        vselect(vmask_cast<std::int64_t>(vhalf<1>(m)),
                load<std::int64_t, H>(src + H), load<std::int64_t, H>(dst + H)));
  }
}

/// Lane bitmask of W lanes (bit l is lane l) in the narrowest unsigned
/// type that holds it. For W >= 8 an array of them is one contiguous bit
/// string: word w holds lanes w*W .. w*W + W - 1.
template <std::size_t W>
using bits_t = std::conditional_t<
    W <= 8, std::uint8_t,
    std::conditional_t<W <= 16, std::uint16_t,
                       std::conditional_t<W <= 32, std::uint32_t,
                                          std::uint64_t>>>;

/// Lane bitmask of a comparison mask: bit l set iff lane l is nonzero.
template <typename M, std::size_t W>
inline bits_t<W> vbits(Vec<M, W> m) {
  bits_t<W> r = 0;
  for (std::size_t l = 0; l < W; ++l)
    r |= static_cast<bits_t<W>>(static_cast<bits_t<W>>(m.v[l] != 0) << l);
  return r;
}

/// Lane-wise a < b as a bitmask: one compare into a mask register on a
/// native-width vector with kMaskRegisters, vbits(vcmp_lt(a, b)) elsewhere.
template <typename T, std::size_t W>
inline bits_t<W> vcmp_lt_bits(Vec<T, W> a, Vec<T, W> b) {
#if PARFW_SIMD_MASK_REGS
  if constexpr (W * sizeof(T) == 64) {
    if constexpr (std::is_same_v<T, float>) {
      return _mm512_cmp_ps_mask((__m512)a.v, (__m512)b.v, _CMP_LT_OQ);
    } else if constexpr (std::is_same_v<T, double>) {
      return _mm512_cmp_pd_mask((__m512d)a.v, (__m512d)b.v, _CMP_LT_OQ);
    } else if constexpr (std::is_integral_v<T>) {
      const __m512i x = (__m512i)a.v, y = (__m512i)b.v;
      constexpr bool s = std::is_signed_v<T>;
      if constexpr (sizeof(T) == 1)
        return s ? _mm512_cmplt_epi8_mask(x, y) : _mm512_cmplt_epu8_mask(x, y);
      if constexpr (sizeof(T) == 2)
        return s ? _mm512_cmplt_epi16_mask(x, y)
                 : _mm512_cmplt_epu16_mask(x, y);
      if constexpr (sizeof(T) == 4)
        return s ? _mm512_cmplt_epi32_mask(x, y)
                 : _mm512_cmplt_epu32_mask(x, y);
      if constexpr (sizeof(T) == 8)
        return s ? _mm512_cmplt_epi64_mask(x, y)
                 : _mm512_cmplt_epu64_mask(x, y);
    }
  }
#endif
  return vbits(vcmp_lt(a, b));
}
/// Lane-wise a > b as a bitmask.
template <typename T, std::size_t W>
inline bits_t<W> vcmp_gt_bits(Vec<T, W> a, Vec<T, W> b) {
  return vcmp_lt_bits(b, a);
}

/// Lanes whose bit is set take x, the rest keep y: one masked blend on a
/// native-width vector with kMaskRegisters.
template <typename T, std::size_t W>
inline Vec<T, W> vselect_bits(bits_t<W> m, Vec<T, W> x, Vec<T, W> y) {
#if PARFW_SIMD_MASK_REGS
  if constexpr (W * sizeof(T) == 64) {
    using N = typename Vec<T, W>::native;
    if constexpr (std::is_same_v<T, float>)
      return {(N)_mm512_mask_blend_ps(m, (__m512)y.v, (__m512)x.v)};
    if constexpr (std::is_same_v<T, double>)
      return {(N)_mm512_mask_blend_pd(m, (__m512d)y.v, (__m512d)x.v)};
    const __m512i xi = (__m512i)x.v, yi = (__m512i)y.v;
    if constexpr (sizeof(T) == 1) return {(N)_mm512_mask_blend_epi8(m, yi, xi)};
    if constexpr (sizeof(T) == 2)
      return {(N)_mm512_mask_blend_epi16(m, yi, xi)};
    if constexpr (sizeof(T) == 4)
      return {(N)_mm512_mask_blend_epi32(m, yi, xi)};
    if constexpr (sizeof(T) == 8)
      return {(N)_mm512_mask_blend_epi64(m, yi, xi)};
  }
#endif
  Vec<mask_t<T>, W> mv;
  for (std::size_t l = 0; l < W; ++l)
    mv.v[l] = ((m >> l) & 1) != 0 ? mask_t<T>(-1) : mask_t<T>(0);
  return vselect(mv, x, y);
}

/// *p = m. With kMaskRegisters the store is spelled as one kmov from the
/// mask register: the compiler would otherwise merge a run of adjacent
/// bitmask stores into one vector store assembled through general
/// registers, which costs ALU ops the stores themselves do not.
template <std::size_t W>
inline void store_bits(bits_t<W>* p, bits_t<W> m) {
#if PARFW_SIMD_MASK_REGS
  if constexpr (sizeof(m) == 1)
    asm("kmovb %1, %0" : "=m"(*p) : "k"(m));
  else if constexpr (sizeof(m) == 2)
    asm("kmovw %1, %0" : "=m"(*p) : "k"(m));
  else if constexpr (sizeof(m) == 4)
    asm("kmovd %1, %0" : "=m"(*p) : "k"(m));
  else
    asm("kmovq %1, %0" : "=m"(*p) : "k"(m));
#else
  *p = m;
#endif
}

/// For every lane e < Words * W set in hits (hits[w] covers word w), the
/// index of the last of kk rows of bitmasks (row t is Words words at
/// rows + t * Words) whose bit e is set, written to win[e]; other lanes of
/// win are left alone. kk <= 256, so an index fits the byte. With
/// kMaskRegisters each row drives byte blends of t into the winner bytes,
/// 64 lanes per instruction; elsewhere each word scans its rows backwards
/// until every hit lane is placed.
template <std::size_t Words, std::size_t W>
inline void last_hits(const bits_t<W>* rows, std::size_t kk,
                      const bits_t<W>* hits, std::uint8_t* win) {
#if PARFW_SIMD_MASK_REGS
  if constexpr (W >= 8) {
    constexpr std::size_t E = Words * W, kBytes = E / 8, C = (E + 63) / 64;
    const auto* bytes = reinterpret_cast<const unsigned char*>(rows);
    __m512i w[C] = {};
    // t rides in a register, stepped by one add per row: a broadcast of t
    // from a general register would cost each blend a second shuffle op.
    __m512i tv = _mm512_setzero_si512();
    const __m512i one = _mm512_set1_epi8(1);
    for (std::size_t t = 0; t < kk; ++t) {
      for (std::size_t c = 0; c < C; ++c) {
        __mmask64 m = 0;
        std::memcpy(&m, bytes + t * kBytes + c * 8,
                    c * 8 + 8 <= kBytes ? 8 : kBytes - c * 8);
        w[c] = _mm512_mask_mov_epi8(w[c], m, tv);
      }
      tv = _mm512_add_epi8(tv, one);
    }
    for (std::size_t c = 0; c < C; ++c) {
      __mmask64 m = 0;
      std::memcpy(&m, reinterpret_cast<const unsigned char*>(hits) + c * 8,
                  c * 8 + 8 <= kBytes ? 8 : kBytes - c * 8);
      _mm512_mask_storeu_epi8(win + c * 64, m, w[c]);
    }
    return;
  }
#endif
  for (std::size_t w = 0; w < Words; ++w) {
    bits_t<W> rem = hits[w];
    for (std::size_t t = kk; rem != 0 && t-- > 0;) {
      bits_t<W> h = rows[t * Words + w] & rem;
      rem = static_cast<bits_t<W>>(rem & ~h);
      for (; h != 0; h = static_cast<bits_t<W>>(h & (h - 1)))
        win[w * W + static_cast<std::size_t>(std::countr_zero(h))] =
            static_cast<std::uint8_t>(t);
    }
  }
}

/// dst[l] = src[win[l] * ld + l] for every lane l < W set in m — a row
/// pick per lane, the argmin kernel's predecessor fetch. With
/// kMaskRegisters each 8 lanes are one masked gather and one masked store;
/// elsewhere (or when a row offset could leave int32) a lane loop.
template <std::size_t W>
inline void vpick_rows(bits_t<W> m, const std::uint8_t* win,
                       const std::int64_t* src, std::size_t ld,
                       std::int64_t* dst) {
#if PARFW_SIMD_MASK_REGS
  if constexpr (W % 8 == 0) {
    if (ld <= 0x7fffffffu / 256) {
      const __m256i lane = _mm256_setr_epi32(0, 1, 2, 3, 4, 5, 6, 7);
      const __m256i ldv = _mm256_set1_epi32(static_cast<int>(ld));
      for (std::size_t c = 0; c < W / 8; ++c) {
        const auto k = static_cast<__mmask8>(m >> (8 * c));
        if (k == 0) continue;
        const __m256i t = _mm256_cvtepu8_epi32(_mm_loadl_epi64(
            reinterpret_cast<const __m128i*>(win + 8 * c)));
        const __m256i idx =
            _mm256_add_epi32(_mm256_mullo_epi32(t, ldv), lane);
        const __m512i ids = _mm512_mask_i32gather_epi64(
            _mm512_setzero_si512(), k, idx, src + 8 * c, 8);
        _mm512_mask_storeu_epi64(dst + 8 * c, k, ids);
      }
      return;
    }
  }
#endif
  for (; m != 0; m = static_cast<bits_t<W>>(m & (m - 1))) {
    const std::size_t l = static_cast<std::size_t>(std::countr_zero(m));
    dst[l] = src[win[l] * ld + l];
  }
}

}  // namespace parfw::simd
