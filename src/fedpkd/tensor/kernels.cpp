#include "fedpkd/tensor/kernels.hpp"

#include <immintrin.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <limits>

#include "fedpkd/tensor/workspace.hpp"

namespace fedpkd::tensor::kernels {

namespace {

/// Register tile: kMr output rows x kNc output columns are in flight at once,
/// so each loaded B row feeds kMr accumulator rows and C traffic collapses to
/// one store per element. kNc = 8 floats = two 128-bit vectors; with kMr = 6
/// the 12 accumulator vectors plus the 2 B vectors and the A broadcast fill
/// the 16-register SSE file exactly. The accumulators are explicit __m128
/// locals because the zero-skip branches otherwise make the compiler spill a
/// plain float array to the stack on every iteration.
constexpr std::size_t kMr = 6;
constexpr std::size_t kNc = 8;

/// Column width of the AVX tile: 16 floats = two 256-bit vectors, same
/// 12-accumulators-plus-2-B-plus-broadcast register layout as the SSE tile
/// but with twice the lanes. The AVX path uses only vbroadcastss/vmulps/
/// vaddps — elementwise IEEE ops, never FMA — so SSE, AVX, and scalar paths
/// all produce bitwise-identical output and runtime dispatch cannot break
/// cross-machine determinism.
constexpr std::size_t kNcAvx = 16;

// The AVX kernels (GEMM tile, B-strip pack, Adam pass) are compiled with a
// per-function target attribute and selected at runtime, so the translation
// unit itself still builds for (and runs on) baseline x86-64 SSE2.
#if defined(__GNUC__) && defined(__x86_64__)
#define FEDPKD_GEMM_AVX 1
#endif

enum class Store { kAssign, kAddBias, kAccumulate };

/// True iff *p is +0.0f or -0.0f — the zero-skip predicate `av == 0.0f` of
/// the naive kernels, tested on the bit pattern so the hot loop spends one
/// integer test+branch per A element instead of a ucomiss plus two branches.
inline bool is_float_zero(const float* p) {
  std::uint32_t bits;
  std::memcpy(&bits, p, sizeof(bits));
  return (bits << 1) == 0;
}

template <Store kStore>
inline void store_tile(const float (&acc)[kMr][kNcAvx], const float* bias,
                       float* c, std::size_t n, std::size_t i0, std::size_t mr,
                       std::size_t j0, std::size_t nc) {
  for (std::size_t i = 0; i < mr; ++i) {
    float* crow = c + (i0 + i) * n + j0;
    for (std::size_t j = 0; j < nc; ++j) {
      if constexpr (kStore == Store::kAssign) {
        crow[j] = acc[i][j];
      } else if constexpr (kStore == Store::kAddBias) {
        crow[j] = acc[i][j] + bias[j0 + j];
      } else {
        crow[j] += acc[i][j];
      }
    }
  }
}

/// Full kMr x kNc tile (the hot path). A is addressed through runtime strides
/// so the same kernel serves A and A^T layouts. _mm_mul_ps/_mm_add_ps are
/// elementwise IEEE float ops, so each output element still sees exactly the
/// naive kernel's mul-add sequence in ascending kk order, and the av != 0
/// guard is the naive kernels' zero-skip predicate.
template <Store kStore>
inline void gemm_tile_full(const float* a, std::size_t a_row_stride,
                           std::size_t a_k_stride, const float* b,
                           const float* bias, float* c, std::size_t k,
                           std::size_t n, std::size_t i0, std::size_t j0) {
  __m128 acc00 = _mm_setzero_ps(), acc01 = _mm_setzero_ps();
  __m128 acc10 = _mm_setzero_ps(), acc11 = _mm_setzero_ps();
  __m128 acc20 = _mm_setzero_ps(), acc21 = _mm_setzero_ps();
  __m128 acc30 = _mm_setzero_ps(), acc31 = _mm_setzero_ps();
  __m128 acc40 = _mm_setzero_ps(), acc41 = _mm_setzero_ps();
  __m128 acc50 = _mm_setzero_ps(), acc51 = _mm_setzero_ps();
  const float* pa0 = a + (i0 + 0) * a_row_stride;
  const float* pa1 = a + (i0 + 1) * a_row_stride;
  const float* pa2 = a + (i0 + 2) * a_row_stride;
  const float* pa3 = a + (i0 + 3) * a_row_stride;
  const float* pa4 = a + (i0 + 4) * a_row_stride;
  const float* pa5 = a + (i0 + 5) * a_row_stride;
  const float* brow = b + j0;
  for (std::size_t kk = 0; kk < k; ++kk, brow += n) {
    const __m128 b0 = _mm_loadu_ps(brow);
    const __m128 b1 = _mm_loadu_ps(brow + 4);
    const std::size_t ka = kk * a_k_stride;
    const auto row_step = [&](const float* pa, __m128& lo, __m128& hi) {
      if (!is_float_zero(pa + ka)) {
        const __m128 v = _mm_set1_ps(pa[ka]);
        lo = _mm_add_ps(lo, _mm_mul_ps(v, b0));
        hi = _mm_add_ps(hi, _mm_mul_ps(v, b1));
      }
    };
    row_step(pa0, acc00, acc01);
    row_step(pa1, acc10, acc11);
    row_step(pa2, acc20, acc21);
    row_step(pa3, acc30, acc31);
    row_step(pa4, acc40, acc41);
    row_step(pa5, acc50, acc51);
  }
  const auto store_row = [&](std::size_t i, __m128 lo, __m128 hi) {
    float* crow = c + (i0 + i) * n + j0;
    if constexpr (kStore == Store::kAssign) {
      _mm_storeu_ps(crow, lo);
      _mm_storeu_ps(crow + 4, hi);
    } else if constexpr (kStore == Store::kAddBias) {
      _mm_storeu_ps(crow, _mm_add_ps(lo, _mm_loadu_ps(bias + j0)));
      _mm_storeu_ps(crow + 4, _mm_add_ps(hi, _mm_loadu_ps(bias + j0 + 4)));
    } else {
      // c += acc, keeping the original "c[j] += acc" operand order.
      _mm_storeu_ps(crow, _mm_add_ps(_mm_loadu_ps(crow), lo));
      _mm_storeu_ps(crow + 4, _mm_add_ps(_mm_loadu_ps(crow + 4), hi));
    }
  };
  store_row(0, acc00, acc01);
  store_row(1, acc10, acc11);
  store_row(2, acc20, acc21);
  store_row(3, acc30, acc31);
  store_row(4, acc40, acc41);
  store_row(5, acc50, acc51);
}

#if FEDPKD_GEMM_AVX

inline bool cpu_has_avx() {
  static const bool has = __builtin_cpu_supports("avx") != 0;
  return has;
}

/// AVX twin of gemm_tile_full: kMr x kNcAvx outputs, two 256-bit accumulators
/// per row. Spelled out without helpers so the target attribute applies to
/// every intrinsic. `store` is a runtime parameter (one branch per tile, after
/// the k loop) instead of a template one so a single symbol carries the
/// attribute. `b_strip` points at the tile's first B row (column j0 already
/// applied) and advances by `b_stride` per kk — n for in-place B, kNcAvx for
/// a packed strip. The packed layout holds identical values in the identical
/// kk order, so both strides produce bitwise-identical output. `skip_zeros`
/// selects the reference a caller must match: the A and A^T products skip
/// A elements equal to ±0.0f, the A·B^T product multiplies every one (so
/// 0·Inf stays NaN, as in matmul_tb_rows_naive).
__attribute__((target("avx"))) void gemm_tile_full_avx(
    const float* a, std::size_t a_row_stride, std::size_t a_k_stride,
    const float* b_strip, std::size_t b_stride, const float* bias, float* c,
    std::size_t k, std::size_t n, std::size_t i0, std::size_t j0,
    Store store, bool skip_zeros) {
  __m256 acc00 = _mm256_setzero_ps(), acc01 = _mm256_setzero_ps();
  __m256 acc10 = _mm256_setzero_ps(), acc11 = _mm256_setzero_ps();
  __m256 acc20 = _mm256_setzero_ps(), acc21 = _mm256_setzero_ps();
  __m256 acc30 = _mm256_setzero_ps(), acc31 = _mm256_setzero_ps();
  __m256 acc40 = _mm256_setzero_ps(), acc41 = _mm256_setzero_ps();
  __m256 acc50 = _mm256_setzero_ps(), acc51 = _mm256_setzero_ps();
  const float* pa0 = a + (i0 + 0) * a_row_stride;
  const float* pa1 = a + (i0 + 1) * a_row_stride;
  const float* pa2 = a + (i0 + 2) * a_row_stride;
  const float* pa3 = a + (i0 + 3) * a_row_stride;
  const float* pa4 = a + (i0 + 4) * a_row_stride;
  const float* pa5 = a + (i0 + 5) * a_row_stride;
  const float* brow = b_strip;
  for (std::size_t kk = 0; kk < k; ++kk, brow += b_stride) {
    // Pull the B rows a few iterations ahead into L1; with the packed strip
    // this is one contiguous line per iteration, in-place it hides the
    // stride-n walk. Prefetching past the strip is harmless.
    _mm_prefetch(reinterpret_cast<const char*>(brow + 4 * b_stride),
                 _MM_HINT_T0);
    const __m256 b0 = _mm256_loadu_ps(brow);
    const __m256 b1 = _mm256_loadu_ps(brow + 8);
    const std::size_t ka = kk * a_k_stride;
    if (!skip_zeros || !is_float_zero(pa0 + ka)) {
      const __m256 v = _mm256_broadcast_ss(pa0 + ka);
      acc00 = _mm256_add_ps(acc00, _mm256_mul_ps(v, b0));
      acc01 = _mm256_add_ps(acc01, _mm256_mul_ps(v, b1));
    }
    if (!skip_zeros || !is_float_zero(pa1 + ka)) {
      const __m256 v = _mm256_broadcast_ss(pa1 + ka);
      acc10 = _mm256_add_ps(acc10, _mm256_mul_ps(v, b0));
      acc11 = _mm256_add_ps(acc11, _mm256_mul_ps(v, b1));
    }
    if (!skip_zeros || !is_float_zero(pa2 + ka)) {
      const __m256 v = _mm256_broadcast_ss(pa2 + ka);
      acc20 = _mm256_add_ps(acc20, _mm256_mul_ps(v, b0));
      acc21 = _mm256_add_ps(acc21, _mm256_mul_ps(v, b1));
    }
    if (!skip_zeros || !is_float_zero(pa3 + ka)) {
      const __m256 v = _mm256_broadcast_ss(pa3 + ka);
      acc30 = _mm256_add_ps(acc30, _mm256_mul_ps(v, b0));
      acc31 = _mm256_add_ps(acc31, _mm256_mul_ps(v, b1));
    }
    if (!skip_zeros || !is_float_zero(pa4 + ka)) {
      const __m256 v = _mm256_broadcast_ss(pa4 + ka);
      acc40 = _mm256_add_ps(acc40, _mm256_mul_ps(v, b0));
      acc41 = _mm256_add_ps(acc41, _mm256_mul_ps(v, b1));
    }
    if (!skip_zeros || !is_float_zero(pa5 + ka)) {
      const __m256 v = _mm256_broadcast_ss(pa5 + ka);
      acc50 = _mm256_add_ps(acc50, _mm256_mul_ps(v, b0));
      acc51 = _mm256_add_ps(acc51, _mm256_mul_ps(v, b1));
    }
  }
  float* c0 = c + (i0 + 0) * n + j0;
  float* c1 = c + (i0 + 1) * n + j0;
  float* c2 = c + (i0 + 2) * n + j0;
  float* c3 = c + (i0 + 3) * n + j0;
  float* c4 = c + (i0 + 4) * n + j0;
  float* c5 = c + (i0 + 5) * n + j0;
  if (store == Store::kAssign) {
    _mm256_storeu_ps(c0, acc00);
    _mm256_storeu_ps(c0 + 8, acc01);
    _mm256_storeu_ps(c1, acc10);
    _mm256_storeu_ps(c1 + 8, acc11);
    _mm256_storeu_ps(c2, acc20);
    _mm256_storeu_ps(c2 + 8, acc21);
    _mm256_storeu_ps(c3, acc30);
    _mm256_storeu_ps(c3 + 8, acc31);
    _mm256_storeu_ps(c4, acc40);
    _mm256_storeu_ps(c4 + 8, acc41);
    _mm256_storeu_ps(c5, acc50);
    _mm256_storeu_ps(c5 + 8, acc51);
  } else if (store == Store::kAddBias) {
    const __m256 bias0 = _mm256_loadu_ps(bias + j0);
    const __m256 bias1 = _mm256_loadu_ps(bias + j0 + 8);
    _mm256_storeu_ps(c0, _mm256_add_ps(acc00, bias0));
    _mm256_storeu_ps(c0 + 8, _mm256_add_ps(acc01, bias1));
    _mm256_storeu_ps(c1, _mm256_add_ps(acc10, bias0));
    _mm256_storeu_ps(c1 + 8, _mm256_add_ps(acc11, bias1));
    _mm256_storeu_ps(c2, _mm256_add_ps(acc20, bias0));
    _mm256_storeu_ps(c2 + 8, _mm256_add_ps(acc21, bias1));
    _mm256_storeu_ps(c3, _mm256_add_ps(acc30, bias0));
    _mm256_storeu_ps(c3 + 8, _mm256_add_ps(acc31, bias1));
    _mm256_storeu_ps(c4, _mm256_add_ps(acc40, bias0));
    _mm256_storeu_ps(c4 + 8, _mm256_add_ps(acc41, bias1));
    _mm256_storeu_ps(c5, _mm256_add_ps(acc50, bias0));
    _mm256_storeu_ps(c5 + 8, _mm256_add_ps(acc51, bias1));
  } else {
    // c += acc, keeping the original "c[j] += acc" operand order.
    _mm256_storeu_ps(c0, _mm256_add_ps(_mm256_loadu_ps(c0), acc00));
    _mm256_storeu_ps(c0 + 8, _mm256_add_ps(_mm256_loadu_ps(c0 + 8), acc01));
    _mm256_storeu_ps(c1, _mm256_add_ps(_mm256_loadu_ps(c1), acc10));
    _mm256_storeu_ps(c1 + 8, _mm256_add_ps(_mm256_loadu_ps(c1 + 8), acc11));
    _mm256_storeu_ps(c2, _mm256_add_ps(_mm256_loadu_ps(c2), acc20));
    _mm256_storeu_ps(c2 + 8, _mm256_add_ps(_mm256_loadu_ps(c2 + 8), acc21));
    _mm256_storeu_ps(c3, _mm256_add_ps(_mm256_loadu_ps(c3), acc30));
    _mm256_storeu_ps(c3 + 8, _mm256_add_ps(_mm256_loadu_ps(c3 + 8), acc31));
    _mm256_storeu_ps(c4, _mm256_add_ps(_mm256_loadu_ps(c4), acc40));
    _mm256_storeu_ps(c4 + 8, _mm256_add_ps(_mm256_loadu_ps(c4 + 8), acc41));
    _mm256_storeu_ps(c5, _mm256_add_ps(_mm256_loadu_ps(c5), acc50));
    _mm256_storeu_ps(c5 + 8, _mm256_add_ps(_mm256_loadu_ps(c5 + 8), acc51));
  }
}

#else

constexpr bool cpu_has_avx() { return false; }

#endif  // FEDPKD_GEMM_AVX

/// Edge tile with runtime bounds (last partial row/column tile).
template <Store kStore>
inline void gemm_tile_edge(const float* a, std::size_t a_row_stride,
                           std::size_t a_k_stride, const float* b,
                           const float* bias, float* c, std::size_t k,
                           std::size_t n, std::size_t i0, std::size_t mr,
                           std::size_t j0, std::size_t nc) {
  float acc[kMr][kNcAvx] = {};
  for (std::size_t kk = 0; kk < k; ++kk) {
    const float* brow = b + kk * n + j0;
    for (std::size_t i = 0; i < mr; ++i) {
      const float av = a[(i0 + i) * a_row_stride + kk * a_k_stride];
      if (av == 0.0f) continue;
      float* ai = acc[i];
      for (std::size_t j = 0; j < nc; ++j) ai[j] += av * brow[j];
    }
  }
  store_tile<kStore>(acc, bias, c, n, i0, mr, j0, nc);
}

#if FEDPKD_GEMM_AVX

/// Copies the kNcAvx-wide B column strip at j0 into a contiguous [k x 16]
/// panel. Pure data movement — the packed tile then replays the exact same
/// values in the exact same kk order, so packing cannot change a bit.
void pack_b_strip(const float* b, std::size_t n, std::size_t k,
                  std::size_t j0, float* packed) {
  const float* src = b + j0;
  for (std::size_t kk = 0; kk < k; ++kk, src += n, packed += kNcAvx) {
    _mm_prefetch(reinterpret_cast<const char*>(src + 8 * n), _MM_HINT_T0);
    std::memcpy(packed, src, kNcAvx * sizeof(float));
  }
}

/// In-register transpose of the 8x8 block r[0..7] (row i, lane j) into
/// r[j] = column j. Shuffles only, so no value changes.
__attribute__((target("avx"))) inline void transpose_8x8(__m256 (&r)[8]) {
  const __m256 t0 = _mm256_unpacklo_ps(r[0], r[1]);
  const __m256 t1 = _mm256_unpackhi_ps(r[0], r[1]);
  const __m256 t2 = _mm256_unpacklo_ps(r[2], r[3]);
  const __m256 t3 = _mm256_unpackhi_ps(r[2], r[3]);
  const __m256 t4 = _mm256_unpacklo_ps(r[4], r[5]);
  const __m256 t5 = _mm256_unpackhi_ps(r[4], r[5]);
  const __m256 t6 = _mm256_unpacklo_ps(r[6], r[7]);
  const __m256 t7 = _mm256_unpackhi_ps(r[6], r[7]);
  const __m256 u0 = _mm256_shuffle_ps(t0, t2, 0x44);
  const __m256 u1 = _mm256_shuffle_ps(t0, t2, 0xEE);
  const __m256 u2 = _mm256_shuffle_ps(t1, t3, 0x44);
  const __m256 u3 = _mm256_shuffle_ps(t1, t3, 0xEE);
  const __m256 u4 = _mm256_shuffle_ps(t4, t6, 0x44);
  const __m256 u5 = _mm256_shuffle_ps(t4, t6, 0xEE);
  const __m256 u6 = _mm256_shuffle_ps(t5, t7, 0x44);
  const __m256 u7 = _mm256_shuffle_ps(t5, t7, 0xEE);
  r[0] = _mm256_permute2f128_ps(u0, u4, 0x20);
  r[1] = _mm256_permute2f128_ps(u1, u5, 0x20);
  r[2] = _mm256_permute2f128_ps(u2, u6, 0x20);
  r[3] = _mm256_permute2f128_ps(u3, u7, 0x20);
  r[4] = _mm256_permute2f128_ps(u0, u4, 0x31);
  r[5] = _mm256_permute2f128_ps(u1, u5, 0x31);
  r[6] = _mm256_permute2f128_ps(u2, u6, 0x31);
  r[7] = _mm256_permute2f128_ps(u3, u7, 0x31);
}

/// Transposes the 16 B rows j0..j0+15 of a B stored [n,k] into the same
/// k-major [k x 16] panel pack_b_strip builds, so A·B^T runs through the
/// packed tile: packed[kk*16 + j] = b[(j0+j)*k + kk]. Each half-strip goes
/// through 8x8 register transposes, k % 8 columns element by element; no load
/// touches a float outside the 16 rows.
__attribute__((target("avx"))) void pack_bt_strip(const float* b,
                                                  std::size_t k,
                                                  std::size_t j0,
                                                  float* packed) {
  for (std::size_t half = 0; half < kNcAvx; half += 8) {
    const float* rows = b + (j0 + half) * k;
    float* out = packed + half;
    std::size_t kk = 0;
    for (; kk + 8 <= k; kk += 8) {
      __m256 r[8];
      for (std::size_t j = 0; j < 8; ++j) {
        r[j] = _mm256_loadu_ps(rows + j * k + kk);
      }
      transpose_8x8(r);
      for (std::size_t q = 0; q < 8; ++q) {
        _mm256_storeu_ps(out + (kk + q) * kNcAvx, r[q]);
      }
    }
    for (; kk < k; ++kk) {
      for (std::size_t j = 0; j < 8; ++j) {
        out[kk * kNcAvx + j] = rows[j * k + kk];
      }
    }
  }
}

/// One output row over a packed strip: c_row[0..16) accumulates
/// a_row[kk] * packed[kk][0..16) in ascending kk with no zero-skip, exactly
/// like the full tile with skip_zeros off. A·B^T's row tail goes through it
/// one row at a time, so no load depends on a runtime row count.
__attribute__((target("avx"))) void gemm_row_packed_avx(const float* a_row,
                                                        const float* packed,
                                                        std::size_t k,
                                                        float* c_row) {
  __m256 lo = _mm256_setzero_ps(), hi = _mm256_setzero_ps();
  for (std::size_t kk = 0; kk < k; ++kk, packed += kNcAvx) {
    const __m256 v = _mm256_broadcast_ss(a_row + kk);
    lo = _mm256_add_ps(lo, _mm256_mul_ps(v, _mm256_loadu_ps(packed)));
    hi = _mm256_add_ps(hi, _mm256_mul_ps(v, _mm256_loadu_ps(packed + 8)));
  }
  _mm256_storeu_ps(c_row, lo);
  _mm256_storeu_ps(c_row + 8, hi);
}

/// Packing pays once per column strip and is reused by every full row tile in
/// the chunk, so it needs a few row tiles to amortize; below that (or for
/// short k) the in-place walk is already L1-resident.
constexpr std::size_t kPackMinRowTiles = 2;
constexpr std::size_t kPackMinK = 64;

#endif  // FEDPKD_GEMM_AVX

template <Store kStore>
void gemm_rows(const float* a, std::size_t a_row_stride,
               std::size_t a_k_stride, const float* b, const float* bias,
               float* c, std::size_t k, std::size_t n, std::size_t row_begin,
               std::size_t row_end) {
  const bool avx = cpu_has_avx();
#if FEDPKD_GEMM_AVX
  // Cache-blocked K-packing: with enough full row tiles in this chunk, pack
  // each 16-column B strip contiguously once and stream every row tile over
  // it. The strip loop becomes sequential loads that the prefetches above
  // keep one line ahead, instead of k strided touches per tile.
  const std::size_t full_tiles = (row_end - row_begin) / kMr;
  if (avx && full_tiles >= kPackMinRowTiles && k >= kPackMinK &&
      n >= kNcAvx) {
    Workspace::Scope scope(Workspace::per_thread());
    float* packed = scope.take(k * kNcAvx).data();
    const std::size_t row_full_end = row_begin + full_tiles * kMr;
    std::size_t j0 = 0;
    for (; j0 + kNcAvx <= n; j0 += kNcAvx) {
      pack_b_strip(b, n, k, j0, packed);
      for (std::size_t i0 = row_begin; i0 < row_full_end; i0 += kMr) {
        gemm_tile_full_avx(a, a_row_stride, a_k_stride, packed, kNcAvx, bias,
                           c, k, n, i0, j0, kStore, /*skip_zeros=*/true);
      }
    }
    // Column tail of the full row tiles: same SSE/edge tiles as the
    // non-packed path.
    for (std::size_t i0 = row_begin; i0 < row_full_end; i0 += kMr) {
      std::size_t jj = j0;
      for (; jj + kNc <= n; jj += kNc) {
        gemm_tile_full<kStore>(a, a_row_stride, a_k_stride, b, bias, c, k, n,
                               i0, jj);
      }
      if (jj < n) {
        gemm_tile_edge<kStore>(a, a_row_stride, a_k_stride, b, bias, c, k, n,
                               i0, kMr, jj, n - jj);
      }
    }
    // Row tail (fewer than kMr rows): edge tiles across all columns.
    if (row_full_end < row_end) {
      const std::size_t mr = row_end - row_full_end;
      std::size_t jj = 0;
      for (; jj + kNc <= n; jj += kNc) {
        gemm_tile_edge<kStore>(a, a_row_stride, a_k_stride, b, bias, c, k, n,
                               row_full_end, mr, jj, kNc);
      }
      if (jj < n) {
        gemm_tile_edge<kStore>(a, a_row_stride, a_k_stride, b, bias, c, k, n,
                               row_full_end, mr, jj, n - jj);
      }
    }
    return;
  }
#endif
  for (std::size_t i0 = row_begin; i0 < row_end; i0 += kMr) {
    const std::size_t mr = std::min(kMr, row_end - i0);
    std::size_t j0 = 0;
    if (mr == kMr) {
#if FEDPKD_GEMM_AVX
      if (avx) {
        for (; j0 + kNcAvx <= n; j0 += kNcAvx) {
          gemm_tile_full_avx(a, a_row_stride, a_k_stride, b + j0, n, bias, c,
                             k, n, i0, j0, kStore, /*skip_zeros=*/true);
        }
      }
#else
      (void)avx;
#endif
      for (; j0 + kNc <= n; j0 += kNc) {
        gemm_tile_full<kStore>(a, a_row_stride, a_k_stride, b, bias, c, k, n,
                               i0, j0);
      }
    } else {
      for (; j0 + kNc <= n; j0 += kNc) {
        gemm_tile_edge<kStore>(a, a_row_stride, a_k_stride, b, bias, c, k, n,
                               i0, mr, j0, kNc);
      }
    }
    if (j0 < n) {
      gemm_tile_edge<kStore>(a, a_row_stride, a_k_stride, b, bias, c, k, n, i0,
                             mr, j0, n - j0);
    }
  }
}

/// The A·B^T reference loop over rows [row_begin, row_end) and columns
/// [j_begin, n): one kk-ascending dot product per output, no zero-skip.
void tb_dot_block(const float* a, const float* b, float* c, std::size_t k,
                  std::size_t n, std::size_t row_begin, std::size_t row_end,
                  std::size_t j_begin) {
  for (std::size_t i = row_begin; i < row_end; ++i) {
    const float* pa = a + i * k;
    float* po = c + i * n;
    for (std::size_t j = j_begin; j < n; ++j) {
      const float* pb = b + j * k;
      float acc = 0.0f;
      for (std::size_t kk = 0; kk < k; ++kk) acc += pa[kk] * pb[kk];
      po[j] = acc;
    }
  }
}

}  // namespace

void matmul_rows(const float* a, const float* b, float* c, std::size_t k,
                 std::size_t n, std::size_t row_begin, std::size_t row_end) {
  gemm_rows<Store::kAssign>(a, /*a_row_stride=*/k, /*a_k_stride=*/1, b,
                            nullptr, c, k, n, row_begin, row_end);
}

void matmul_bias_rows(const float* a, const float* b, const float* bias,
                      float* c, std::size_t k, std::size_t n,
                      std::size_t row_begin, std::size_t row_end) {
  gemm_rows<Store::kAddBias>(a, k, 1, b, bias, c, k, n, row_begin, row_end);
}

void matmul_ta_rows(const float* a, const float* b, float* c, std::size_t k,
                    std::size_t m, std::size_t n, std::size_t row_begin,
                    std::size_t row_end) {
  gemm_rows<Store::kAssign>(a, /*a_row_stride=*/1, /*a_k_stride=*/m, b,
                            nullptr, c, k, n, row_begin, row_end);
}

void matmul_ta_acc_rows(const float* a, const float* b, float* c,
                        std::size_t k, std::size_t m, std::size_t n,
                        std::size_t row_begin, std::size_t row_end) {
  gemm_rows<Store::kAccumulate>(a, 1, m, b, nullptr, c, k, n, row_begin,
                                row_end);
}

void matmul_tb_rows(const float* a, const float* b, float* c, std::size_t k,
                    std::size_t n, std::size_t row_begin,
                    std::size_t row_end) {
#if FEDPKD_GEMM_AVX
  // Transpose each 16-row strip of B into the k-major panel the packed tile
  // reads, then stream the chunk's full row tiles and its row tail over it
  // with the zero-skip off: each output keeps the reference's kk-ascending
  // mul-add sequence.
  if (cpu_has_avx() && n >= kNcAvx && k > 0 && row_begin < row_end) {
    Workspace::Scope scope(Workspace::per_thread());
    float* packed = scope.take(k * kNcAvx).data();
    std::size_t j0 = 0;
    for (; j0 + kNcAvx <= n; j0 += kNcAvx) {
      pack_bt_strip(b, k, j0, packed);
      std::size_t i = row_begin;
      for (; i + kMr <= row_end; i += kMr) {
        gemm_tile_full_avx(a, /*a_row_stride=*/k, /*a_k_stride=*/1, packed,
                           kNcAvx, nullptr, c, k, n, i, j0, Store::kAssign,
                           /*skip_zeros=*/false);
      }
      for (; i < row_end; ++i) {
        gemm_row_packed_avx(a + i * k, packed, k, c + i * n + j0);
      }
    }
    // Column tail (n % 16): one dot product per output.
    tb_dot_block(a, b, c, k, n, row_begin, row_end, j0);
    return;
  }
#endif
  matmul_tb_rows_naive(a, b, c, k, n, row_begin, row_end);
}

/// -- Naive references (the pre-blocking kernels, kept verbatim) --------------

void matmul_rows_naive(const float* a, const float* b, float* c, std::size_t k,
                       std::size_t n, std::size_t row_begin,
                       std::size_t row_end) {
  for (std::size_t i = row_begin; i < row_end; ++i) {
    const float* pa = a + i * k;
    float* po = c + i * n;
    std::fill(po, po + n, 0.0f);
    for (std::size_t kk = 0; kk < k; ++kk) {
      const float av = pa[kk];
      if (av == 0.0f) continue;
      const float* pb = b + kk * n;
      for (std::size_t j = 0; j < n; ++j) po[j] += av * pb[j];
    }
  }
}

void matmul_ta_rows_naive(const float* a, const float* b, float* c,
                          std::size_t k, std::size_t m, std::size_t n,
                          std::size_t row_begin, std::size_t row_end) {
  for (std::size_t i = row_begin; i < row_end; ++i) {
    float* po = c + i * n;
    std::fill(po, po + n, 0.0f);
    for (std::size_t kk = 0; kk < k; ++kk) {
      const float av = a[kk * m + i];
      if (av == 0.0f) continue;
      const float* pb = b + kk * n;
      for (std::size_t j = 0; j < n; ++j) po[j] += av * pb[j];
    }
  }
}

void matmul_tb_rows_naive(const float* a, const float* b, float* c,
                          std::size_t k, std::size_t n, std::size_t row_begin,
                          std::size_t row_end) {
  tb_dot_block(a, b, c, k, n, row_begin, row_end, 0);
}

namespace {

void adam_scalar(float* w, const float* grad, float* m, float* v,
                 std::size_t begin, std::size_t end, const AdamCoeffs& s) {
  for (std::size_t k = begin; k < end; ++k) {
    const float g = grad[k] + s.weight_decay * w[k];
    m[k] = s.beta1 * m[k] + (1.0f - s.beta1) * g;
    v[k] = s.beta2 * v[k] + (1.0f - s.beta2) * g * g;
    const float mhat = m[k] / s.bc1;
    const float vhat = v[k] / s.bc2;
    w[k] -= s.lr * mhat / (std::sqrt(vhat) + s.eps);
  }
}

#if FEDPKD_GEMM_AVX

/// adam_scalar's operations on eight weights at a time, in the same order and
/// with the same operands; returns how many weights it updated (n rounded
/// down to a multiple of 8).
__attribute__((target("avx"))) std::size_t adam_avx(float* w,
                                                     const float* grad,
                                                     float* m, float* v,
                                                     std::size_t n,
                                                     const AdamCoeffs& s) {
  const __m256 wd = _mm256_set1_ps(s.weight_decay);
  const __m256 b1 = _mm256_set1_ps(s.beta1);
  const __m256 one_minus_b1 = _mm256_set1_ps(1.0f - s.beta1);
  const __m256 b2 = _mm256_set1_ps(s.beta2);
  const __m256 one_minus_b2 = _mm256_set1_ps(1.0f - s.beta2);
  const __m256 bc1 = _mm256_set1_ps(s.bc1);
  const __m256 bc2 = _mm256_set1_ps(s.bc2);
  const __m256 lr = _mm256_set1_ps(s.lr);
  const __m256 eps = _mm256_set1_ps(s.eps);
  std::size_t k = 0;
  for (; k + 8 <= n; k += 8) {
    const __m256 wk = _mm256_loadu_ps(w + k);
    const __m256 g = _mm256_add_ps(_mm256_loadu_ps(grad + k),
                                   _mm256_mul_ps(wd, wk));
    const __m256 mk = _mm256_add_ps(_mm256_mul_ps(b1, _mm256_loadu_ps(m + k)),
                                    _mm256_mul_ps(one_minus_b1, g));
    const __m256 vk = _mm256_add_ps(
        _mm256_mul_ps(b2, _mm256_loadu_ps(v + k)),
        _mm256_mul_ps(_mm256_mul_ps(one_minus_b2, g), g));
    _mm256_storeu_ps(m + k, mk);
    _mm256_storeu_ps(v + k, vk);
    const __m256 mhat = _mm256_div_ps(mk, bc1);
    const __m256 vhat = _mm256_div_ps(vk, bc2);
    const __m256 step = _mm256_div_ps(
        _mm256_mul_ps(lr, mhat), _mm256_add_ps(_mm256_sqrt_ps(vhat), eps));
    _mm256_storeu_ps(w + k, _mm256_sub_ps(wk, step));
  }
  return k;
}

#endif  // FEDPKD_GEMM_AVX

}  // namespace

void adam_update(float* w, const float* grad, float* m, float* v,
                 std::size_t n, const AdamCoeffs& s) {
  std::size_t done = 0;
#if FEDPKD_GEMM_AVX
  if (cpu_has_avx()) done = adam_avx(w, grad, m, v, n, s);
#endif
  adam_scalar(w, grad, m, v, done, n, s);
}

void transpose_blocked(const float* a, float* out, std::size_t m,
                       std::size_t n) {
  // 32x32 tiles: reads and writes both stay within a handful of cache lines
  // per tile instead of the column-scatter of the naive loop. Pure
  // permutation, so tiling cannot change any value.
  constexpr std::size_t kTile = 32;
  for (std::size_t i0 = 0; i0 < m; i0 += kTile) {
    const std::size_t i1 = std::min(m, i0 + kTile);
    for (std::size_t j0 = 0; j0 < n; j0 += kTile) {
      const std::size_t j1 = std::min(n, j0 + kTile);
      for (std::size_t i = i0; i < i1; ++i) {
        for (std::size_t j = j0; j < j1; ++j) {
          out[j * m + i] = a[i * n + j];
        }
      }
    }
  }
}

void transpose_naive(const float* a, float* out, std::size_t m,
                     std::size_t n) {
  for (std::size_t i = 0; i < m; ++i) {
    for (std::size_t j = 0; j < n; ++j) out[j * m + i] = a[i * n + j];
  }
}

void softmax_rows(const float* logits, float* out, std::size_t m,
                  std::size_t n, float temperature) {
  for (std::size_t r = 0; r < m; ++r) {
    const float* pl = logits + r * n;
    float* po = out + r * n;
    // Hoisted divide: scale once into the output buffer, then reuse the
    // scaled values for both the max and exp passes.
    for (std::size_t c = 0; c < n; ++c) po[c] = pl[c] / temperature;
    float mx = -std::numeric_limits<float>::infinity();
    for (std::size_t c = 0; c < n; ++c) mx = std::max(mx, po[c]);
    double z = 0.0;
    for (std::size_t c = 0; c < n; ++c) {
      po[c] = std::exp(po[c] - mx);
      z += po[c];
    }
    const float inv = static_cast<float>(1.0 / z);
    for (std::size_t c = 0; c < n; ++c) po[c] *= inv;
  }
}

void log_softmax_rows(const float* logits, float* out, std::size_t m,
                      std::size_t n, float temperature) {
  for (std::size_t r = 0; r < m; ++r) {
    const float* pl = logits + r * n;
    float* po = out + r * n;
    for (std::size_t c = 0; c < n; ++c) po[c] = pl[c] / temperature;
    float mx = -std::numeric_limits<float>::infinity();
    for (std::size_t c = 0; c < n; ++c) mx = std::max(mx, po[c]);
    double z = 0.0;
    for (std::size_t c = 0; c < n; ++c) z += std::exp(po[c] - mx);
    const float logz = mx + static_cast<float>(std::log(z));
    for (std::size_t c = 0; c < n; ++c) po[c] -= logz;
  }
}

}  // namespace fedpkd::tensor::kernels
