#include "common/simd.hh"

#include <algorithm>
#include <cmath>
#include <cstdint>

#include "common/logging.hh"

#if defined(__x86_64__) && defined(__GNUC__)
#define MOKEY_SIMD_X86_DISPATCH 1
#include <immintrin.h>
#endif

namespace mokey
{

// The float-model dots are multi-versioned on x86-64
// (resolved once per process via ifunc); plain -O3 code elsewhere.
// The loop bodies below are written so the compiler's vectorizer
// can pick the widest profitable vectors per clone while the
// lane-to-accumulator mapping stays fixed.
// Sanitizer builds get the plain code: ifunc resolvers run during
// relocation, before the sanitizer runtime is initialized, and
// crash the process pre-main (the TSan CI job hit exactly this).
#if defined(__x86_64__) && defined(__GNUC__) && !defined(__clang__) && \
    !defined(__SANITIZE_THREAD__) && !defined(__SANITIZE_ADDRESS__)
#define MOKEY_SIMD_CLONES                                             \
    __attribute__((target_clones("default", "avx2,fma", "avx512f")))
#else
#define MOKEY_SIMD_CLONES
#endif

// Lane reductions are written as plain in-order loops on purpose:
// GCC's SLP vectorizer keeps the accumulator arrays in vector
// registers for this form, while an explicit pairwise tree makes it
// scalarize the whole function (measured 3-4x slower). In-order
// summation is still a fixed, deterministic FP order.

MOKEY_SIMD_CLONES double
dotFD(const float *x, const float *y, size_t n)
{
    double acc[16] = {};
    size_t p = 0;
    for (; p + 16 <= n; p += 16)
        for (size_t l = 0; l < 16; ++l)
            acc[l] += static_cast<double>(x[p + l]) * y[p + l];
    for (; p < n; ++p)
        acc[p % 16] += static_cast<double>(x[p]) * y[p];
    double sum = 0.0;
    for (size_t l = 0; l < 16; ++l)
        sum += acc[l];
    return sum;
}

// 8 lanes per output, not 16: two 16-lane accumulator sets would
// need all vector registers and spill (measured 3.5x slower).
MOKEY_SIMD_CLONES void
dotFD2(const float *x, const float *y0, const float *y1, size_t n,
       double *r0, double *r1)
{
    double acc0[8] = {};
    double acc1[8] = {};
    size_t p = 0;
    for (; p + 8 <= n; p += 8) {
        for (size_t l = 0; l < 8; ++l) {
            const double xv = x[p + l];
            acc0[l] += xv * y0[p + l];
            acc1[l] += xv * y1[p + l];
        }
    }
    for (; p < n; ++p) {
        const double xv = x[p];
        acc0[p % 8] += xv * y0[p];
        acc1[p % 8] += xv * y1[p];
    }
    double s0 = 0.0, s1 = 0.0;
    for (size_t l = 0; l < 8; ++l) {
        s0 += acc0[l];
        s1 += acc1[l];
    }
    *r0 = s0;
    *r1 = s1;
}

// ---- byte-plane histogram kernels (counting engine) -----------------
//
// All variants produce bit-identical integer histograms (integer
// adds commute exactly), so unlike the FP dots the runtime dispatch
// below is free to pick any body on any call. The bucket scatter is
// split across two interleaved histograms to break the
// store-to-load dependency when neighbouring codes hit one bucket;
// merging them is an exact integer sum.

namespace
{

MOKEY_SIMD_CLONES void
pairHistogramGeneric(const uint8_t *ia, const int8_t *ta,
                     const uint8_t *iw, const int8_t *tw, size_t n,
                     int32_t *hist)
{
    int32_t h0[64] = {};
    int32_t h1[64] = {};
    // Tile the key/sign precompute so it auto-vectorizes; only the
    // scatter stays scalar.
    constexpr size_t kTile = 256;
    uint8_t key[kTile];
    int8_t sg[kTile];
    for (size_t base = 0; base < n; base += kTile) {
        const size_t len = std::min(kTile, n - base);
        for (size_t c = 0; c < len; ++c) {
            key[c] = static_cast<uint8_t>(
                ((ia[base + c] & 7u) << 3) | (iw[base + c] & 7u));
            sg[c] = static_cast<int8_t>(ta[base + c] * tw[base + c]);
        }
        size_t c = 0;
        for (; c + 2 <= len; c += 2) {
            h0[key[c]] += sg[c];
            h1[key[c + 1]] += sg[c + 1];
        }
        if (c < len)
            h0[key[c]] += sg[c];
    }
    for (int b = 0; b < 64; ++b)
        hist[b] = h0[b] + h1[b];
}

MOKEY_SIMD_CLONES void
signedIndexHistogramGeneric(const uint8_t *idx, const int8_t *th,
                            size_t n, int32_t *hist)
{
    int32_t h0[8] = {};
    int32_t h1[8] = {};
    size_t c = 0;
    for (; c + 2 <= n; c += 2) {
        h0[idx[c] & 7u] += th[c];
        h1[idx[c + 1] & 7u] += th[c + 1];
    }
    if (c < n)
        h0[idx[c] & 7u] += th[c];
    for (int b = 0; b < 8; ++b)
        hist[b] = h0[b] + h1[b];
}

#ifdef MOKEY_SIMD_X86_DISPATCH

// Explicit target attributes + __builtin_cpu_supports dispatch, not
// target_clones: no ifunc resolver, so these stay enabled under the
// sanitizers (and under clang, which lacks the clones attribute
// here) and the sanitizer CI jobs actually instrument them.

__attribute__((target("avx2"))) void
pairHistogramAvx2(const uint8_t *ia, const int8_t *ta,
                  const uint8_t *iw, const int8_t *tw, size_t n,
                  int32_t *hist)
{
    int32_t h0[64] = {};
    int32_t h1[64] = {};
    alignas(32) uint8_t key[32];
    alignas(32) int8_t sg[32];
    const __m256i low3 = _mm256_set1_epi8(0x07);
    const __m256i hi3 = _mm256_set1_epi8(0x38);
    size_t p = 0;
    for (; p + 32 <= n; p += 32) {
        const __m256i via = _mm256_loadu_si256(
            reinterpret_cast<const __m256i *>(ia + p));
        const __m256i viw = _mm256_loadu_si256(
            reinterpret_cast<const __m256i *>(iw + p));
        const __m256i vta = _mm256_loadu_si256(
            reinterpret_cast<const __m256i *>(ta + p));
        const __m256i vtw = _mm256_loadu_si256(
            reinterpret_cast<const __m256i *>(tw + p));
        // key = (ia << 3) | iw, per byte (the 16 b shift never
        // crosses a byte because indexes are 3 b and masked).
        const __m256i vkey = _mm256_or_si256(
            _mm256_and_si256(_mm256_slli_epi16(via, 3), hi3),
            _mm256_and_si256(viw, low3));
        // theta product over {-1, 0, +1} is exactly vpsignb.
        const __m256i vsg = _mm256_sign_epi8(vta, vtw);
        _mm256_store_si256(reinterpret_cast<__m256i *>(key), vkey);
        _mm256_store_si256(reinterpret_cast<__m256i *>(sg), vsg);
        for (size_t c = 0; c < 32; c += 2) {
            h0[key[c]] += sg[c];
            h1[key[c + 1]] += sg[c + 1];
        }
    }
    for (; p < n; ++p)
        h0[((ia[p] & 7u) << 3) | (iw[p] & 7u)] +=
            static_cast<int32_t>(ta[p]) * tw[p];
    for (int b = 0; b < 64; ++b)
        hist[b] = h0[b] + h1[b];
}

__attribute__((target("avx512f,avx512bw"))) void
pairHistogramAvx512(const uint8_t *ia, const int8_t *ta,
                    const uint8_t *iw, const int8_t *tw, size_t n,
                    int32_t *hist)
{
    int32_t h0[64] = {};
    int32_t h1[64] = {};
    alignas(64) uint8_t key[64];
    alignas(64) int8_t sg[64];
    const __m512i low3 = _mm512_set1_epi8(0x07);
    const __m512i hi3 = _mm512_set1_epi8(0x38);
    size_t p = 0;
    for (; p + 64 <= n; p += 64) {
        const __m512i via = _mm512_loadu_si512(ia + p);
        const __m512i viw = _mm512_loadu_si512(iw + p);
        const __m512i vta = _mm512_loadu_si512(ta + p);
        const __m512i vtw = _mm512_loadu_si512(tw + p);
        const __m512i vkey = _mm512_or_si512(
            _mm512_and_si512(_mm512_slli_epi16(via, 3), hi3),
            _mm512_and_si512(viw, low3));
        // No EVEX vpsignb: negate ta under the tw<0 mask, zero it
        // under the tw==0 mask — same {-1,0,+1} product.
        const __mmask64 negm = _mm512_movepi8_mask(vtw);
        const __mmask64 nzm = _mm512_test_epi8_mask(vtw, vtw);
        __m512i vsg = _mm512_mask_sub_epi8(
            vta, negm, _mm512_setzero_si512(), vta);
        vsg = _mm512_maskz_mov_epi8(nzm, vsg);
        _mm512_store_si512(key, vkey);
        _mm512_store_si512(sg, vsg);
        for (size_t c = 0; c < 64; c += 2) {
            h0[key[c]] += sg[c];
            h1[key[c + 1]] += sg[c + 1];
        }
    }
    for (; p < n; ++p)
        h0[((ia[p] & 7u) << 3) | (iw[p] & 7u)] +=
            static_cast<int32_t>(ta[p]) * tw[p];
    for (int b = 0; b < 64; ++b)
        hist[b] = h0[b] + h1[b];
}

__attribute__((target("avx2"))) void
signedIndexHistogramAvx2(const uint8_t *idx, const int8_t *th,
                         size_t n, int32_t *hist)
{
    int32_t h[8] = {};
    const __m256i low3 = _mm256_set1_epi8(0x07);
    const __m256i zero = _mm256_setzero_si256();
    size_t p = 0;
    for (; p + 32 <= n; p += 32) {
        const __m256i vi = _mm256_and_si256(
            _mm256_loadu_si256(
                reinterpret_cast<const __m256i *>(idx + p)),
            low3);
        const __m256i vt = _mm256_loadu_si256(
            reinterpret_cast<const __m256i *>(th + p));
        // Compare-masked popcount: per bucket, count +1 thetas minus
        // -1 thetas among the codes whose index matches.
        const auto neg = static_cast<uint32_t>(
            _mm256_movemask_epi8(vt));
        const auto nz = ~static_cast<uint32_t>(
            _mm256_movemask_epi8(_mm256_cmpeq_epi8(vt, zero)));
        for (int b = 0; b < 8; ++b) {
            const auto m = static_cast<uint32_t>(
                _mm256_movemask_epi8(_mm256_cmpeq_epi8(
                    vi, _mm256_set1_epi8(static_cast<char>(b)))));
            h[b] += __builtin_popcount(m & nz & ~neg) -
                __builtin_popcount(m & neg);
        }
    }
    for (; p < n; ++p)
        h[idx[p] & 7u] += th[p];
    for (int b = 0; b < 8; ++b)
        hist[b] = h[b];
}

__attribute__((target("avx512f,avx512bw"))) void
signedIndexHistogramAvx512(const uint8_t *idx, const int8_t *th,
                           size_t n, int32_t *hist)
{
    int32_t h[8] = {};
    const __m512i low3 = _mm512_set1_epi8(0x07);
    size_t p = 0;
    for (; p + 64 <= n; p += 64) {
        const __m512i vi = _mm512_and_si512(
            _mm512_loadu_si512(idx + p), low3);
        const __m512i vt = _mm512_loadu_si512(th + p);
        const __mmask64 neg = _mm512_movepi8_mask(vt);
        const __mmask64 nz = _mm512_test_epi8_mask(vt, vt);
        for (int b = 0; b < 8; ++b) {
            const __mmask64 m = _mm512_cmpeq_epi8_mask(
                vi, _mm512_set1_epi8(static_cast<char>(b)));
            h[b] += __builtin_popcountll(m & nz & ~neg) -
                __builtin_popcountll(m & neg);
        }
    }
    for (; p < n; ++p)
        h[idx[p] & 7u] += th[p];
    for (int b = 0; b < 8; ++b)
        hist[b] = h[b];
}

/** 2 = AVX-512BW, 1 = AVX2, 0 = generic; resolved once. */
int
x86HistogramIsa()
{
    static const int isa = [] {
        if (__builtin_cpu_supports("avx512bw"))
            return 2;
        if (__builtin_cpu_supports("avx2"))
            return 1;
        return 0;
    }();
    return isa;
}

#endif // MOKEY_SIMD_X86_DISPATCH

// ---- exact int16 grid GEMM ------------------------------------------
//
// Every body below computes exact integer dots (simd.hh). The vector
// bodies accumulate int32 lanes within K-blocks of kBlock elements,
// then sum each block's lanes and add that into an int64. Vector
// adds wrap mod 2^32, and the block's true sum fits in int32
// (magKBlock), so the wrapped lane sum equals it exactly. A k tail
// loads zeros into the unused lanes, which add nothing.

/** Register-tile body: a rows x w rows outputs over the whole k. */
using MagTileFn = void (*)(const int16_t *a, size_t lda,
                           const int16_t *w, size_t ldw, size_t k,
                           size_t kBlock, int64_t *dots, size_t ldd);

/** One output at a time, in int64 from the first product on. */
void
magDotBlockGeneric(const int16_t *a, size_t lda, size_t rows,
                   const int16_t *w, size_t ldw, size_t cols, size_t k,
                   int64_t *dots, size_t ldd)
{
    for (size_t r = 0; r < rows; ++r) {
        for (size_t c = 0; c < cols; ++c) {
            const int16_t *x = a + r * lda;
            const int16_t *y = w + c * ldw;
            int64_t sum = 0;
            for (size_t p = 0; p < k; ++p)
                sum += static_cast<int32_t>(x[p]) * y[p];
            dots[r * ldd + c] = sum;
        }
    }
}

/**
 * Walk a rows x cols block in register tiles of up to 4 x @p nr,
 * row groups outer so a group's activation rows stay L1-resident
 * across the weight rows. @p tiles[(mr - 1) * nr + (nc - 1)] is the
 * mr x nc body.
 */
void
magDotTiled(const MagTileFn *tiles, size_t nr, const int16_t *a,
            size_t lda, size_t rows, const int16_t *w, size_t ldw,
            size_t cols, size_t k, size_t kBlock, int64_t *dots,
            size_t ldd)
{
    for (size_t r = 0; r < rows; r += 4) {
        const size_t mr = std::min<size_t>(4, rows - r);
        for (size_t c = 0; c < cols; c += nr) {
            const size_t nc = std::min(nr, cols - c);
            tiles[(mr - 1) * nr + (nc - 1)](a + r * lda, lda,
                                            w + c * ldw, ldw, k, kBlock,
                                            dots + r * ldd + c, ldd);
        }
    }
}

#ifdef MOKEY_SIMD_X86_DISPATCH

/** Wrapping sum of a zmm's sixteen int32 lanes. Zero-masking
 * extracts: GCC 12 flags the undefined pass-through operand of the
 * plain extract (which the cast and _mm512_reduce_add_epi32 use)
 * under -Wmaybe-uninitialized. */
__attribute__((target("avx512f"))) inline int32_t
sumLanesAvx512(__m512i v)
{
    const __m256i y =
        _mm256_add_epi32(_mm512_maskz_extracti64x4_epi64(0xf, v, 0),
                         _mm512_maskz_extracti64x4_epi64(0xf, v, 1));
    __m128i x = _mm_add_epi32(_mm256_castsi256_si128(y),
                              _mm256_extracti128_si256(y, 1));
    x = _mm_add_epi32(x, _mm_shuffle_epi32(x, 0x4e));
    x = _mm_add_epi32(x, _mm_shuffle_epi32(x, 0xb1));
    return _mm_cvtsi128_si32(x);
}

/**
 * AVX-512 MR x NR tile: one zmm of 16 int32 lanes per output, so a
 * 4 x 4 tile holds 16 accumulators and each of its 8 loads per 32
 * elements feeds four multiply-adds, written MADD(acc, a, w). Defined
 * once per body through this macro: the target attribute cannot be a
 * template parameter, and the VNNI-free body must not be compiled
 * where the compiler may fuse vpmaddwd + vpaddd into vpdpwssd.
 */
#define MOKEY_MAG_TILE_AVX512(NAME, TARGET, MADD)                        \
    template <int MR, int NR>                                            \
    __attribute__((target(TARGET))) void                                 \
    NAME(const int16_t *a, size_t lda, const int16_t *w, size_t ldw,     \
         size_t k, size_t kBlock, int64_t *dots, size_t ldd)             \
    {                                                                    \
        int64_t sum[MR][NR] = {};                                        \
        for (size_t kb = 0; kb < k; kb += kBlock) {                      \
            const size_t kend = std::min(kb + kBlock, k);                \
            __m512i acc[MR][NR];                                         \
            for (int r = 0; r < MR; ++r)                                 \
                for (int c = 0; c < NR; ++c)                             \
                    acc[r][c] = _mm512_setzero_si512();                  \
            for (size_t p = kb; p < kend; p += 32) {                     \
                /* All 32 elements, or the k tail's first kend - p. */   \
                const auto m = static_cast<__mmask32>(                   \
                    kend - p >= 32 ? 0xffffffffu                         \
                                   : (1u << (kend - p)) - 1u);           \
                __m512i av[MR], wv[NR];                                  \
                for (int r = 0; r < MR; ++r)                             \
                    av[r] = _mm512_maskz_loadu_epi16(m, a + r * lda + p); \
                for (int c = 0; c < NR; ++c)                             \
                    wv[c] = _mm512_maskz_loadu_epi16(m, w + c * ldw + p); \
                for (int r = 0; r < MR; ++r)                             \
                    for (int c = 0; c < NR; ++c)                         \
                        acc[r][c] = MADD(acc[r][c], av[r], wv[c]);       \
            }                                                            \
            for (int r = 0; r < MR; ++r)                                 \
                for (int c = 0; c < NR; ++c)                             \
                    sum[r][c] += sumLanesAvx512(acc[r][c]);              \
        }                                                                \
        for (int r = 0; r < MR; ++r)                                     \
            for (int c = 0; c < NR; ++c)                                 \
                dots[r * ldd + c] = sum[r][c];                           \
    }

#define MOKEY_MADD_VNNI(acc, x, y) _mm512_dpwssd_epi32(acc, x, y)
#define MOKEY_MADD_BW(acc, x, y)                                         \
    _mm512_add_epi32(acc, _mm512_madd_epi16(x, y))
MOKEY_MAG_TILE_AVX512(magTileVnni, "avx512f,avx512bw,avx512vnni",
                      MOKEY_MADD_VNNI)
MOKEY_MAG_TILE_AVX512(magTileAvx512Bw, "avx512f,avx512bw", MOKEY_MADD_BW)
#undef MOKEY_MADD_BW
#undef MOKEY_MADD_VNNI
#undef MOKEY_MAG_TILE_AVX512

/** Wrapping sum of a ymm's eight int32 lanes. */
__attribute__((target("avx2"))) inline int32_t
sumLanesAvx2(__m256i v)
{
    __m128i x = _mm_add_epi32(_mm256_castsi256_si128(v),
                              _mm256_extracti128_si256(v, 1));
    x = _mm_add_epi32(x, _mm_shuffle_epi32(x, 0x4e));
    x = _mm_add_epi32(x, _mm_shuffle_epi32(x, 0xb1));
    return _mm_cvtsi128_si32(x);
}

/**
 * AVX2 MR x NR tile (NR <= 2: sixteen ymm registers hold 4 x 2
 * accumulators plus the loads), vpmaddwd + vpaddd over 16 elements
 * per step. AVX2 has no 16-bit masked load, so a k tail shorter
 * than 16 is copied into zero-padded stack rows first.
 */
template <int MR, int NR>
__attribute__((target("avx2"))) void
magTileAvx2(const int16_t *a, size_t lda, const int16_t *w, size_t ldw,
            size_t k, size_t kBlock, int64_t *dots, size_t ldd)
{
    int64_t sum[MR][NR] = {};
    for (size_t kb = 0; kb < k; kb += kBlock) {
        const size_t kend = std::min(kb + kBlock, k);
        __m256i acc[MR][NR];
        for (int r = 0; r < MR; ++r)
            for (int c = 0; c < NR; ++c)
                acc[r][c] = _mm256_setzero_si256();
        for (size_t p = kb; p < kend; p += 16) {
            const int16_t *ar[MR], *wr[NR];
            for (int r = 0; r < MR; ++r)
                ar[r] = a + r * lda + p;
            for (int c = 0; c < NR; ++c)
                wr[c] = w + c * ldw + p;
            int16_t ta[MR][16], tw[NR][16];
            if (kend - p < 16) {
                for (int r = 0; r < MR; ++r) {
                    std::fill(std::copy(ar[r], a + r * lda + kend, ta[r]),
                              ta[r] + 16, int16_t{0});
                    ar[r] = ta[r];
                }
                for (int c = 0; c < NR; ++c) {
                    std::fill(std::copy(wr[c], w + c * ldw + kend, tw[c]),
                              tw[c] + 16, int16_t{0});
                    wr[c] = tw[c];
                }
            }
            __m256i av[MR], wv[NR];
            for (int r = 0; r < MR; ++r)
                av[r] = _mm256_loadu_si256(
                    reinterpret_cast<const __m256i *>(ar[r]));
            for (int c = 0; c < NR; ++c)
                wv[c] = _mm256_loadu_si256(
                    reinterpret_cast<const __m256i *>(wr[c]));
            for (int r = 0; r < MR; ++r)
                for (int c = 0; c < NR; ++c)
                    acc[r][c] = _mm256_add_epi32(
                        acc[r][c], _mm256_madd_epi16(av[r], wv[c]));
        }
        for (int r = 0; r < MR; ++r)
            for (int c = 0; c < NR; ++c)
                sum[r][c] += sumLanesAvx2(acc[r][c]);
    }
    for (int r = 0; r < MR; ++r)
        for (int c = 0; c < NR; ++c)
            dots[r * ldd + c] = sum[r][c];
}

/** The 16 MR x NR bodies of one AVX-512 tile template, MR-major. */
#define MOKEY_MAG_TILES_4X4(T)                                           \
    {                                                                    \
        T<1, 1>, T<1, 2>, T<1, 3>, T<1, 4>, T<2, 1>, T<2, 2>, T<2, 3>,   \
            T<2, 4>, T<3, 1>, T<3, 2>, T<3, 3>, T<3, 4>, T<4, 1>,        \
            T<4, 2>, T<4, 3>, T<4, 4>,                                   \
    }
const MagTileFn kVnniTiles[16] = MOKEY_MAG_TILES_4X4(magTileVnni);
const MagTileFn kAvx512BwTiles[16] = MOKEY_MAG_TILES_4X4(magTileAvx512Bw);
#undef MOKEY_MAG_TILES_4X4

const MagTileFn kAvx2Tiles[8] = {
    magTileAvx2<1, 1>, magTileAvx2<1, 2>, magTileAvx2<2, 1>,
    magTileAvx2<2, 2>, magTileAvx2<3, 1>, magTileAvx2<3, 2>,
    magTileAvx2<4, 1>, magTileAvx2<4, 2>,
};

#endif // MOKEY_SIMD_X86_DISPATCH

// ---- fused comparator-ladder encode ---------------------------------
//
// Every per-element decision is an exact double comparison and the
// one division is the correctly-rounded IEEE op, so — like the
// histogram kernels — all bodies below emit bit-identical planes and
// the runtime dispatch may pick any of them on any call.
//
// The branchless index select rests on the nesting of the boundary
// predicates P_i = (|u| - mags[i-1] > mags[i] - |u|): for a sorted
// ladder, P_i true implies P_j true for every j < i (for i below the
// straddle point the two operands have opposite signs, making the
// comparison exact), so the predicate *count* equals the index the
// scalar lower_bound + two-subtraction tie pick computes — including
// the exact-tie case, where P_i evaluates the very same expression
// ExpDictionary::nearestIndex() branches on.

/** One element of the ladder encode; shared by every tail loop. */
inline size_t
encodeLadderOne(float v_f, const double *mags, size_t h, double mean,
                double scale, double cut, uint8_t *idx, int8_t *theta,
                int16_t *mag, const int16_t *grid, size_t c)
{
    const double v = v_f;
    const double d = v - mean;
    const bool is_ot = std::abs(d) > cut;
    const double u = d / scale;
    const double au = std::abs(u);
    unsigned k = 0;
    for (size_t i = 1; i < h; ++i)
        k += (au - mags[i - 1] > mags[i] - au) ? 1u : 0u;
    const int th = is_ot ? 0 : (u < 0.0 ? -1 : 1);
    if (idx)
        idx[c] = is_ot ? 0 : static_cast<uint8_t>(k);
    if (theta)
        theta[c] = static_cast<int8_t>(th);
    if (mag)
        mag[c] = static_cast<int16_t>(th * grid[k]);
    return is_ot ? 1 : 0;
}

MOKEY_SIMD_CLONES size_t
encodeLadderGeneric(const float *src, size_t n, const double *mags,
                    size_t h, double mean, double scale, double cut,
                    uint8_t *idx, int8_t *theta, int16_t *mag,
                    const int16_t *grid)
{
    size_t outliers = 0;
    for (size_t c = 0; c < n; ++c)
        outliers += encodeLadderOne(src[c], mags, h, mean, scale,
                                    cut, idx, theta, mag, grid, c);
    return outliers;
}

#ifdef MOKEY_SIMD_X86_DISPATCH

__attribute__((target("avx2"))) size_t
encodeLadderAvx2(const float *src, size_t n, const double *mags,
                 size_t h, double mean, double scale, double cut,
                 uint8_t *idx, int8_t *theta, int16_t *mag,
                 const int16_t *grid)
{
    const __m256d vmean = _mm256_set1_pd(mean);
    const __m256d vscale = _mm256_set1_pd(scale);
    const __m256d vcut = _mm256_set1_pd(cut);
    const __m256d absmask = _mm256_castsi256_pd(
        _mm256_set1_epi64x(0x7fffffffffffffffLL));
    const __m256i one64 = _mm256_set1_epi64x(1);
    const __m256i two64 = _mm256_set1_epi64x(2);
    size_t outliers = 0;
    size_t p = 0;
    for (; p + 4 <= n; p += 4) {
        const __m256d v = _mm256_cvtps_pd(_mm_loadu_ps(src + p));
        const __m256d d = _mm256_sub_pd(v, vmean);
        const __m256d ad = _mm256_and_pd(d, absmask);
        const __m256d otm = _mm256_cmp_pd(ad, vcut, _CMP_GT_OQ);
        const __m256d u = _mm256_div_pd(d, vscale);
        const __m256d au = _mm256_and_pd(u, absmask);
        // Count crossed boundaries: subtracting the all-ones compare
        // mask adds one per true predicate.
        __m256i k = _mm256_setzero_si256();
        for (size_t i = 1; i < h; ++i) {
            const __m256d lo =
                _mm256_sub_pd(au, _mm256_set1_pd(mags[i - 1]));
            const __m256d hi =
                _mm256_sub_pd(_mm256_set1_pd(mags[i]), au);
            k = _mm256_sub_epi64(
                k, _mm256_castpd_si256(
                       _mm256_cmp_pd(lo, hi, _CMP_GT_OQ)));
        }
        const __m256d negm =
            _mm256_cmp_pd(u, _mm256_setzero_pd(), _CMP_LT_OQ);
        const __m256i otm64 = _mm256_castpd_si256(otm);
        const __m256i ki = _mm256_andnot_si256(otm64, k);
        // theta = 1 - 2*[negative], zeroed at outliers; the mag slot
        // is theta * grid[index], so outliers get 0 there too.
        __m256i th = _mm256_sub_epi64(
            one64, _mm256_and_si256(_mm256_castpd_si256(negm), two64));
        th = _mm256_andnot_si256(otm64, th);
        alignas(32) int64_t kb[4], tb[4];
        _mm256_store_si256(reinterpret_cast<__m256i *>(kb), ki);
        _mm256_store_si256(reinterpret_cast<__m256i *>(tb), th);
        for (int l = 0; l < 4; ++l) {
            if (idx)
                idx[p + l] = static_cast<uint8_t>(kb[l]);
            if (theta)
                theta[p + l] = static_cast<int8_t>(tb[l]);
            if (mag)
                mag[p + l] = static_cast<int16_t>(tb[l] * grid[kb[l]]);
        }
        outliers += static_cast<unsigned>(
            __builtin_popcount(_mm256_movemask_pd(otm)));
    }
    for (; p < n; ++p)
        outliers += encodeLadderOne(src[p], mags, h, mean, scale,
                                    cut, idx, theta, mag, grid, p);
    return outliers;
}

// Every intrinsic below is the zero-masking form: the plain
// conversions and permutes pass GCC 12 an undefined source operand,
// which it reports under -Wmaybe-uninitialized.
__attribute__((target("avx512f"))) size_t
encodeLadderAvx512(const float *src, size_t n, const double *mags,
                   size_t h, double mean, double scale, double cut,
                   uint8_t *idx, int8_t *theta, int16_t *mag,
                   const int16_t *grid)
{
    const __m512d vmean = _mm512_set1_pd(mean);
    const __m512d vscale = _mm512_set1_pd(scale);
    const __m512d vcut = _mm512_set1_pd(cut);
    // 8 padded grid entries, one per int64 lane.
    const __m512i gridtab = _mm512_maskz_cvtepi16_epi64(
        0xff, _mm_loadu_si128(reinterpret_cast<const __m128i *>(grid)));
    const __m512i one64 = _mm512_set1_epi64(1);
    size_t outliers = 0;
    size_t p = 0;
    for (; p + 8 <= n; p += 8) {
        const __m512d v =
            _mm512_maskz_cvtps_pd(0xff, _mm256_loadu_ps(src + p));
        const __m512d d = _mm512_sub_pd(v, vmean);
        const __mmask8 otm = _mm512_cmp_pd_mask(
            _mm512_abs_pd(d), vcut, _CMP_GT_OQ);
        const __mmask8 keep = static_cast<__mmask8>(~otm);
        const __m512d u = _mm512_div_pd(d, vscale);
        const __m512d au = _mm512_abs_pd(u);
        __m512i k = _mm512_setzero_si512();
        for (size_t i = 1; i < h; ++i) {
            const __mmask8 m = _mm512_cmp_pd_mask(
                _mm512_sub_pd(au, _mm512_set1_pd(mags[i - 1])),
                _mm512_sub_pd(_mm512_set1_pd(mags[i]), au),
                _CMP_GT_OQ);
            k = _mm512_mask_add_epi64(k, m, k, one64);
        }
        const __mmask8 negm = _mm512_cmp_pd_mask(
            u, _mm512_setzero_pd(), _CMP_LT_OQ);
        if (mag) {
            // Table permute instead of a gather; the sign is an
            // exact integer negation, and outlier lanes become 0.
            __m512i mg = _mm512_maskz_permutexvar_epi64(0xff, k, gridtab);
            mg = _mm512_mask_sub_epi64(mg, negm, _mm512_setzero_si512(),
                                       mg);
            _mm_storeu_si128(reinterpret_cast<__m128i *>(mag + p),
                             _mm512_maskz_cvtepi64_epi16(keep, mg));
        }
        if (idx)
            _mm_storel_epi64(reinterpret_cast<__m128i *>(idx + p),
                             _mm512_maskz_cvtepi64_epi8(keep, k));
        if (theta) {
            const __m512i th = _mm512_mask_sub_epi64(
                one64, negm, _mm512_setzero_si512(), one64);
            _mm_storel_epi64(reinterpret_cast<__m128i *>(theta + p),
                             _mm512_maskz_cvtepi64_epi8(keep, th));
        }
        outliers +=
            static_cast<unsigned>(__builtin_popcount(otm));
    }
    for (; p < n; ++p)
        outliers += encodeLadderOne(src[p], mags, h, mean, scale,
                                    cut, idx, theta, mag, grid, p);
    return outliers;
}

#endif // MOKEY_SIMD_X86_DISPATCH

} // anonymous namespace

void
pairHistogram(const uint8_t *ia, const int8_t *ta, const uint8_t *iw,
              const int8_t *tw, size_t n, int32_t *hist)
{
#ifdef MOKEY_SIMD_X86_DISPATCH
    const int isa = x86HistogramIsa();
    if (isa == 2)
        return pairHistogramAvx512(ia, ta, iw, tw, n, hist);
    if (isa == 1)
        return pairHistogramAvx2(ia, ta, iw, tw, n, hist);
#endif
    pairHistogramGeneric(ia, ta, iw, tw, n, hist);
}

void
signedIndexHistogram(const uint8_t *idx, const int8_t *th, size_t n,
                     int32_t *hist)
{
#ifdef MOKEY_SIMD_X86_DISPATCH
    const int isa = x86HistogramIsa();
    if (isa == 2)
        return signedIndexHistogramAvx512(idx, th, n, hist);
    if (isa == 1)
        return signedIndexHistogramAvx2(idx, th, n, hist);
#endif
    signedIndexHistogramGeneric(idx, th, n, hist);
}

size_t
encodeLadder(const float *src, size_t n, const double *mags, size_t h,
             double mean, double scale, double cut, uint8_t *idx,
             int8_t *theta, int16_t *mag, const int16_t *grid)
{
#ifdef MOKEY_SIMD_X86_DISPATCH
    // The AVX-512 body only needs the F subset, so reusing the BW
    // resolver is conservative; results are bit-identical either way.
    const int isa = x86HistogramIsa();
    if (isa == 2)
        return encodeLadderAvx512(src, n, mags, h, mean, scale, cut,
                                  idx, theta, mag, grid);
    if (isa == 1)
        return encodeLadderAvx2(src, n, mags, h, mean, scale, cut,
                                idx, theta, mag, grid);
#endif
    return encodeLadderGeneric(src, n, mags, h, mean, scale, cut,
                               idx, theta, mag, grid);
}

size_t
magKBlock(int32_t maxA, int32_t maxW)
{
    MOKEY_ASSERT(maxA >= 1 && maxA <= 32767 && maxW >= 1 &&
                     maxW <= 32767,
                 "grid magnitudes %d and %d outside [1, 32767]", maxA,
                 maxW);
    const int64_t prod = int64_t{maxA} * maxW;
    const size_t kb = static_cast<size_t>(INT32_MAX / prod) / 32 * 32;
    MOKEY_ASSERT(kb >= 32,
                 "grid magnitudes %d x %d overflow an int32 sum of 32 "
                 "products", maxA, maxW);
    return kb;
}

SimdIsa
magDotIsa()
{
#ifdef MOKEY_SIMD_X86_DISPATCH
    static const SimdIsa isa = [] {
        if (__builtin_cpu_supports("avx512bw")) {
            if (__builtin_cpu_supports("avx512vnni"))
                return SimdIsa::Avx512Vnni;
            return SimdIsa::Avx512Bw;
        }
        if (__builtin_cpu_supports("avx2"))
            return SimdIsa::Avx2;
        return SimdIsa::Generic;
    }();
    return isa;
#else
    return SimdIsa::Generic;
#endif
}

const char *
simdIsaName(SimdIsa isa)
{
    switch (isa) {
    case SimdIsa::Generic:
        return "generic";
    case SimdIsa::Avx2:
        return "avx2";
    case SimdIsa::Avx512Bw:
        return "avx512bw";
    case SimdIsa::Avx512Vnni:
        return "avx512vnni";
    }
    return "?";
}

void
magDotBlockOn(SimdIsa isa, const int16_t *a, size_t lda, size_t rows,
              const int16_t *w, size_t ldw, size_t cols, size_t k,
              size_t kBlock, int64_t *dots, size_t ldd)
{
    MOKEY_ASSERT(static_cast<int>(isa) <=
                     static_cast<int>(magDotIsa()),
                 "mag kernel body %s is not available on this host",
                 simdIsaName(isa));
    MOKEY_ASSERT(kBlock >= 32 && kBlock % 32 == 0,
                 "K-block %zu is not a positive multiple of 32", kBlock);
    switch (isa) {
#ifdef MOKEY_SIMD_X86_DISPATCH
    case SimdIsa::Avx512Vnni:
        return magDotTiled(kVnniTiles, 4, a, lda, rows, w, ldw, cols, k,
                           kBlock, dots, ldd);
    case SimdIsa::Avx512Bw:
        return magDotTiled(kAvx512BwTiles, 4, a, lda, rows, w, ldw, cols,
                           k, kBlock, dots, ldd);
    case SimdIsa::Avx2:
        return magDotTiled(kAvx2Tiles, 2, a, lda, rows, w, ldw, cols, k,
                           kBlock, dots, ldd);
#endif
    default:
        return magDotBlockGeneric(a, lda, rows, w, ldw, cols, k, dots,
                                  ldd);
    }
}

void
magDotBlock(const int16_t *a, size_t lda, size_t rows, const int16_t *w,
            size_t ldw, size_t cols, size_t k, size_t kBlock,
            int64_t *dots, size_t ldd)
{
    magDotBlockOn(magDotIsa(), a, lda, rows, w, ldw, cols, k, kBlock,
                  dots, ldd);
}

} // namespace mokey
