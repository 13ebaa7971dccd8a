#include "common/simd.hh"

#include <algorithm>
#include <cmath>

#include "common/logging.hh"

#if defined(__x86_64__) && defined(__GNUC__)
#define MOKEY_SIMD_X86_DISPATCH 1
#include <immintrin.h>
#endif

namespace mokey
{

// The float-model dots and sumD are multi-versioned on x86-64
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
sumD(const double *x, size_t n)
{
    double acc[16] = {};
    size_t p = 0;
    for (; p + 16 <= n; p += 16)
        for (size_t l = 0; l < 16; ++l)
            acc[l] += x[p + l];
    for (; p < n; ++p)
        acc[p % 16] += x[p];
    double sum = 0.0;
    for (size_t l = 0; l < 16; ++l)
        sum += acc[l];
    return sum;
}

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

// ---- register-blocked mag-plane GEMM --------------------------------
//
// Every body below runs the per-output arithmetic stated in simd.hh:
// 16 float lanes of single-rounding FMAs, restarted each kMagBlockK
// elements and folded lane by lane into 16 double lanes, which one
// fixed tree sums at the end. Only how many outputs share one pass
// differs, and every output's lanes see the same FMA sequence in
// every tile shape, so all tiles and tails agree bit for bit. A k
// tail loads zeros into the unused lanes; fma(0, 0, acc) == acc.

/** Register-tile body: a rows x w rows outputs over the whole k. */
using MagTileFn = void (*)(const float *a, size_t lda, const float *w,
                           size_t ldw, size_t k, double *dots,
                           size_t ldd);

/** Fixed-tree sum of one output's 16 double lanes: lane l + lane
 * l + 8, then + 4, + 2, + 1 (short dependency chains, and the same
 * order in every body). */
inline double
magLaneSum(const double *dl)
{
    double s[8];
    for (size_t l = 0; l < 8; ++l)
        s[l] = dl[l] + dl[l + 8];
    for (size_t l = 0; l < 4; ++l)
        s[l] += s[l + 4];
    for (size_t l = 0; l < 2; ++l)
        s[l] += s[l + 2];
    return s[0] + s[1];
}

/** The contract written out, one output at a time. */
void
magDotBlockGeneric(const float *a, size_t lda, size_t rows,
                   const float *w, size_t ldw, size_t cols, size_t k,
                   double *dots, size_t ldd)
{
    for (size_t r = 0; r < rows; ++r) {
        for (size_t c = 0; c < cols; ++c) {
            const float *x = a + r * lda;
            const float *y = w + c * ldw;
            double dl[16] = {};
            for (size_t kb = 0; kb < k; kb += kMagBlockK) {
                const size_t kend = std::min(kb + kMagBlockK, k);
                float acc[16] = {};
                for (size_t p = kb; p < kend; ++p)
                    acc[p % 16] = std::fma(x[p], y[p], acc[p % 16]);
                for (size_t l = 0; l < 16; ++l)
                    dl[l] += static_cast<double>(acc[l]);
            }
            dots[r * ldd + c] = magLaneSum(dl);
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
magDotTiled(const MagTileFn *tiles, size_t nr, const float *a,
            size_t lda, size_t rows, const float *w, size_t ldw,
            size_t cols, size_t k, double *dots, size_t ldd)
{
    for (size_t r = 0; r < rows; r += 4) {
        const size_t mr = std::min<size_t>(4, rows - r);
        for (size_t c = 0; c < cols; c += nr) {
            const size_t nc = std::min(nr, cols - c);
            tiles[(mr - 1) * nr + (nc - 1)](a + r * lda, lda,
                                            w + c * ldw, ldw, k,
                                            dots + r * ldd + c, ldd);
        }
    }
}

#ifdef MOKEY_SIMD_X86_DISPATCH

/**
 * AVX-512 MR x NR tile: one zmm accumulator (the 16 lanes) per
 * output, so a 4 x 4 tile holds 16 accumulators and each of its 8
 * loads per 16 elements feeds four FMAs. The double lanes live in
 * two zmm per output; those the register file cannot hold spill
 * only outside the k loop.
 */
template <int MR, int NR>
__attribute__((target("avx512f"))) void
magTileAvx512(const float *a, size_t lda, const float *w, size_t ldw,
              size_t k, double *dots, size_t ldd)
{
    __m512d dl[MR][NR][2];
    for (int r = 0; r < MR; ++r)
        for (int c = 0; c < NR; ++c)
            dl[r][c][0] = dl[r][c][1] = _mm512_setzero_pd();
    for (size_t kb = 0; kb < k; kb += kMagBlockK) {
        const size_t kend = std::min(kb + kMagBlockK, k);
        __m512 acc[MR][NR];
        for (int r = 0; r < MR; ++r)
            for (int c = 0; c < NR; ++c)
                acc[r][c] = _mm512_setzero_ps();
        for (size_t p = kb; p < kend; p += 16) {
            // All 16 lanes, or the k tail's first kend - p.
            const auto m = static_cast<__mmask16>(
                kend - p >= 16 ? 0xffffu : (1u << (kend - p)) - 1u);
            __m512 av[MR], wv[NR];
            for (int r = 0; r < MR; ++r)
                av[r] = _mm512_maskz_loadu_ps(m, a + r * lda + p);
            for (int c = 0; c < NR; ++c)
                wv[c] = _mm512_maskz_loadu_ps(m, w + c * ldw + p);
            for (int r = 0; r < MR; ++r)
                for (int c = 0; c < NR; ++c)
                    acc[r][c] =
                        _mm512_fmadd_ps(av[r], wv[c], acc[r][c]);
        }
        // Fold: lanes 0-7 and 8-15 widen to double (exact) and add
        // into the double lanes. The all-ones zero-masking forms are
        // the plain instructions; GCC 12 flags the plain intrinsics'
        // undefined pass-through operand.
        for (int r = 0; r < MR; ++r) {
            for (int c = 0; c < NR; ++c) {
                const __m512d x = _mm512_castps_pd(acc[r][c]);
                const __m256 lo = _mm256_castpd_ps(
                    _mm512_maskz_extractf64x4_pd(0xf, x, 0));
                const __m256 hi = _mm256_castpd_ps(
                    _mm512_maskz_extractf64x4_pd(0xf, x, 1));
                dl[r][c][0] = _mm512_add_pd(
                    dl[r][c][0], _mm512_maskz_cvtps_pd(0xff, lo));
                dl[r][c][1] = _mm512_add_pd(
                    dl[r][c][1], _mm512_maskz_cvtps_pd(0xff, hi));
            }
        }
    }
    for (int r = 0; r < MR; ++r) {
        for (int c = 0; c < NR; ++c) {
            alignas(64) double t[16];
            _mm512_store_pd(t, dl[r][c][0]);
            _mm512_store_pd(t + 8, dl[r][c][1]);
            dots[r * ldd + c] = magLaneSum(t);
        }
    }
}

/**
 * AVX2 MR x NR tile (NR <= 2: sixteen ymm registers hold 4 x 2
 * accumulators plus the loads). A ymm holds half of the 16 logical
 * lanes, so each K-block runs twice: lanes 0-7 read elements
 * 16q + 0..7, lanes 8-15 read 16q + 8..15. Each lane still sees its
 * own elements in order, so the arithmetic is the contract's.
 */
template <int MR, int NR>
__attribute__((target("avx2,fma"))) void
magTileAvx2(const float *a, size_t lda, const float *w, size_t ldw,
            size_t k, double *dots, size_t ldd)
{
    double dl[MR][NR][16] = {};
    const __m256i iota = _mm256_setr_epi32(0, 1, 2, 3, 4, 5, 6, 7);
    for (size_t kb = 0; kb < k; kb += kMagBlockK) {
        const size_t kend = std::min(kb + kMagBlockK, k);
        for (size_t h = 0; h < 16; h += 8) {
            __m256 acc[MR][NR];
            for (int r = 0; r < MR; ++r)
                for (int c = 0; c < NR; ++c)
                    acc[r][c] = _mm256_setzero_ps();
            for (size_t q = kb; q + h < kend; q += 16) {
                // All 8 lanes of this half, or the k tail's share.
                const int cnt =
                    static_cast<int>(std::min<size_t>(kend - q - h, 8));
                const __m256i m =
                    _mm256_cmpgt_epi32(_mm256_set1_epi32(cnt), iota);
                __m256 av[MR], wv[NR];
                for (int r = 0; r < MR; ++r)
                    av[r] = _mm256_maskload_ps(a + r * lda + q + h, m);
                for (int c = 0; c < NR; ++c)
                    wv[c] = _mm256_maskload_ps(w + c * ldw + q + h, m);
                for (int r = 0; r < MR; ++r)
                    for (int c = 0; c < NR; ++c)
                        acc[r][c] =
                            _mm256_fmadd_ps(av[r], wv[c], acc[r][c]);
            }
            // Fold this half's 8 lanes into their double lanes.
            for (int r = 0; r < MR; ++r) {
                for (int c = 0; c < NR; ++c) {
                    alignas(32) float t[8];
                    _mm256_store_ps(t, acc[r][c]);
                    for (size_t l = 0; l < 8; ++l)
                        dl[r][c][h + l] += static_cast<double>(t[l]);
                }
            }
        }
    }
    for (int r = 0; r < MR; ++r)
        for (int c = 0; c < NR; ++c)
            dots[r * ldd + c] = magLaneSum(dl[r][c]);
}

const MagTileFn kAvx512Tiles[16] = {
    magTileAvx512<1, 1>, magTileAvx512<1, 2>, magTileAvx512<1, 3>,
    magTileAvx512<1, 4>, magTileAvx512<2, 1>, magTileAvx512<2, 2>,
    magTileAvx512<2, 3>, magTileAvx512<2, 4>, magTileAvx512<3, 1>,
    magTileAvx512<3, 2>, magTileAvx512<3, 3>, magTileAvx512<3, 4>,
    magTileAvx512<4, 1>, magTileAvx512<4, 2>, magTileAvx512<4, 3>,
    magTileAvx512<4, 4>,
};

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
                float *mag, size_t c)
{
    const double v = v_f;
    const double d = v - mean;
    const bool is_ot = std::abs(d) > cut;
    const double u = d / scale;
    const double au = std::abs(u);
    unsigned k = 0;
    for (size_t i = 1; i < h; ++i)
        k += (au - mags[i - 1] > mags[i] - au) ? 1u : 0u;
    const bool neg = u < 0.0;
    if (idx)
        idx[c] = is_ot ? 0 : static_cast<uint8_t>(k);
    if (theta)
        theta[c] = is_ot ? 0 : (neg ? -1 : 1);
    if (mag)
        mag[c] = is_ot ? 0.0f
                       : static_cast<float>(neg ? -mags[k] : mags[k]);
    return is_ot ? 1 : 0;
}

MOKEY_SIMD_CLONES size_t
encodeLadderGeneric(const float *src, size_t n, const double *mags,
                    size_t h, double mean, double scale, double cut,
                    uint8_t *idx, int8_t *theta, float *mag)
{
    size_t outliers = 0;
    for (size_t c = 0; c < n; ++c)
        outliers += encodeLadderOne(src[c], mags, h, mean, scale,
                                    cut, idx, theta, mag, c);
    return outliers;
}

#ifdef MOKEY_SIMD_X86_DISPATCH

__attribute__((target("avx2"))) size_t
encodeLadderAvx2(const float *src, size_t n, const double *mags,
                 size_t h, double mean, double scale, double cut,
                 uint8_t *idx, int8_t *theta, float *mag)
{
    const __m256d vmean = _mm256_set1_pd(mean);
    const __m256d vscale = _mm256_set1_pd(scale);
    const __m256d vcut = _mm256_set1_pd(cut);
    const __m256d absmask = _mm256_castsi256_pd(
        _mm256_set1_epi64x(0x7fffffffffffffffLL));
    const __m256d signmask = _mm256_castsi256_pd(_mm256_set1_epi64x(
        static_cast<long long>(0x8000000000000000ULL)));
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
        if (mag) {
            // mags is padded to 8 entries, so the gather stays in
            // bounds for every k <= h-1. Sign flip is an exact xor;
            // outlier lanes collapse to +0.0.
            __m256d mg = _mm256_i64gather_pd(mags, k, 8);
            mg = _mm256_xor_pd(mg, _mm256_and_pd(negm, signmask));
            mg = _mm256_andnot_pd(otm, mg);
            _mm_storeu_ps(mag + p, _mm256_cvtpd_ps(mg));
        }
        if (idx || theta) {
            const __m256i ki = _mm256_andnot_si256(otm64, k);
            // theta = 1 - 2*[negative], zeroed at outliers.
            __m256i th = _mm256_sub_epi64(
                one64,
                _mm256_and_si256(_mm256_castpd_si256(negm), two64));
            th = _mm256_andnot_si256(otm64, th);
            alignas(32) int64_t kb[4], tb[4];
            _mm256_store_si256(reinterpret_cast<__m256i *>(kb), ki);
            _mm256_store_si256(reinterpret_cast<__m256i *>(tb), th);
            for (int l = 0; l < 4; ++l) {
                if (idx)
                    idx[p + l] = static_cast<uint8_t>(kb[l]);
                if (theta)
                    theta[p + l] = static_cast<int8_t>(tb[l]);
            }
        }
        outliers += static_cast<unsigned>(
            __builtin_popcount(_mm256_movemask_pd(otm)));
    }
    for (; p < n; ++p)
        outliers += encodeLadderOne(src[p], mags, h, mean, scale,
                                    cut, idx, theta, mag, p);
    return outliers;
}

__attribute__((target("avx512f"))) size_t
encodeLadderAvx512(const float *src, size_t n, const double *mags,
                   size_t h, double mean, double scale, double cut,
                   uint8_t *idx, int8_t *theta, float *mag)
{
    const __m512d vmean = _mm512_set1_pd(mean);
    const __m512d vscale = _mm512_set1_pd(scale);
    const __m512d vcut = _mm512_set1_pd(cut);
    const __m512d magtab = _mm512_loadu_pd(mags); // 8 padded entries
    const __m512i one64 = _mm512_set1_epi64(1);
    size_t outliers = 0;
    size_t p = 0;
    for (; p + 8 <= n; p += 8) {
        const __m512d v = _mm512_cvtps_pd(_mm256_loadu_ps(src + p));
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
            // Table permute instead of a gather; 0 - x is the exact
            // negation for the strictly positive ladder entries.
            __m512d mg = _mm512_permutexvar_pd(k, magtab);
            mg = _mm512_mask_sub_pd(mg, negm, _mm512_setzero_pd(),
                                    mg);
            mg = _mm512_maskz_mov_pd(keep, mg);
            _mm256_storeu_ps(mag + p, _mm512_maskz_cvtpd_ps(keep, mg));
        }
        if (idx)
            _mm_storel_epi64(
                reinterpret_cast<__m128i *>(idx + p),
                _mm512_cvtepi64_epi8(
                    _mm512_maskz_mov_epi64(keep, k)));
        if (theta) {
            __m512i th = _mm512_mask_sub_epi64(
                one64, negm, _mm512_setzero_si512(), one64);
            th = _mm512_maskz_mov_epi64(keep, th);
            _mm_storel_epi64(reinterpret_cast<__m128i *>(theta + p),
                             _mm512_cvtepi64_epi8(th));
        }
        outliers +=
            static_cast<unsigned>(__builtin_popcount(otm));
    }
    for (; p < n; ++p)
        outliers += encodeLadderOne(src[p], mags, h, mean, scale,
                                    cut, idx, theta, mag, p);
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
             int8_t *theta, float *mag)
{
#ifdef MOKEY_SIMD_X86_DISPATCH
    // The AVX-512 body only needs the F subset, so reusing the BW
    // resolver is conservative; results are bit-identical either way.
    const int isa = x86HistogramIsa();
    if (isa == 2)
        return encodeLadderAvx512(src, n, mags, h, mean, scale, cut,
                                  idx, theta, mag);
    if (isa == 1)
        return encodeLadderAvx2(src, n, mags, h, mean, scale, cut,
                                idx, theta, mag);
#endif
    return encodeLadderGeneric(src, n, mags, h, mean, scale, cut,
                               idx, theta, mag);
}

SimdIsa
magDotIsa()
{
#ifdef MOKEY_SIMD_X86_DISPATCH
    static const SimdIsa isa = [] {
        if (__builtin_cpu_supports("avx512f"))
            return SimdIsa::Avx512;
        if (__builtin_cpu_supports("avx2") &&
            __builtin_cpu_supports("fma"))
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
    case SimdIsa::Avx512:
        return "avx512";
    }
    return "?";
}

void
magDotBlockOn(SimdIsa isa, const float *a, size_t lda, size_t rows,
              const float *w, size_t ldw, size_t cols, size_t k,
              double *dots, size_t ldd)
{
    MOKEY_ASSERT(static_cast<int>(isa) <=
                     static_cast<int>(magDotIsa()),
                 "mag kernel body %s is not available on this host",
                 simdIsaName(isa));
    switch (isa) {
#ifdef MOKEY_SIMD_X86_DISPATCH
    case SimdIsa::Avx512:
        return magDotTiled(kAvx512Tiles, 4, a, lda, rows, w, ldw, cols,
                           k, dots, ldd);
    case SimdIsa::Avx2:
        return magDotTiled(kAvx2Tiles, 2, a, lda, rows, w, ldw, cols, k,
                           dots, ldd);
#endif
    default:
        return magDotBlockGeneric(a, lda, rows, w, ldw, cols, k, dots,
                                  ldd);
    }
}

void
magDotBlock(const float *a, size_t lda, size_t rows, const float *w,
            size_t ldw, size_t cols, size_t k, double *dots,
            size_t ldd)
{
    magDotBlockOn(magDotIsa(), a, lda, rows, w, ldw, cols, k, dots,
                  ldd);
}

} // namespace mokey
