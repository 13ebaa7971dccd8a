/**
 * @file
 * Vectorized dot-product primitives shared by the hot kernels.
 *
 * The float-model dots (dotFD, dotFD2) carry GCC target_clones, so
 * the binary ships generic, AVX2+FMA, and AVX-512 variants and the
 * dynamic linker picks one per process at startup.
 * Within a process the chosen variant — and therefore the exact FP
 * rounding — is fixed. The index-engine kernels (the mag GEMM block,
 * the histograms, the ladder encode) dispatch at run time instead;
 * they are exact integer or exact-comparison arithmetic, so every
 * body gives the same bits.
 *
 * The float dots' lane structure (and thus arithmetic order) is
 * written out explicitly: 16 independent accumulators reduced in a
 * fixed order.
 */

#ifndef MOKEY_COMMON_SIMD_HH
#define MOKEY_COMMON_SIMD_HH

#include <cstddef>
#include <cstdint>

namespace mokey
{

// ---- exact int16 grid GEMM (mag engine) ----------------------------
//
// The mag engine's whole dot product: int16 grid-plane rows in, one
// exact int64 per output element out. Products of two int16 values
// accumulate in int32 lanes within K-blocks of kBlock elements, and
// each block's lanes are summed and folded into int64. The caller
// derives kBlock from the largest grid magnitudes of the two operands
// (magKBlock), so no block's sum can leave int32. Integer addition is
// associative, so the result is the exact dot product in every tile
// shape, tail, ISA body and block length: nothing about the lane
// order is part of the contract. Dispatch is at run time through
// __builtin_cpu_supports, not ifunc, so sanitizer builds run the
// intrinsic bodies too.

/**
 * K-block length for int16 operands bounded by @p maxA and @p maxW in
 * magnitude: floor((2^31 - 1) / (maxA maxW)) rounded down to a
 * multiple of 32, so the sum of any block's products fits in int32.
 * Panics when that is below 32 (one vector step).
 */
size_t magKBlock(int32_t maxA, int32_t maxW);

/**
 * Register-blocked grid-plane GEMM block:
 *
 *   dots[r * ldd + c] = sum_p a[r * lda + p] * w[c * ldw + p], p < k
 *
 * exactly, for r < rows, c < cols. Every element of @p a and @p w
 * lies in [-32767, 32767], and @p kBlock (a multiple of 32, from
 * magKBlock) bounds how many products share one int32 accumulator.
 * The AVX-512 bodies compute 4 activation rows x 4 weight rows per
 * pass with 16 vector accumulators; both operands are read in place,
 * and the k tail is loaded under a mask, never past a row's end.
 */
void magDotBlock(const int16_t *a, size_t lda, size_t rows,
                 const int16_t *w, size_t ldw, size_t cols, size_t k,
                 size_t kBlock, int64_t *dots, size_t ldd);

/** The instruction-set bodies magDotBlock() can dispatch to. */
enum class SimdIsa
{
    Generic,
    Avx2,       ///< vpmaddwd + vpaddd on ymm, 4 x 2 tiles
    Avx512Bw,   ///< vpmaddwd + vpaddd on zmm, 4 x 4 tiles
    Avx512Vnni, ///< vpdpwssd on zmm, 4 x 4 tiles
};

/** The body magDotBlock() runs on this host (fixed per process). */
SimdIsa magDotIsa();

/** Human-readable ISA name ("generic" / "avx2" / "avx512bw" /
 *  "avx512vnni"). */
const char *simdIsaName(SimdIsa isa);

/**
 * magDotBlock() on one named body, for tests that hold every body to
 * the same exact sums. @p isa must be supported by this build and
 * host (every body <= magDotIsa() is).
 */
void magDotBlockOn(SimdIsa isa, const int16_t *a, size_t lda,
                   size_t rows, const int16_t *w, size_t ldw,
                   size_t cols, size_t k, size_t kBlock, int64_t *dots,
                   size_t ldd);

/** Sum of x[i]*y[i] over floats, accumulated in double. */
double dotFD(const float *x, const float *y, size_t n);

/**
 * Two dot products sharing one x stream: r0 = x . y0, r1 = x . y1.
 * The column pairing halves x loads/converts in GEMM inner loops.
 * Uses its own (8-lane) accumulation order — deterministic, but not
 * bit-matched to dotFD(); callers must route a given output through
 * the same function on every run.
 */
void dotFD2(const float *x, const float *y0, const float *y1,
            size_t n, double *r0, double *r1);

// ---- byte-plane histogram kernels (counting engine) -----------------
//
// These two kernels are the GPE of the counting engine: they stream
// the 1 B index / 1 B theta planes and accumulate *integer* signed
// histograms, so their results are exactly identical on every ISA —
// unlike the FP dots above, the dispatch may pick any variant at any
// time without breaking determinism. On x86-64 they dispatch at
// runtime (via __builtin_cpu_supports, no ifunc, sanitizer-safe) to
// AVX-512BW / AVX2 bodies that compute bucket keys and sign products
// 64/32 codes at a time (_mm*_sign_epi8 sign products, shifted-index
// bucket keys, compare-masked popcounts); elsewhere they fall back to
// a multi-versioned generic loop.

/**
 * Signed joint-index pair histogram over two byte-plane rows:
 *
 *   hist[(ia[c] & 7) << 3 | (iw[c] & 7)] += ta[c] * tw[c]
 *
 * for c in [0, n). Outlier slots carry theta 0, so their pairs add
 * nothing — exactly the "outlier contributions vanish" invariant of
 * the dense planes. @p hist must hold 64 entries; it is overwritten.
 */
void pairHistogram(const uint8_t *ia, const int8_t *ta,
                   const uint8_t *iw, const int8_t *tw, size_t n,
                   int32_t *hist);

/**
 * Signed per-index histogram of one byte-plane row:
 * hist[idx[c] & 7] += th[c] for c in [0, n). @p hist must hold 8
 * entries; it is overwritten. Collapsing it against the magnitude
 * table yields the row's pairing-independent SoA2 + b*PoM2 term.
 */
void signedIndexHistogram(const uint8_t *idx, const int8_t *th,
                          size_t n, int32_t *hist);

// ---- fused comparator-ladder encode (activation quantizer) ----------
//
// The vectorized model of the Fig. 7 output-activation quantizer:
// normalize a float row to sigma units, run the branchless
// nearest-centroid select over the sorted magnitude ladder, and write
// the code planes directly — no intermediate code tensor. Every
// decision is an exact double comparison (the division is the single
// correctly-rounded IEEE op), so the AVX-512 / AVX2 / generic bodies
// produce bit-identical planes on every ISA and, like the histogram
// kernels, dispatch at runtime via __builtin_cpu_supports (no ifunc,
// sanitizer-safe).

/**
 * Encode one row of @p n floats against a Gaussian magnitude ladder.
 *
 * Per element v (promoted to double):
 *  - outlier when |v - mean| > cut: the element's planes get the
 *    zero-index/zero-sign/zero-magnitude convention (idx 0, theta 0,
 *    mag 0) and only the count is reported — the caller resolves
 *    the outlier-dictionary code, and the mag slot's final value,
 *    in its sidecar pass (LadderSpec::encodeRow);
 *  - otherwise u = (v - mean) / scale, theta = sign, and the index is
 *    the nearest entry of @p mags to |u|, ties to the lower index —
 *    bit-identical to ExpDictionary::nearestIndex() because every
 *    boundary evaluates the exact scalar tie expression
 *    (|u| - mags[i-1] > mags[i] - |u|).
 *
 * @param src   the float row
 * @param n     elements in the row
 * @param mags  ascending magnitudes, padded to 8 entries (unused
 *              tail arbitrary); @p h in [1, 8] real entries
 * @param mean  dictionary mean
 * @param scale dictionary scale (> 0)
 * @param cut   outlier threshold on |v - mean|; pass +infinity when
 *              the dictionary has no outlier table
 * @param idx   uint8 index plane row, or nullptr to skip
 * @param theta int8 +1/-1 sign plane row, or nullptr to skip
 * @param mag   int16 grid-plane row, theta * grid[index], or
 *              nullptr to skip
 * @param grid  the ladder's grid magnitudes (ExpDictionary::
 *              gridMagnitude), padded to 8 entries like @p mags;
 *              read only when @p mag is set
 * @return number of outlier elements in the row
 */
size_t encodeLadder(const float *src, size_t n, const double *mags,
                    size_t h, double mean, double scale, double cut,
                    uint8_t *idx, int8_t *theta, int16_t *mag,
                    const int16_t *grid);

} // namespace mokey

#endif // MOKEY_COMMON_SIMD_HH
