/**
 * @file
 * Index-domain matrix multiply (paper §II-D, Fig. 4, Eqs. 1-6).
 *
 * This is Mokey's central idea: because every Gaussian-dictionary
 * value has the form  theta * (a^int + b) * s + m , a dot product over
 * two quantized tensors decomposes into
 *
 *   sA sW  SoI  + sA sW b (SoA1 + SoW1) + sA sW b^2 PoM1   (online)
 * + sA mW (SoA2 + b PoM2)                                  (per row)
 * + sW mA (SoW2 + b PoM3)                                  (per col)
 * + K mA mW                                                (constant)
 *
 * where the online terms are *integer histograms* over summed indexes
 * — 3 b additions and counter increments instead of FP16 MACs. Pairs
 * touching an outlier bypass the histograms: the OPP looks up both
 * centroids, multiplies once, and applies an exact correction for the
 * contribution the precomputed terms already counted:
 *
 *   A gaussian, W outlier : add  A*W - mW*A
 *   A outlier,  W gaussian: add  A*W - mA*W
 *   both outliers         : add  A*W - mA*mW
 *
 * With these corrections the index-domain result equals the
 * decode-then-multiply reference *exactly* (up to FP rounding), which
 * the property tests assert. The mag engine needs no OPP: its int16
 * grid planes store an outlier as round((v - m) / (s g)) in place, so
 * one exact integer dot covers every pair with no correction term.
 */

#ifndef MOKEY_QUANT_INDEX_MATMUL_HH
#define MOKEY_QUANT_INDEX_MATMUL_HH

#include <array>
#include <atomic>
#include <cstdint>
#include <functional>
#include <vector>

#include "common/parallel.hh"
#include "quant/engine.hh"
#include "quant/quantized_tensor.hh"
#include "tensor/tensor.hh"

namespace mokey
{

/** Maximum Gaussian index count supported by the fixed-size CRFs. */
constexpr size_t kMaxGaussianIndexes = 8;

/** Maximum summed-exponent entries (a^0 .. a^14 for 4 b codes). */
constexpr size_t kMaxSumExponents = 2 * kMaxGaussianIndexes - 1;

/**
 * Per-GEMM constants: the 6-term reconstruction of indexDot() folded
 * into scalars plus the decoded dictionary tables the counting
 * engine's histograms collapse against. A pure function of the two
 * dictionaries and K, so a serving graph hoists one per weight site
 * (GraphPlan) instead of re-deriving it on every call.
 */
struct GemmConstants
{
    size_t k = 0;
    double sA = 0.0, sW = 0.0; ///< per-tensor scales
    double mA = 0.0, mW = 0.0; ///< per-tensor means
    /** Value of one mag-plane grid step: s * top / 127 per operand. */
    double gA = 0.0, gW = 0.0;
    double c0 = 0.0;           ///< g_a * g_w: one unit of a grid dot
    double constTerm = 0.0;    ///< k * m_a * m_w
    /** Largest |grid value| of each operand's dictionary
     *  (TensorDictionary::maxGridMagnitude). */
    int32_t maxA = 0, maxW = 0;
    /** int32 accumulation length of the grid dot:
     *  magKBlock(maxA, maxW), so no block's sum can overflow. */
    size_t kBlock = 0;
    /** Unscaled magnitudes a^i + b, zero beyond indexCount(). */
    std::array<double, kMaxGaussianIndexes> mags{};
    /** prod[(ia << 3) | iw] = mags[ia] * mags[iw]. */
    std::array<double, kMaxGaussianIndexes * kMaxGaussianIndexes>
        prod{};
};

/** Derive the constants of one (dict_a, dict_w, K) GEMM site. */
GemmConstants gemmConstants(const TensorDictionary &da,
                            const TensorDictionary &dw, size_t k);

/**
 * Cached variant for GEMMs whose dictionaries are not known at graph
 * planning time — the attention act×act products, whose K is the
 * sequence length and whose activation dictionaries change per
 * profile. Backed by a small sharded LRU keyed on the exact value
 * inputs of gemmConstants() (dictionary scale/mean, exponential
 * dictionary parameters, K), so a hit returns bit-identical constants
 * to a fresh derivation by construction. Safe to call from concurrent
 * lanes.
 */
GemmConstants cachedGemmConstants(const TensorDictionary &da,
                                  const TensorDictionary &dw,
                                  size_t k);

/** Cumulative cachedGemmConstants() hits (monotonic; for tests and
 *  stats). */
uint64_t gemmConstantsCacheHits();

/** Cumulative cachedGemmConstants() misses (monotonic). */
uint64_t gemmConstantsCacheMisses();

/**
 * The per-output-activation histogram state — a software model of
 * the GPE's four Counter Register Files (Fig. 6).
 */
struct CrfState
{
    std::array<int32_t, kMaxSumExponents> soi{};  ///< 15-entry CRF
    std::array<int32_t, kMaxGaussianIndexes> soa1{}; ///< 8-entry CRF
    std::array<int32_t, kMaxGaussianIndexes> sow1{}; ///< 8-entry CRF
    int32_t pom1 = 0;                              ///< 1-entry CRF

    /** Reset all counters to zero. */
    void clear();
};

/** Precomputed pairing-independent sums for one vector of codes. */
struct VectorConstants
{
    double soa2 = 0.0; ///< sum of theta * a^idx over Gaussian codes
    double pom2 = 0.0; ///< sum of theta over Gaussian codes
};

/**
 * Aggregate counters reported by a matmul run.
 *
 * The counters are atomic so several GEMMs may accumulate into one
 * shared stats object concurrently — the batched serving path runs
 * attention heads of independent requests on the pool, all feeding
 * the pipeline's single accumulator. Kernels publish once per call
 * or band via add()/merge(), so the atomics stay off the per-pair
 * hot path.
 */
struct IndexMatmulStats
{
    std::atomic<uint64_t> gaussianPairs{0};
    std::atomic<uint64_t> outlierPairs{0};

    IndexMatmulStats() = default;
    IndexMatmulStats(const IndexMatmulStats &o)
        : gaussianPairs(o.gaussianPairs.load(std::memory_order_relaxed)),
          outlierPairs(o.outlierPairs.load(std::memory_order_relaxed))
    {
    }
    IndexMatmulStats &
    operator=(const IndexMatmulStats &o)
    {
        if (this != &o) {
            gaussianPairs.store(
                o.gaussianPairs.load(std::memory_order_relaxed),
                std::memory_order_relaxed);
            outlierPairs.store(
                o.outlierPairs.load(std::memory_order_relaxed),
                std::memory_order_relaxed);
        }
        return *this;
    }

    /** Thread-safe accumulation of a privately counted band. */
    void add(uint64_t gaussian, uint64_t outlier);

    /** Fraction of multiply pairs routed to the OPP. */
    double outlierPairFraction() const;

    void merge(const IndexMatmulStats &o);
};

/**
 * Precompute the SoA2/PoM2-style sums for @p n codes (done "while
 * quantizing the previous layer's output" in hardware).
 */
VectorConstants vectorConstants(const QCode *codes, size_t n,
                                const ExpDictionary &exp);

/**
 * One index-domain dot product of length @p k.
 *
 * @param a      activation codes
 * @param dict_a activation dictionary
 * @param w      weight codes
 * @param dict_w weight dictionary
 * @param k      reduction length
 * @param ca     precomputed constants for @p a (vectorConstants)
 * @param cw     precomputed constants for @p w
 * @param stats  optional pair-count accumulator
 * @param crf    optional: receives the final CRF histograms
 */
double indexDot(const QCode *a, const TensorDictionary &dict_a,
                const QCode *w, const TensorDictionary &dict_w,
                size_t k, const VectorConstants &ca,
                const VectorConstants &cw,
                IndexMatmulStats *stats = nullptr,
                CrfState *crf = nullptr);

/**
 * Index-domain GEMM on the mag engine: out = A (M x K) * Wt^T where
 * Wt is (N x K).
 *
 * Both operands are quantized; the result is the full-precision
 * output activation tensor. This is the unfused entry point:
 * indexMatmulTransBFused() with no epilogue and no output encode,
 * streaming the dense int16 grid magnitude planes (one exact
 * register-blocked integer dot, simd.hh magDotBlock). Per-output-
 * element arithmetic is fixed, so results are bit-identical for
 * every thread count, lane and split. Serving never calls it; the
 * tests compose it with the float epilogues and encodeToPlanes() as
 * the layer-at-a-time oracle of the fused forward walk.
 */
Tensor indexMatmulTransB(const QuantizedTensor &a,
                         const QuantizedTensor &wt,
                         IndexMatmulStats *stats = nullptr,
                         Lane lane = {});

/**
 * The counting engine, unfused: for each (activation row, weight
 * row) pair the GPE accumulates a signed integer histogram over the
 * joint 3 b x 3 b index space from the uint8 index / int8 theta byte
 * planes (simd.hh pairHistogram), then collapses it with one
 * 64-entry dot against the decoded dictionary products — one
 * multiply per dictionary pair instead of one per element, exactly
 * the paper's multiplier-free dataflow — and merges the outlier
 * sidecars (OPP). The histogram phase is exact integer arithmetic,
 * so it is identical on every ISA; only the fixed-order collapse is
 * FP. Streams 2 B per element, like the mag engine, and only
 * requires the byte planes (PlaneSet::Bytes) to be materialized.
 */
Tensor indexMatmulTransBCounting(const QuantizedTensor &a,
                                 const QuantizedTensor &wt,
                                 IndexMatmulStats *stats = nullptr,
                                 Lane lane = {});

/**
 * The seed scalar algorithm — one indexDot() per output element,
 * branching per code pair. Kept as the algebra reference the engine
 * is validated (and benchmarked) against.
 */
Tensor indexMatmulTransBReference(const QuantizedTensor &a,
                                  const QuantizedTensor &wt,
                                  IndexMatmulStats *stats = nullptr);

/** Reference: decode both operands and multiply in float. */
Tensor decodedMatmulTransB(const QuantizedTensor &a,
                           const QuantizedTensor &wt);

/**
 * Per-row epilogue of a fused GEMM: transform row @p i's @p n output
 * values in place (bias, activation, residual, normalization, ...).
 * Called once per output row, from pool threads; rows are disjoint,
 * so captured state must be read-only or row-indexed.
 */
using FusedRowEpilogue =
    std::function<void(size_t i, float *vals, size_t n)>;

/** What a fused GEMM hands the next graph node. */
struct FusedGemmOut
{
    /** The output re-encoded as planes (empty unless outDict). */
    QuantizedTensor planes;
    /** The float output (empty unless keepDense). */
    Tensor dense;
};

/**
 * How indexMatmulTransBFused() splits an (m x k) * (n x k)^T GEMM
 * across the pool: true for the weight-stationary split (chunks own
 * output columns), false for row bands (chunks own activation rows).
 * Weight-stationary when the streamed weight plane (2 B per element
 * under either engine) is at least 1 MiB: such a plane is read from
 * memory once per call instead of once per band. Every BERT-base
 * weight site (1.125 MiB and up) splits; the 1/8-scale reduced
 * model's planes (72 KiB at most) keep row bands. Smaller planes
 * stay cache-resident, so every thread re-reading them is cheap and
 * row bands save the split's second fan-out. A pure function of its
 * arguments; a 1-thread pool runs either split inline with the same
 * per-element work.
 */
bool weightStationarySplit(size_t n, size_t k);

/**
 * Plane-to-plane fused GEMM: the one index-domain GEMM walk, which
 * every served GEMM runs on the mag engine, with the epilogue and
 * the next consumer's activation quantization chained into it.
 *
 * The walk runs the tiled engine loops (noinline magTile /
 * countingDot, reading the planes' precomputed per-row fold sums
 * instead of re-folding the SoA2 + b*PoM2 terms per call), then
 * applies @p epilogue to each complete output row
 * and encodes it straight into the output planes with the same
 * comparator-ladder walk Quantizer::encodeToPlanes() runs (shared
 * LadderSpec::encodeRow) — no intermediate float tensor unless
 * @p keepDense asks for one. weightStationarySplit() picks how the
 * pool shares the work:
 *
 *  - weight-stationary (large weights): each chunk owns a range of
 *    output columns and computes it for all m rows; a second fan-out
 *    over rows then runs the epilogue and the encode. Each weight
 *    byte is streamed once per call however many rows there are,
 *    and a 1-row decode step runs on every thread;
 *  - row bands (smaller planes): each chunk owns activation rows,
 *    walks every weight tile for them and finishes its rows while
 *    they are cache-warm.
 *
 * Both run one tile kernel, in which the mag engine computes 4
 * activation rows x 4 weight rows per register-blocked pass of exact
 * int16 x int16 -> int32 multiply-adds (simd.hh magDotBlock).
 *
 * Every output value, encoded plane byte, outlier entry and stats
 * count is bit-identical to the unfused sequence
 *   indexMatmulTransB / indexMatmulTransBCounting -> epilogue
 *     -> encodeToPlanes
 * under either split, for every thread count and lane, which the
 * index-matmul and graph-fusion parity tests pin.
 *
 * @param engine    Mag (what serving runs) or Count (replayed by
 *                  mokey-bench and held by the tests)
 * @param epilogue  optional per-row output transform
 * @param outDict   when set, re-encode the output against this
 *                  dictionary into planes (the fused A->B handoff)
 * @param outSets   plane sets to materialize for the output
 * @param keepDense also materialize the float output tensor (needed
 *                  when the float values feed non-GEMM consumers)
 * @param constants optional hoisted gemmConstants() for this site
 */
FusedGemmOut indexMatmulTransBFused(
    const QuantizedTensor &a, const QuantizedTensor &wt,
    IndexEngine engine, const FusedRowEpilogue &epilogue,
    const TensorDictionary *outDict, PlaneSet outSets,
    bool keepDense, const GemmConstants *constants = nullptr,
    IndexMatmulStats *stats = nullptr, Lane lane = {});

} // namespace mokey

#endif // MOKEY_QUANT_INDEX_MATMUL_HH
