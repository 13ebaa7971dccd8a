/**
 * @file
 * Property tests for the index-domain GEMM (Eqs. 1-6) and the
 * integer-only pipeline (§II-F).
 *
 * The load-bearing property: the histogram decomposition plus the
 * OPP outlier corrections must reproduce the decode-then-multiply
 * reference *exactly* (to FP rounding), for any mix of Gaussian and
 * outlier codes and any tensor statistics.
 */

#include <cmath>
#include <iostream>
#include <string>
#include <thread>
#include <vector>
#include <gtest/gtest.h>

#include "common/parallel.hh"
#include "common/rng.hh"
#include "common/simd.hh"
#include "model/config.hh"
#include "quant/fixed_pipeline.hh"
#include "quant/index_matmul.hh"
#include "quant/quantizer.hh"
#include "tensor/ops.hh"
#include "test_util.hh"

namespace mokey
{
namespace
{

struct Shape
{
    size_t m, n, k;
    double mean_a, std_a;
    double mean_w, std_w;
    double tail_frac;
};

/** Grid value of code (r, c), from the code and its dictionary
 * alone: what the mag plane must hold there. */
int64_t
gridValueAt(const QuantizedTensor &q, size_t r, size_t c)
{
    const QCode code = q.at(r, c);
    const TensorDictionary &d = q.dictionary();
    if (code.isOutlier())
        return d.outlierGrid(code.outlierIndex());
    return code.theta() * d.exp().gridMagnitude(code.index());
}

/**
 * The mag engine's scalar oracle: grid values taken from the codes
 * (never from a plane), exact int64 dots and row sums, then
 * engineDot's one double expression, in its order, on the same
 * constants. The engine must equal it bit for bit.
 */
Tensor
gridOracle(const QuantizedTensor &a, const QuantizedTensor &wt)
{
    const size_t m = a.rows(), n = wt.rows(), k = a.cols();
    const GemmConstants ctx =
        gemmConstants(a.dictionary(), wt.dictionary(), k);
    std::vector<int64_t> ga(m * k), gw(n * k), ra(m, 0), rw(n, 0);
    for (size_t i = 0; i < m; ++i)
        for (size_t p = 0; p < k; ++p)
            ra[i] += ga[i * k + p] = gridValueAt(a, i, p);
    for (size_t j = 0; j < n; ++j)
        for (size_t p = 0; p < k; ++p)
            rw[j] += gw[j * k + p] = gridValueAt(wt, j, p);
    Tensor out(m, n);
    for (size_t i = 0; i < m; ++i) {
        const double row_term =
            ctx.gA * ctx.mW * static_cast<double>(ra[i]);
        for (size_t j = 0; j < n; ++j) {
            int64_t dot = 0;
            for (size_t p = 0; p < k; ++p)
                dot += ga[i * k + p] * gw[j * k + p];
            const double col_term =
                ctx.gW * ctx.mA * static_cast<double>(rw[j]);
            out.at(i, j) = static_cast<float>(
                ctx.c0 * static_cast<double>(dot) + row_term +
                col_term + ctx.constTerm);
        }
    }
    return out;
}

/**
 * The decode-then-multiply product sum_p A_p W_p of the same codes
 * (A_p = decodeAt), with a per-element bound on how far the mag
 * engine may sit from it. The engine multiplies the grid-snapped
 * operands A^_p = gA a^_p + mA, a^_p the slot's grid value, exactly
 * (an int64 dot), so for output (i, j):
 *
 *  G  grid rounding. A^W^ - AW = (A^ - A) W^ + A (W^ - W), so
 *       |sum A^W^ - sum AW| <= sum |A^ - A| |W^| + |A| |W^ - W|,
 *     each |A^ - A| at most half a grid step gA / 2 and measured
 *     here per element; the double evaluation of the differences
 *     adds 2^-52 (|A| + |A^|) per factor.
 *  D  the engine's double expression: c0, the row and column terms
 *     and their sum, at most 16 roundings of 2^-53 over terms
 *     bounded by sum (|A^ - mA| + |mA|)(|W^ - mW| + |mW|).
 *  R  the oracle's own serial double sum: k 2^-53 sum |A| |W|.
 *  F  the engine's final float cast: 2^-24 (|ref| + G + D + R).
 *
 * bound = G + D + R + F. No slack factor: a result outside it is an
 * algebra change, not noise.
 */
struct GridBound
{
    size_t n = 0;
    std::vector<double> ref;   ///< sum A_p W_p, serial double
    std::vector<double> bound; ///< the mag engine's bound vs ref
};

GridBound
gridBound(const QuantizedTensor &a, const QuantizedTensor &wt)
{
    const size_t m = a.rows(), n = wt.rows(), k = a.cols();
    const GemmConstants ctx =
        gemmConstants(a.dictionary(), wt.dictionary(), k);
    const double ud = 0x1p-53;
    const auto operand = [k](const QuantizedTensor &q, double g,
                             double mean, std::vector<double> &val,
                             std::vector<double> &snap) {
        val.resize(q.rows() * k);
        snap.resize(q.rows() * k);
        for (size_t r = 0; r < q.rows(); ++r) {
            for (size_t p = 0; p < k; ++p) {
                val[r * k + p] = q.decodeAt(r, p);
                snap[r * k + p] =
                    g * static_cast<double>(gridValueAt(q, r, p)) + mean;
            }
        }
    };
    std::vector<double> va, sa, vw, sw;
    operand(a, ctx.gA, ctx.mA, va, sa);
    operand(wt, ctx.gW, ctx.mW, vw, sw);
    GridBound o;
    o.n = n;
    o.ref.resize(m * n);
    o.bound.resize(m * n);
    for (size_t i = 0; i < m; ++i) {
        for (size_t j = 0; j < n; ++j) {
            double ref = 0.0, g = 0.0, d = 0.0, r = 0.0;
            for (size_t p = 0; p < k; ++p) {
                const double A = va[i * k + p], Ah = sa[i * k + p];
                const double W = vw[j * k + p], Wh = sw[j * k + p];
                const double dA = std::abs(Ah - A) +
                    2 * ud * (std::abs(A) + std::abs(Ah));
                const double dW = std::abs(Wh - W) +
                    2 * ud * (std::abs(W) + std::abs(Wh));
                ref += A * W;
                g += dA * std::abs(Wh) + std::abs(A) * dW;
                d += (std::abs(Ah - ctx.mA) + std::abs(ctx.mA)) *
                    (std::abs(Wh - ctx.mW) + std::abs(ctx.mW));
                r += std::abs(A) * std::abs(W);
            }
            d *= 16 * ud;
            r *= static_cast<double>(k) * ud;
            o.ref[i * n + j] = ref;
            o.bound[i * n + j] =
                g + d + r + 0x1p-24 * (std::abs(ref) + g + d + r);
        }
    }
    return o;
}

/** Every element of a mag-engine output lies within its bound. */
void
expectWithinGridBound(const Tensor &got, const GridBound &o,
                      const std::string &what)
{
    ASSERT_EQ(got.size(), o.ref.size()) << what;
    for (size_t e = 0; e < o.ref.size(); ++e)
        ASSERT_LE(std::abs(static_cast<double>(got.raw()[e]) - o.ref[e]),
                  o.bound[e])
            << what << " elem=(" << e / o.n << ", " << e % o.n
            << ") ref=" << o.ref[e];
}

/**
 * A mag-engine output against another algebra's output @p other,
 * which is held to the decoded product within @p other_tol plus its
 * own float cast: by the triangle inequality the two outputs then
 * differ by at most the grid bound plus that tolerance.
 */
void
expectNearGridBound(const Tensor &mag, const Tensor &other,
                    const GridBound &o, double other_tol,
                    const std::string &what)
{
    ASSERT_EQ(mag.size(), o.ref.size()) << what;
    ASSERT_EQ(other.size(), o.ref.size()) << what;
    for (size_t e = 0; e < o.ref.size(); ++e) {
        const double x = other.raw()[e];
        const double tol = other_tol + 0x1p-24 * std::abs(x);
        ASSERT_LE(std::abs(x - o.ref[e]), tol)
            << what << " other elem=(" << e / o.n << ", " << e % o.n
            << ")";
        ASSERT_LE(std::abs(static_cast<double>(mag.raw()[e]) - x),
                  o.bound[e] + tol)
            << what << " elem=(" << e / o.n << ", " << e % o.n << ")";
    }
}

class IndexMatmulProperty : public ::testing::TestWithParam<Shape>
{
  protected:
    IndexMatmulProperty() : exp(1.179, -0.977, 8), quantizer(exp) {}

    QuantizedTensor
    makeOperand(size_t rows, size_t cols, double mean, double stddev,
                double tail_frac, uint64_t seed)
    {
        Rng rng(seed);
        std::vector<float> v =
            rng.gaussianVector(rows * cols, mean, stddev);
        const auto n_tail = static_cast<size_t>(
            tail_frac * static_cast<double>(v.size()));
        for (size_t i = 0; i < n_tail; ++i)
            v[rng.uniformInt(v.size())] = static_cast<float>(
                rng.gaussian(mean, 5.0 * stddev));
        Tensor t(rows, cols, v);
        const auto dict = quantizer.buildDictionary(t);
        return quantizer.encode(t, dict);
    }

    ExpDictionary exp;
    Quantizer quantizer;
};

TEST_P(IndexMatmulProperty, MatchesDecodedReferenceExactly)
{
    const Shape s = GetParam();
    const auto a = makeOperand(s.m, s.k, s.mean_a, s.std_a,
                               s.tail_frac, 1000 + s.m);
    const auto wt = makeOperand(s.n, s.k, s.mean_w, s.std_w,
                                s.tail_frac, 2000 + s.n);

    IndexMatmulStats stats;
    const Tensor fast = indexMatmulTransB(a, wt, &stats);
    // Exactly the int64 grid oracle, and within the grid's rounding
    // of the decode-then-multiply product.
    ASSERT_EQ(fast.raw(), gridOracle(a, wt).raw());
    expectWithinGridBound(fast, gridBound(a, wt), "engine vs decoded");
    EXPECT_EQ(stats.gaussianPairs + stats.outlierPairs,
              static_cast<uint64_t>(s.m) * s.n * s.k);
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, IndexMatmulProperty,
    ::testing::Values(
        Shape{4, 4, 16, 0.0, 1.0, 0.0, 0.02, 0.0},
        Shape{8, 8, 64, 0.0, 1.0, 0.0, 0.02, 0.02},
        Shape{3, 5, 33, 0.5, 0.3, -0.1, 0.05, 0.03},
        Shape{16, 8, 128, -2.0, 0.5, 1.0, 0.1, 0.05},
        Shape{1, 1, 256, 0.1, 1.5, -0.3, 0.02, 0.04},
        Shape{8, 16, 96, 3.0, 2.0, -1.5, 1.0, 0.02},
        Shape{12, 12, 48, 0.0, 0.01, 0.0, 10.0, 0.03}));

/**
 * Engine-specific coverage: the tiled/parallel kernel must equal the
 * grid oracle at every thread count, track the seed reference
 * algorithm, and keep its pair statistics invariant
 * under threading — all on deliberately outlier-heavy operands so
 * the OPP sidecar path is exercised hard.
 */
class EngineParity : public ::testing::TestWithParam<Shape>
{
  protected:
    EngineParity() : exp(1.179, -0.977, 8), quantizer(exp) {}

    QuantizedTensor
    makeOperand(size_t rows, size_t cols, double mean, double stddev,
                double tail_frac, uint64_t seed)
    {
        Rng rng(seed);
        std::vector<float> v =
            rng.gaussianVector(rows * cols, mean, stddev);
        const auto n_tail = static_cast<size_t>(
            tail_frac * static_cast<double>(v.size()));
        for (size_t i = 0; i < n_tail; ++i)
            v[rng.uniformInt(v.size())] = static_cast<float>(
                rng.gaussian(mean, 5.0 * stddev));
        Tensor t(rows, cols, v);
        const auto dict = quantizer.buildDictionary(t);
        return quantizer.encode(t, dict);
    }

    ExpDictionary exp;
    Quantizer quantizer;
};

TEST_P(EngineParity, TiledParallelBitIdenticalToGridOracle)
{
    const Shape s = GetParam();
    const auto a = makeOperand(s.m, s.k, s.mean_a, s.std_a,
                               s.tail_frac, 5000 + s.m);
    const auto wt = makeOperand(s.n, s.k, s.mean_w, s.std_w,
                                s.tail_frac, 6000 + s.n);

    const Tensor exact = gridOracle(a, wt);
    const ThreadCountGuard thread_guard;
    setThreadCount(1);
    IndexMatmulStats one_stats;
    indexMatmulTransB(a, wt, &one_stats);
    for (const size_t t : {1u, 2u, 5u}) {
        setThreadCount(t);
        IndexMatmulStats stats;
        const Tensor par = indexMatmulTransB(a, wt, &stats);
        // Bit-identical, not merely close: EXPECT_EQ on every float.
        for (size_t i = 0; i < exact.size(); ++i)
            EXPECT_EQ(exact.raw()[i], par.raw()[i])
                << "threads=" << t << " elem=" << i;
        EXPECT_EQ(stats.gaussianPairs, one_stats.gaussianPairs)
            << "threads=" << t;
        EXPECT_EQ(stats.outlierPairs, one_stats.outlierPairs)
            << "threads=" << t;
    }
}

TEST_P(EngineParity, TracksSeedReferenceAlgorithm)
{
    const Shape s = GetParam();
    const auto a = makeOperand(s.m, s.k, s.mean_a, s.std_a,
                               s.tail_frac, 5000 + s.m);
    const auto wt = makeOperand(s.n, s.k, s.mean_w, s.std_w,
                                s.tail_frac, 6000 + s.n);

    IndexMatmulStats ref_stats, eng_stats;
    const Tensor ref = indexMatmulTransBReference(a, wt, &ref_stats);
    const Tensor eng = indexMatmulTransB(a, wt, &eng_stats);

    // The seed's double CRF algebra stays within 1e-9 of the decoded
    // product; the engine within its derived grid bound.
    const double seed_tol =
        1e-9 * std::max(1.0, frobeniusNorm(ref)) + 1e-6;
    expectNearGridBound(eng, ref, gridBound(a, wt), seed_tol,
                        "engine vs seed");
    // The engine routes exactly the same pairs to GPE vs OPP as the
    // seed per-element branch did.
    EXPECT_EQ(eng_stats.gaussianPairs, ref_stats.gaussianPairs);
    EXPECT_EQ(eng_stats.outlierPairs, ref_stats.outlierPairs);
}

TEST_P(EngineParity, FixedEngineBitIdenticalToScalar)
{
    // The fixed-point GEMM now fans out over row bands like the
    // float/index engines; being integer arithmetic, any reordering
    // bug would show up as an exact mismatch immediately.
    const Shape s = GetParam();
    const auto a = makeOperand(s.m, s.k, s.mean_a, s.std_a,
                               s.tail_frac, 7000 + s.m);
    const auto wt = makeOperand(s.n, s.k, s.mean_w, s.std_w,
                                s.tail_frac, 8000 + s.n);
    const FixedFormat fmt{16, 8};

    IndexMatmulStats scalar_stats;
    const Tensor scalar =
        fixedIndexMatmulTransBScalar(a, wt, fmt, &scalar_stats);

    const size_t original = threadCount();
    for (const size_t t : {1u, 2u, 5u}) {
        setThreadCount(t);
        IndexMatmulStats stats;
        const Tensor par = fixedIndexMatmulTransB(a, wt, fmt, &stats);
        for (size_t i = 0; i < scalar.size(); ++i)
            EXPECT_EQ(scalar.raw()[i], par.raw()[i])
                << "threads=" << t << " elem=" << i;
        EXPECT_EQ(stats.gaussianPairs, scalar_stats.gaussianPairs)
            << "threads=" << t;
        EXPECT_EQ(stats.outlierPairs, scalar_stats.outlierPairs)
            << "threads=" << t;
    }
    setThreadCount(original);
}

TEST_P(EngineParity, CountingBitIdenticalToScalarThreadsAndLanes)
{
    // The counting engine's load-bearing parity: for every thread
    // count (1, 2, hardware) and lane assignment, the byte-plane
    // histogram engine is bit-identical to its own single-thread
    // run — per-output-element arithmetic order is fixed, and the
    // histogram phase is exact integers.
    const Shape s = GetParam();
    const auto a = makeOperand(s.m, s.k, s.mean_a, s.std_a,
                               s.tail_frac, 5000 + s.m);
    const auto wt = makeOperand(s.n, s.k, s.mean_w, s.std_w,
                                s.tail_frac, 6000 + s.n);

    const ThreadCountGuard thread_guard;
    setThreadCount(1);
    IndexMatmulStats scalar_stats;
    const Tensor scalar =
        indexMatmulTransBCounting(a, wt, &scalar_stats);

    const size_t hw = std::max<size_t>(
        1, std::thread::hardware_concurrency());
    for (const size_t t : {size_t{1}, size_t{2}, hw}) {
        setThreadCount(t);
        for (const Lane lane : {Lane{}, Lane::acquire()}) {
            IndexMatmulStats stats;
            const Tensor par =
                indexMatmulTransBCounting(a, wt, &stats, lane);
            for (size_t i = 0; i < scalar.size(); ++i)
                ASSERT_EQ(scalar.raw()[i], par.raw()[i])
                    << "threads=" << t << " lane=" << lane.id()
                    << " elem=" << i;
            EXPECT_EQ(stats.gaussianPairs,
                      scalar_stats.gaussianPairs)
                << "threads=" << t;
            EXPECT_EQ(stats.outlierPairs, scalar_stats.outlierPairs)
                << "threads=" << t;
        }
    }
}

TEST_P(EngineParity, CountingMatchesDecodedReference)
{
    const Shape s = GetParam();
    const auto a = makeOperand(s.m, s.k, s.mean_a, s.std_a,
                               s.tail_frac, 5000 + s.m);
    const auto wt = makeOperand(s.n, s.k, s.mean_w, s.std_w,
                                s.tail_frac, 6000 + s.n);

    IndexMatmulStats stats;
    const Tensor count = indexMatmulTransBCounting(a, wt, &stats);
    const Tensor ref = decodedMatmulTransB(a, wt);

    const double tol =
        1e-9 * std::max(1.0, frobeniusNorm(ref)) + 1e-6;
    EXPECT_LT(maxAbsDiff(count, ref), tol);
    EXPECT_EQ(stats.gaussianPairs + stats.outlierPairs,
              static_cast<uint64_t>(s.m) * s.n * s.k);
}

TEST_P(EngineParity, CountingRoutesPairsLikeMagEngine)
{
    // Same algebra, different dataflow: both engines must route
    // exactly the same pairs to GPE vs OPP and agree numerically to
    // FP rounding.
    const Shape s = GetParam();
    const auto a = makeOperand(s.m, s.k, s.mean_a, s.std_a,
                               s.tail_frac, 5000 + s.m);
    const auto wt = makeOperand(s.n, s.k, s.mean_w, s.std_w,
                                s.tail_frac, 6000 + s.n);

    IndexMatmulStats mag_stats, count_stats;
    const Tensor mag = indexMatmulTransB(a, wt, &mag_stats);
    const Tensor count =
        indexMatmulTransBCounting(a, wt, &count_stats);

    EXPECT_EQ(count_stats.gaussianPairs, mag_stats.gaussianPairs);
    EXPECT_EQ(count_stats.outlierPairs, mag_stats.outlierPairs);
    // Counting keeps double arithmetic (1e-9 of the decoded product,
    // as in CountingMatchesDecodedReference); mag its grid bound.
    const double count_tol =
        1e-9 * std::max(1.0, frobeniusNorm(count)) + 1e-6;
    expectNearGridBound(mag, count, gridBound(a, wt), count_tol,
                        "mag vs count");
}

INSTANTIATE_TEST_SUITE_P(
    OutlierHeavyShapes, EngineParity,
    ::testing::Values(
        Shape{16, 16, 64, 0.0, 1.0, 0.0, 0.05, 0.15},
        Shape{33, 17, 96, 0.4, 0.8, -0.2, 0.1, 0.25},
        Shape{8, 64, 128, -1.0, 2.0, 0.5, 0.5, 0.40},
        Shape{64, 8, 48, 0.0, 0.3, 0.0, 0.02, 0.0},
        Shape{5, 3, 300, 2.0, 1.0, -2.0, 0.7, 0.33}));

TEST(EngineSelector, ServingRunsMag)
{
    // The engine constants mokey-bench reads: serving resolves every
    // GEMM to the mag engine and streams its planes.
    ExpDictionary exp(1.179, -0.977, 8);
    Quantizer quantizer(exp);
    Rng rng(661);
    Tensor ta(9, 80, rng.gaussianVector(720, 0.0, 1.0));
    const auto qa =
        quantizer.encode(ta, quantizer.buildDictionary(ta));
    EXPECT_EQ(indexEngine(), IndexEngine::Mag);
    EXPECT_EQ(resolveIndexEngine(qa, qa), IndexEngine::Mag);
    EXPECT_EQ(enginePlaneSet(IndexEngine::Mag), PlaneSet::Mag);
    EXPECT_EQ(enginePlaneSet(IndexEngine::Count), PlaneSet::Bytes);
}

TEST(EngineSelector, CountingStreamsOnlyBytePlanes)
{
    // The counting engine must not materialize the 2 B/element mag
    // plane it never reads.
    ExpDictionary exp(1.179, -0.977, 8);
    Quantizer quantizer(exp);
    Rng rng(663);
    Tensor ta(12, 128, rng.gaussianVector(12 * 128, 0.0, 1.0));
    Tensor tw(10, 128, rng.gaussianVector(10 * 128, 0.0, 1.0));
    const auto qa =
        quantizer.encode(ta, quantizer.buildDictionary(ta));
    const auto qw =
        quantizer.encode(tw, quantizer.buildDictionary(tw));

    indexMatmulTransBCounting(qa, qw);
    for (const QuantizedTensor *q : {&qa, &qw}) {
        const PlanesFootprint f = q->planesFootprint();
        EXPECT_TRUE(f.resident);
        EXPECT_TRUE(f.bytesResident);
        EXPECT_FALSE(f.magResident);
        EXPECT_LT(f.expansionRatio(), 4.0);
    }
}

TEST(FusedEncodeGemm, BitIdenticalToUnfusedPerEngine)
{
    // The engines consume only planes + dictionary, and the fused
    // encoder's planes are bit-identical to the derived ones — so
    // GEMMs over fused-encoded activations must match GEMMs over
    // encode()d ones bit-for-bit, per engine, across thread counts
    // and lanes.
    ExpDictionary exp(1.179, -0.977, 8);
    Quantizer quantizer(exp);
    Rng rng(669);
    Tensor ta(22, 112, rng.gaussianVector(22 * 112, 0.1, 1.2));
    Tensor tw(17, 112, rng.gaussianVector(17 * 112, 0.0, 0.4));
    for (size_t i = 0; i < ta.size(); i += 61)
        ta.raw()[i] = (i % 2) ? 8.0f : -7.5f; // force outliers
    const auto da = quantizer.buildDictionary(ta);
    const auto dw = quantizer.buildDictionary(tw);
    const auto qa_ref = quantizer.encode(ta, da);
    const auto qw = quantizer.encode(tw, dw);

    const ThreadCountGuard thread_guard;
    const size_t hw = std::max<size_t>(
        1, std::thread::hardware_concurrency());
    const auto gemm = [](IndexEngine e, const QuantizedTensor &a,
                         const QuantizedTensor &w, Lane lane) {
        return e == IndexEngine::Mag
            ? indexMatmulTransB(a, w, nullptr, lane)
            : indexMatmulTransBCounting(a, w, nullptr, lane);
    };

    for (const IndexEngine engine :
         {IndexEngine::Mag, IndexEngine::Count}) {
        setThreadCount(1);
        const Tensor ref = gemm(engine, qa_ref, qw, Lane{});
        for (const size_t t : {size_t{1}, size_t{2}, hw}) {
            setThreadCount(t);
            for (const Lane lane : {Lane{}, Lane::acquire()}) {
                const auto qa_fused = quantizer.encodeToPlanes(
                    ta, da, enginePlaneSet(engine), lane);
                const Tensor out = gemm(engine, qa_fused, qw, lane);
                ASSERT_EQ(out.raw(), ref.raw())
                    << "engine=" << static_cast<int>(engine)
                    << " threads=" << t << " lane=" << lane.id();
            }
        }
    }
}

TEST(EngineDeterminism, StatsInvariantAcrossThreadCounts)
{
    ExpDictionary exp(1.179, -0.977, 8);
    Quantizer quantizer(exp);
    Rng rng(977);
    Tensor ta(40, 120, rng.gaussianVector(4800, 0.0, 1.0));
    Tensor tw(24, 120, rng.gaussianVector(2880, 0.0, 1.0));
    const auto qa = quantizer.encode(ta, quantizer.buildDictionary(ta));
    const auto qw = quantizer.encode(tw, quantizer.buildDictionary(tw));

    const size_t original = threadCount();
    IndexMatmulStats first;
    indexMatmulTransB(qa, qw, &first);
    EXPECT_EQ(first.gaussianPairs + first.outlierPairs,
              40u * 24u * 120u);
    for (const size_t t : {1u, 3u, 8u}) {
        setThreadCount(t);
        IndexMatmulStats stats;
        indexMatmulTransB(qa, qw, &stats);
        EXPECT_EQ(stats.gaussianPairs, first.gaussianPairs);
        EXPECT_EQ(stats.outlierPairs, first.outlierPairs);
    }
    setThreadCount(original);
}

TEST(CodePlanesView, MatchesCodes)
{
    ExpDictionary exp(1.179, -0.977, 8);
    Quantizer quantizer(exp);
    Rng rng(983);
    Tensor t(13, 57, rng.gaussianVector(13 * 57, 0.0, 1.5));
    auto q = quantizer.encode(t, quantizer.buildDictionary(t));

    // Const view only: a non-const accessor would (correctly) drop
    // the cached planes out from under the reference.
    const QuantizedTensor &cq = q;
    const CodePlanes &p = cq.planes();
    ASSERT_EQ(p.rows, cq.rows());
    ASSERT_EQ(p.cols, cq.cols());
    size_t outliers = 0;
    for (size_t r = 0; r < cq.rows(); ++r) {
        const auto *ot = p.outlierRow(r);
        size_t seen = 0;
        for (size_t c = 0; c < cq.cols(); ++c) {
            const QCode code = cq.at(r, c);
            if (code.isOutlier()) {
                EXPECT_EQ(p.thetaRow(r)[c], 0);
                ASSERT_LT(seen, p.outlierCount(r));
                EXPECT_EQ(ot[seen].col, c);
                EXPECT_DOUBLE_EQ(ot[seen].value, cq.decodeAt(r, c));
                ++seen;
            } else {
                EXPECT_EQ(p.indexRow(r)[c], code.index());
                EXPECT_EQ(p.thetaRow(r)[c], code.theta());
            }
        }
        EXPECT_EQ(seen, p.outlierCount(r));
        outliers += seen;
    }
    EXPECT_EQ(outliers, p.outliers.size());

    // Mutating the codes must invalidate the cached view.
    const size_t before = p.outliers.size();
    bool flipped = false;
    for (auto &c : q.raw()) {
        if (c.isOutlier()) {
            c = QCode::gaussian(false, 0);
            flipped = true;
            break;
        }
    }
    if (flipped)
        EXPECT_EQ(q.planes().outliers.size(), before - 1);
}

class IndexDotFixture : public ::testing::Test
{
  protected:
    IndexDotFixture() : exp(1.179, -0.977, 8), quantizer(exp) {}

    ExpDictionary exp;
    Quantizer quantizer;
};

TEST_F(IndexDotFixture, AllGaussianUsesNoOpp)
{
    Rng rng(171);
    Tensor ta(1, 64, rng.gaussianVector(64, 0.0, 1.0));
    Tensor tw(1, 64, rng.gaussianVector(64, 0.0, 1.0));
    auto da = quantizer.buildDictionary(ta);
    auto dw = quantizer.buildDictionary(tw);
    auto qa = quantizer.encode(ta, da);
    auto qw = quantizer.encode(tw, dw);
    // Clear any outliers so every pair takes the GPE path.
    for (auto &c : qa.raw())
        if (c.isOutlier())
            c = QCode::gaussian(false, 7);
    for (auto &c : qw.raw())
        if (c.isOutlier())
            c = QCode::gaussian(true, 7);

    IndexMatmulStats st;
    const auto ca = vectorConstants(qa.row(0), 64, exp);
    const auto cw = vectorConstants(qw.row(0), 64, exp);
    indexDot(qa.row(0), qa.dictionary(), qw.row(0), qw.dictionary(),
             64, ca, cw, &st);
    EXPECT_EQ(st.outlierPairs, 0u);
    EXPECT_EQ(st.gaussianPairs, 64u);
}

TEST_F(IndexDotFixture, CrfCountsAreConsistent)
{
    Rng rng(173);
    Tensor ta(1, 200, rng.gaussianVector(200, 0.0, 1.0));
    Tensor tw(1, 200, rng.gaussianVector(200, 0.0, 1.0));
    auto da = quantizer.buildDictionary(ta);
    auto dw = quantizer.buildDictionary(tw);
    auto qa = quantizer.encode(ta, da);
    auto qw = quantizer.encode(tw, dw);

    IndexMatmulStats st;
    CrfState crf;
    const auto ca = vectorConstants(qa.row(0), 200, exp);
    const auto cw = vectorConstants(qw.row(0), 200, exp);
    indexDot(qa.row(0), da, qw.row(0), dw, 200, ca, cw, &st, &crf);

    // Sum of |soi| counts can't exceed the Gaussian pair count, and
    // the total signed count must equal pom1 in every CRF.
    int64_t soi_signed = 0, abs_total = 0;
    for (int32_t c : crf.soi) {
        soi_signed += c;
        abs_total += std::abs(c);
    }
    EXPECT_LE(abs_total, static_cast<int64_t>(st.gaussianPairs));
    EXPECT_EQ(soi_signed, crf.pom1);
    int64_t soa_signed = 0, sow_signed = 0;
    for (int32_t c : crf.soa1)
        soa_signed += c;
    for (int32_t c : crf.sow1)
        sow_signed += c;
    EXPECT_EQ(soa_signed, crf.pom1);
    EXPECT_EQ(sow_signed, crf.pom1);
}

TEST_F(IndexDotFixture, VectorConstantsMatchBruteForce)
{
    Rng rng(179);
    Tensor t(1, 300, rng.gaussianVector(300, 0.3, 1.2));
    const auto dict = quantizer.buildDictionary(t);
    const auto q = quantizer.encode(t, dict);
    const auto c = vectorConstants(q.row(0), 300, exp);

    double soa2 = 0.0, pom2 = 0.0;
    for (size_t i = 0; i < 300; ++i) {
        const QCode code = q.at(0, i);
        if (code.isOutlier())
            continue;
        const double p = std::pow(exp.a(), code.index());
        soa2 += code.theta() * p;
        pom2 += code.theta();
    }
    EXPECT_NEAR(c.soa2, soa2, 1e-9);
    EXPECT_NEAR(c.pom2, pom2, 1e-12);
}

TEST_F(IndexDotFixture, QuantizedGemmTracksFloatGemm)
{
    // End-to-end sanity: quantize A and W, multiply in the index
    // domain, compare against the FP32 GEMM of the *original*
    // tensors — the quantization error should be small relative to
    // the output magnitude.
    Rng rng(181);
    const size_t m = 16, n = 16, k = 256;
    Tensor a(m, k, rng.gaussianVector(m * k, 0.0, 1.0));
    Tensor w(n, k, rng.gaussianVector(n * k, 0.0, 0.05));

    auto da = quantizer.buildDictionary(a);
    auto dw = quantizer.buildDictionary(w);
    const auto qa = quantizer.encode(a, da);
    const auto qw = quantizer.encode(w, dw);

    const Tensor qout = indexMatmulTransB(qa, qw);
    const Tensor fout = matmulTransB(a, w);

    const double rel = maxAbsDiff(qout, fout) /
        (frobeniusNorm(fout) /
         std::sqrt(static_cast<double>(m * n)));
    EXPECT_LT(rel, 0.5); // bounded relative error per output
    EXPECT_GT(frobeniusNorm(qout), 0.5 * frobeniusNorm(fout));
}

TEST_F(IndexDotFixture, MismatchedExpDictionariesPanic)
{
    Rng rng(191);
    Tensor t(1, 8, rng.gaussianVector(8, 0.0, 1.0));
    const auto dict = quantizer.buildDictionary(t);
    const auto q = quantizer.encode(t, dict);

    ExpDictionary other(1.3, -0.9, 8);
    Quantizer qz2(other);
    const auto dict2 = qz2.buildDictionary(t);
    const auto q2 = qz2.encode(t, dict2);

    const auto ca = vectorConstants(q.row(0), 8, exp);
    EXPECT_DEATH(indexDot(q.row(0), dict, q2.row(0), dict2, 8, ca,
                          ca),
                 "different exponential dictionaries");
}

class FixedPipelineProperty : public ::testing::TestWithParam<Shape>
{
  protected:
    FixedPipelineProperty() : exp(1.179, -0.977, 8), quantizer(exp) {}

    ExpDictionary exp;
    Quantizer quantizer;
};

TEST_P(FixedPipelineProperty, TracksFloatIndexDot)
{
    const Shape s = GetParam();
    Rng rng(7000 + s.k);

    Tensor ta(s.m, s.k,
              rng.gaussianVector(s.m * s.k, s.mean_a, s.std_a));
    Tensor tw(s.n, s.k,
              rng.gaussianVector(s.n * s.k, s.mean_w, s.std_w));
    auto da = quantizer.buildDictionary(ta);
    auto dw = quantizer.buildDictionary(tw);
    const auto qa = quantizer.encode(ta, da);
    const auto qw = quantizer.encode(tw, dw);

    const Tensor fl = indexMatmulTransB(qa, qw);
    // Output format sized from the float result's observed range.
    double mx = 1e-6;
    for (float v : fl.raw())
        mx = std::max(mx, std::abs(static_cast<double>(v)));
    const auto out_fmt = FixedFormat::forRange(16, -mx, mx);

    const Tensor fx = fixedIndexMatmulTransB(qa, qw, out_fmt);

    // The integer pipeline quantizes the eight scaling coefficients
    // to 16 b; partially cancelling large terms amplify that
    // rounding, so the achievable bound is a few percent of full
    // scale — consistent with 16 b fixed-point arithmetic.
    const double tol = 0.06 * mx + 2.0 * out_fmt.resolution();
    EXPECT_LT(maxAbsDiff(fx, fl), tol);
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, FixedPipelineProperty,
    ::testing::Values(
        Shape{4, 4, 32, 0.0, 1.0, 0.0, 0.02, 0.0},
        Shape{8, 8, 64, 0.5, 0.3, -0.1, 0.05, 0.0},
        Shape{6, 6, 128, -1.0, 0.5, 0.5, 0.2, 0.0},
        Shape{2, 3, 512, 0.0, 2.0, 0.0, 1.0, 0.0}));

TEST_F(IndexDotFixture, FixedPipelineSaturatesGracefully)
{
    // Deliberately tiny output format: results must clamp, not wrap.
    Rng rng(193);
    Tensor ta(2, 64, rng.gaussianVector(128, 0.0, 1.0));
    Tensor tw(2, 64, rng.gaussianVector(128, 0.0, 1.0));
    auto da = quantizer.buildDictionary(ta);
    auto dw = quantizer.buildDictionary(tw);
    const auto qa = quantizer.encode(ta, da);
    const auto qw = quantizer.encode(tw, dw);

    const FixedFormat tiny{16, 20}; // max value ~0.03
    const Tensor fx = fixedIndexMatmulTransB(qa, qw, tiny);
    for (float v : fx.raw()) {
        EXPECT_LE(v, static_cast<float>(tiny.maxValue()) + 1e-9);
        EXPECT_GE(v, static_cast<float>(tiny.minValue()) - 1e-9);
    }
}

TEST_F(IndexDotFixture, FixedVectorConstantsMatchFloat)
{
    Rng rng(197);
    Tensor t(1, 256, rng.gaussianVector(256, 0.0, 1.0));
    const auto dict = quantizer.buildDictionary(t);
    const auto q = quantizer.encode(t, dict);

    FixedIndexEngine eng(dict, dict, FixedFormat{16, 8});
    const auto fc = eng.vectorConstants(q.row(0), 256);
    const auto flc = vectorConstants(q.row(0), 256, exp);

    const double soa2 =
        fromFixedRaw(fc.soa2Raw, eng.baseFormat());
    EXPECT_NEAR(soa2, flc.soa2, 256 * eng.baseFormat().resolution());
    EXPECT_DOUBLE_EQ(static_cast<double>(fc.pom2), flc.pom2);
}

TEST(GemmConstantsCache, HitsReturnBitIdenticalConstants)
{
    // The attention act×act hoisting path: a cached lookup must be
    // indistinguishable from a fresh derivation for every field, for
    // several (dictionary, K) combinations, repeated so the second
    // round is served from the LRU.
    ExpDictionary exp(1.179, -0.977, 8);
    Quantizer quantizer(exp);
    Rng rng(77);
    std::vector<TensorDictionary> dicts;
    for (int d = 0; d < 3; ++d) {
        Tensor t(8, 64,
                 rng.gaussianVector(8 * 64, 0.3 * d, 1.0 + d));
        dicts.push_back(quantizer.buildDictionary(t));
    }

    const uint64_t h0 = gemmConstantsCacheHits();
    for (int round = 0; round < 2; ++round) {
        for (const auto &da : dicts) {
            for (const auto &dw : dicts) {
                for (const size_t k : {4u, 24u, 96u}) {
                    const GemmConstants fresh =
                        gemmConstants(da, dw, k);
                    const GemmConstants cached =
                        cachedGemmConstants(da, dw, k);
                    EXPECT_EQ(fresh.k, cached.k);
                    EXPECT_EQ(fresh.sA, cached.sA);
                    EXPECT_EQ(fresh.sW, cached.sW);
                    EXPECT_EQ(fresh.mA, cached.mA);
                    EXPECT_EQ(fresh.mW, cached.mW);
                    EXPECT_EQ(fresh.c0, cached.c0);
                    EXPECT_EQ(fresh.constTerm, cached.constTerm);
                    EXPECT_EQ(fresh.mags, cached.mags);
                    EXPECT_EQ(fresh.prod, cached.prod);
                }
            }
        }
    }
    // Round 2 re-asks for every key just inserted by round 1: at
    // least those 27 lookups must be hits.
    EXPECT_GE(gemmConstantsCacheHits() - h0, 27u);
}

TEST(GemmConstantsCache, EvictionKeepsResultsExact)
{
    // Far more live K values than the cache holds: every lookup must
    // still match a fresh derivation even while entries churn.
    ExpDictionary exp(1.179, -0.977, 8);
    Quantizer quantizer(exp);
    Rng rng(78);
    Tensor t(8, 64, rng.gaussianVector(8 * 64, 0.0, 1.0));
    const TensorDictionary dict = quantizer.buildDictionary(t);
    for (size_t k = 1; k <= 256; ++k) {
        const GemmConstants fresh = gemmConstants(dict, dict, k);
        const GemmConstants cached =
            cachedGemmConstants(dict, dict, k);
        EXPECT_EQ(fresh.constTerm, cached.constTerm) << "k=" << k;
        EXPECT_EQ(fresh.prod, cached.prod) << "k=" << k;
        EXPECT_EQ(fresh.k, cached.k) << "k=" << k;
    }
}

/** The int64 oracle of magDotBlock: rows x cols exact dots. */
std::vector<int64_t>
int64Dots(const std::vector<int16_t> &a, const std::vector<int16_t> &w,
          size_t rows, size_t cols, size_t k)
{
    std::vector<int64_t> d(rows * cols, 0);
    for (size_t i = 0; i < rows; ++i)
        for (size_t j = 0; j < cols; ++j)
            for (size_t p = 0; p < k; ++p)
                d[i * cols + j] +=
                    int64_t{a[i * k + p]} * w[j * k + p];
    return d;
}

/** Every body this host can run, generic first. */
std::vector<SimdIsa>
hostIsas()
{
    std::vector<SimdIsa> out;
    for (const SimdIsa isa : {SimdIsa::Generic, SimdIsa::Avx2,
                              SimdIsa::Avx512Bw, SimdIsa::Avx512Vnni})
        if (static_cast<int>(isa) <= static_cast<int>(magDotIsa()))
            out.push_back(isa);
    return out;
}

/**
 * Each body on every block shape rows x cols in [1, 9]^2 (4 x 4
 * register tiles and every row and column tail), exactly the int64
 * oracle, with kBlock from magKBlock of the operands' bounds.
 */
void
expectEveryBodyExact(const std::vector<int16_t> &a,
                     const std::vector<int16_t> &w, size_t k,
                     size_t kBlock, const std::string &what)
{
    constexpr size_t kMax = 9;
    const std::vector<int64_t> want = int64Dots(a, w, kMax, kMax, k);
    for (const SimdIsa isa : hostIsas()) {
        for (size_t rows = 1; rows <= kMax; ++rows) {
            for (size_t cols = 1; cols <= kMax; ++cols) {
                std::vector<int64_t> got(rows * cols);
                magDotBlockOn(isa, a.data(), k, rows, w.data(), k, cols,
                              k, kBlock, got.data(), cols);
                for (size_t i = 0; i < rows; ++i)
                    for (size_t j = 0; j < cols; ++j)
                        ASSERT_EQ(got[i * cols + j], want[i * kMax + j])
                            << what << " " << simdIsaName(isa)
                            << " k=" << k << " block " << rows << "x"
                            << cols << " elem (" << i << "," << j << ")";
            }
        }
    }
}

const size_t kKernelKs[] = {1,  2,  31,  32,  33,   63,
                            64, 65, 767, 768, 3071, 3072};

TEST(MagDotBlock, EveryIsaBodyEqualsInt64Oracle)
{
    // The kernel's contract (simd.hh): the exact integer dot, in
    // every tile shape and tail, on every body, on and off the
    // 32-element vector grid. Slots reach +/-32767 on one operand
    // at a time, so magKBlock stays valid; the other operand holds
    // Gaussian-range grid values.
    std::cout << "mag kernel dispatches to "
              << simdIsaName(magDotIsa()) << "\n";
    constexpr size_t kRows = 9;
    Rng rng(977);
    const auto plane = [&rng](size_t k, int bound, bool extremes) {
        std::vector<int16_t> v(kRows * k);
        for (int16_t &x : v)
            x = static_cast<int16_t>(
                static_cast<int>(rng.uniformInt(2 * bound + 1)) - bound);
        if (extremes)
            for (size_t z = 0; z < v.size(); z += 7)
                v[z] = (z / 7) % 2 ? 32767 : -32767;
        return v;
    };
    for (const size_t k : kKernelKs) {
        const auto narrow_a = plane(k, 127, false);
        const auto narrow_w = plane(k, 127, false);
        const auto wide_a = plane(k, 64, true);
        const auto wide_w = plane(k, 64, true);
        expectEveryBodyExact(narrow_a, narrow_w, k, magKBlock(127, 127),
                             "narrow x narrow");
        expectEveryBodyExact(wide_a, narrow_w, k, magKBlock(32767, 127),
                             "wide x narrow");
        expectEveryBodyExact(narrow_a, wide_w, k, magKBlock(127, 32767),
                             "narrow x wide");
    }
}

TEST(MagDotBlock, KBlockBoundsTheInt32Sum)
{
    // Both operands at +/-32767 in the first two slots of every
    // 32-element block (one vpmaddwd pair of two extreme products,
    // 2 x 32767^2 < 2^31) and small elsewhere: each 32-block's sum
    // fits in int32, a 64-block's does not. kBlock = 32 must still
    // give the exact sums on every body.
    constexpr size_t kRows = 9;
    for (const size_t k : {size_t{64}, size_t{65}, size_t{767}}) {
        std::vector<int16_t> a(kRows * k), w(kRows * k);
        Rng rng(31 + k);
        for (size_t i = 0; i < a.size(); ++i) {
            const bool ext = (i % k) % 32 < 2;
            a[i] = ext ? 32767 : static_cast<int16_t>(rng.uniformInt(9));
            w[i] = ext ? (i % 3 ? 32767 : -32767)
                       : static_cast<int16_t>(rng.uniformInt(9));
        }
        expectEveryBodyExact(a, w, k, 32, "extreme pairs");
    }
    EXPECT_EQ(magKBlock(127, 127), (INT32_MAX / (127 * 127)) / 32 * 32);
    EXPECT_EQ(magKBlock(6000, 6000), 32u);
    // Re-exec for the death test: a plain fork of this process, whose
    // pool threads ran the tests before, can hang under TSan.
    ::testing::GTEST_FLAG(death_test_style) = "threadsafe";
    EXPECT_DEATH(magKBlock(32767, 32767), "overflow an int32 sum");
}

TEST(MagDotBlock, EveryKBlockGivesTheSameSums)
{
    // Integer sums are associative: any legal K-block length gives
    // the same bits.
    constexpr size_t kRows = 9;
    const size_t k = 1000;
    Rng rng(5);
    std::vector<int16_t> a(kRows * k), w(kRows * k);
    for (int16_t &x : a)
        x = static_cast<int16_t>(static_cast<int>(rng.uniformInt(255)) - 127);
    for (int16_t &x : w)
        x = static_cast<int16_t>(static_cast<int>(rng.uniformInt(255)) - 127);
    for (const size_t kb : {size_t{32}, size_t{64}, size_t{96},
                            size_t{256}, size_t{992}, size_t{1024},
                            magKBlock(127, 127)})
        expectEveryBodyExact(a, w, k, kb, "kBlock=" + std::to_string(kb));
}

/**
 * Dictionaries whose outlier entries sit ~6700 grid steps out force
 * kBlock = 32: operands made of those outliers overflow an int32 sum
 * of 64 products. The engine, fused and unfused, under both splits
 * and several thread counts, must still equal the int64 grid oracle.
 */
TEST(MagKBlock, FarOutliersForceKBlock32AndStayExact)
{
    ExpDictionary exp(1.179, -0.977, 8);
    Quantizer quantizer(exp);
    Rng rng(404);
    // Profile: N(0, 1) plus one spike at +/-150 sigma-ish.
    const auto dict = [&](float spike) {
        Tensor t(16, 2048, rng.gaussianVector(16 * 2048, 0.0, 1.0));
        t.raw()[777] = spike;
        return quantizer.buildDictionary(t);
    };
    const TensorDictionary da = dict(150.0f);
    const TensorDictionary dw = dict(-150.0f);
    ASSERT_GT(da.maxGridMagnitude(), 6000);
    ASSERT_GT(dw.maxGridMagnitude(), 6000);

    const ThreadCountGuard thread_guard;
    for (const size_t n : {size_t{40}, size_t{768}}) {
        const size_t m = 6, k = 1000;
        // Mostly spikes: whole rows of far outliers, then Gaussian.
        Tensor ta(m, k, rng.gaussianVector(m * k, 0.0, 1.0));
        Tensor tw(n, k, rng.gaussianVector(n * k, 0.0, 1.0));
        for (size_t p = 0; p < k; ++p) {
            for (size_t i = 0; i < m; i += 2)
                ta.at(i, p) = 150.0f;
            for (size_t j = 0; j < n; j += 3)
                tw.at(j, p) = -150.0f;
        }
        const QuantizedTensor qa = quantizer.encode(ta, da);
        const QuantizedTensor qw = quantizer.encode(tw, dw);
        const GemmConstants ctx = gemmConstants(da, dw, k);
        ASSERT_EQ(ctx.kBlock, 32u);
        // Not vacuous: the first 64 products of row 0 x row 0 alone
        // leave int32.
        int64_t first64 = 0;
        for (size_t p = 0; p < 64; ++p)
            first64 += gridValueAt(qa, 0, p) * gridValueAt(qw, 0, p);
        ASSERT_GT(std::abs(first64), int64_t{INT32_MAX});

        const Tensor want = gridOracle(qa, qw);
        for (const size_t t : {size_t{1}, size_t{4}}) {
            setThreadCount(t);
            const std::string at = "n=" + std::to_string(n) +
                " threads=" + std::to_string(t);
            ASSERT_EQ(indexMatmulTransB(qa, qw).raw(), want.raw()) << at;
            ASSERT_EQ(indexMatmulTransBFused(qa, qw, IndexEngine::Mag,
                                             nullptr, nullptr,
                                             PlaneSet::Mag, true)
                          .dense.raw(),
                      want.raw())
                << at;
        }
    }
}

TEST(MagKBlock, OutlierBeyondInt16GridFailsSetUp)
{
    // One spike among 400k N(0, 1) values sits ~630 sigma out: past
    // 32767 grid steps, which the dictionary build refuses.
    ExpDictionary exp(1.179, -0.977, 8);
    Quantizer quantizer(exp);
    Rng rng(9);
    Tensor t(1, 400000, rng.gaussianVector(400000, 0.0, 1.0));
    t.raw()[12345] = 1.0e4f;
    ::testing::GTEST_FLAG(death_test_style) = "threadsafe";
    EXPECT_DEATH(quantizer.buildDictionary(t), "int16 mag plane");
}

TEST(WeightStationarySplit, RuleFollowsWeightPlaneSize)
{
    // Reduced-model weight sites (planes far below 1 MiB) and attention
    // act x act GEMMs keep row bands; every BERT-base weight site
    // splits weight-stationary.
    const ModelConfig r = reduced(bertBase(), 8);
    const ModelConfig b = bertBase();
    const size_t hd = b.headDim();
    for (const auto &nk : {std::make_pair(r.hidden, r.hidden),
                           std::make_pair(r.ffn, r.hidden),
                           std::make_pair(r.hidden, r.ffn)})
        EXPECT_FALSE(weightStationarySplit(nk.first, nk.second))
            << "reduced n=" << nk.first << " k=" << nk.second;
    for (const auto &nk : {std::make_pair(b.hidden, b.hidden),
                           std::make_pair(b.ffn, b.hidden),
                           std::make_pair(b.hidden, b.ffn)})
        EXPECT_TRUE(weightStationarySplit(nk.first, nk.second))
            << "bert n=" << nk.first << " k=" << nk.second;
    for (const size_t seq : {1, 4, 16, 128, 512}) {
        EXPECT_FALSE(weightStationarySplit(seq, hd));
        EXPECT_FALSE(weightStationarySplit(hd, seq));
    }

    // A 1-thread pool runs a weight-stationary GEMM without submitting
    // a loop to the executor; a 4-thread pool fans it out.
    ExpDictionary exp(1.179, -0.977, 8);
    Quantizer quantizer(exp);
    Rng rng(31);
    Tensor ta(2, b.hidden, rng.gaussianVector(2 * b.hidden, 0.0, 1.0));
    Tensor tw(b.hidden, b.hidden,
              rng.gaussianVector(b.hidden * b.hidden, 0.0, 0.05));
    const auto qa = quantizer.encode(ta, quantizer.buildDictionary(ta));
    const auto qw = quantizer.encode(tw, quantizer.buildDictionary(tw));
    const ThreadCountGuard thread_guard;
    const Lane lane = Lane::acquire();
    for (const size_t t : {size_t{1}, size_t{4}}) {
        setThreadCount(t);
        const uint64_t before = laneStats(lane).loops;
        indexMatmulTransBFused(qa, qw, IndexEngine::Mag, nullptr,
                               nullptr, PlaneSet::Bytes, true, nullptr,
                               nullptr, lane);
        const uint64_t loops = laneStats(lane).loops - before;
        if (t == 1) {
            EXPECT_EQ(loops, 0u);
        } else {
            EXPECT_GT(loops, 0u);
        }
    }
}

/**
 * indexMatmulTransBFused under both splits — BERT-base site shapes
 * (weight-stationary, plus a k off the 16-lane grid) and a
 * reduced-model shape (row bands) — against a reference product
 * followed by the epilogue and encodeToPlanes: dense values, output
 * planes, sidecars, fold sums and pair stats bit for bit. The mag
 * reference is the int64 grid oracle; the count reference is the
 * unfused counting GEMM on one thread, so the count arm pins its
 * invariance across splits, threads and lanes. Row counts cover
 * decode steps, the 4-row blocks and their tails. Each (shape, rows,
 * engine) runs 1, 2 and 4 threads x default and acquired lanes,
 * rotating through the three output modes (planes + epilogue +
 * dense, planes + epilogue, dense only).
 */
TEST(WeightStationaryFused, BitIdenticalToReferenceThenEncode)
{
    ExpDictionary exp(1.179, -0.977, 8);
    Quantizer quantizer(exp);
    const ThreadCountGuard thread_guard;
    const FusedRowEpilogue epi = [](size_t i, float *vals, size_t n) {
        for (size_t j = 0; j < n; ++j)
            vals[j] = vals[j] * 0.75f + 0.01f * static_cast<float>(i % 3) -
                0.002f * static_cast<float>(j % 5);
    };
    const auto sprinkled = [](Rng &rng, size_t rows, size_t cols,
                              double stddev) {
        Tensor t(rows, cols, rng.gaussianVector(rows * cols, 0.0, stddev));
        for (size_t i = 0; i < t.size(); i += 97)
            t.raw()[i] = static_cast<float>((i % 2 ? 9.0 : -8.0) * stddev);
        return t;
    };

    struct NK
    {
        size_t n, k;
    };
    size_t ref_outliers = 0;
    for (const NK s : {NK{768, 768}, NK{3072, 768}, NK{768, 3072},
                       NK{768, 776}, NK{96, 384}}) {
        Rng rng(100 + s.n + s.k);
        const Tensor tw = sprinkled(rng, s.n, s.k, 0.05);
        const auto qw = quantizer.encode(tw, quantizer.buildDictionary(tw));
        for (const size_t m : {1, 2, 3, 4, 5, 7, 8, 15, 33}) {
            const Tensor ta = sprinkled(rng, m, s.k, 1.0);
            const auto qa =
                quantizer.encode(ta, quantizer.buildDictionary(ta));
            for (const IndexEngine e :
                 {IndexEngine::Mag, IndexEngine::Count}) {
                const std::string what = std::string("engine=") +
                    std::to_string(static_cast<int>(e)) +
                    " m=" + std::to_string(m) +
                    " n=" + std::to_string(s.n) +
                    " k=" + std::to_string(s.k);
                setThreadCount(1);
                IndexMatmulStats ref_stats;
                const Tensor unfused = e == IndexEngine::Mag
                    ? indexMatmulTransB(qa, qw, &ref_stats)
                    : indexMatmulTransBCounting(qa, qw, &ref_stats);
                const Tensor ref =
                    e == IndexEngine::Mag ? gridOracle(qa, qw) : unfused;
                ASSERT_EQ(unfused.raw(), ref.raw()) << what;
                Tensor ref_epi = ref;
                for (size_t i = 0; i < m; ++i)
                    epi(i, ref_epi.row(i), s.n);
                const TensorDictionary out_dict =
                    quantizer.buildDictionary(ref_epi);
                const auto ref_q = quantizer.encodeToPlanes(
                    ref_epi, out_dict, PlaneSet::All);
                const CodePlanes &rp = ref_q.planes();
                ref_outliers += rp.outliers.size();

                size_t config = 0;
                for (const size_t t : {size_t{1}, size_t{2}, size_t{4}}) {
                    setThreadCount(t);
                    for (const Lane lane : {Lane{}, Lane::acquire()}) {
                        const size_t mode = config++ % 3;
                        const bool planes = mode != 2;
                        const bool dense = mode != 1;
                        const std::string at = what +
                            " threads=" + std::to_string(t) +
                            " lane=" + std::to_string(lane.id()) +
                            " mode=" + std::to_string(mode);
                        IndexMatmulStats stats;
                        const FusedGemmOut out = indexMatmulTransBFused(
                            qa, qw, e, planes ? epi : nullptr,
                            planes ? &out_dict : nullptr, PlaneSet::All,
                            dense, nullptr, &stats, lane);
                        EXPECT_EQ(stats.gaussianPairs,
                                  ref_stats.gaussianPairs)
                            << at;
                        EXPECT_EQ(stats.outlierPairs,
                                  ref_stats.outlierPairs)
                            << at;
                        if (dense) {
                            ASSERT_EQ(out.dense.raw(),
                                      planes ? ref_epi.raw() : ref.raw())
                                << at;
                        }
                        if (!planes)
                            continue;
                        const CodePlanes &op = out.planes.planes();
                        ASSERT_EQ(op.index, rp.index) << at;
                        ASSERT_EQ(op.theta, rp.theta) << at;
                        ASSERT_EQ(op.mag, rp.mag) << at;
                        ASSERT_EQ(op.rowStart, rp.rowStart) << at;
                        ASSERT_EQ(op.outliers.size(), rp.outliers.size())
                            << at;
                        for (size_t x = 0; x < rp.outliers.size(); ++x) {
                            ASSERT_EQ(op.outliers[x].col,
                                      rp.outliers[x].col)
                                << at;
                            ASSERT_EQ(op.outliers[x].index,
                                      rp.outliers[x].index)
                                << at;
                            ASSERT_EQ(op.outliers[x].value,
                                      rp.outliers[x].value)
                                << at;
                        }
                        ASSERT_EQ(op.magRowSum, rp.magRowSum) << at;
                        ASSERT_EQ(op.byteRowSum, rp.byteRowSum) << at;
                    }
                }
            }
        }
    }
    // The output sidecar path was exercised, not just the planes.
    EXPECT_GT(ref_outliers, 0u);
}

/**
 * The mag engine folds every outlier into its dense dot: an outlier
 * slot of the mag plane holds the centroid's grid value. Held here
 * exactly to the int64 grid oracle, and within the grid's rounding
 * of the decode-then-multiply product, neither of which reads a
 * plane, on operands whose outliers sit at known columns — only A
 * has one, only W has one, or both do — with each operand's planes
 * built both ways (derived from codes, and encoded straight from
 * floats), under both fused splits and the unfused engine. The pair
 * stats are held to a brute-force count over the codes.
 */
TEST(MagOutlierFold, MatchesDecodedOracleAtForcedOutlierColumns)
{
    ExpDictionary exp(1.179, -0.977, 8);
    Quantizer quantizer(exp);
    const ThreadCountGuard thread_guard;
    setThreadCount(4);

    struct NK
    {
        size_t n, k;
        bool weightStationary;
    };
    // 768 x 768 is the smallest of these planes at or above the 1 MiB
    // weight-stationary cut-off at 2 B per mag element.
    for (const NK s : {NK{40, 200, false}, NK{768, 768, true},
                       NK{40, 520, false}}) {
        ASSERT_EQ(weightStationarySplit(s.n, s.k), s.weightStationary);
        const size_t m = 6;
        // One column in 40 of each kind: few enough that the forced
        // values sit far beyond each dictionary's outlier cut.
        const auto a_only = [](size_t c) { return c % 40 == 3; };
        const auto w_only = [](size_t c) { return c % 40 == 16; };
        const auto both = [](size_t c) { return c % 40 == 29; };
        Rng rng(77 + s.n);
        Tensor ta(m, s.k, rng.gaussianVector(m * s.k, 0.3, 1.0));
        Tensor tw(s.n, s.k, rng.gaussianVector(s.n * s.k, -0.01, 0.05));
        for (size_t c = 0; c < s.k; ++c) {
            for (size_t i = 0; i < m; ++i)
                if (a_only(c) || both(c))
                    ta.at(i, c) = 0.3f + ((i + c) % 2 ? 20.0f : -23.0f);
            for (size_t j = 0; j < s.n; ++j)
                if (w_only(c) || both(c))
                    tw.at(j, c) =
                        -0.01f + ((j + c) % 3 ? 1.0f : -1.2f);
        }
        const TensorDictionary da = quantizer.buildDictionary(ta);
        const TensorDictionary dw = quantizer.buildDictionary(tw);

        for (const bool encoded : {false, true}) {
            const auto build = [&](const Tensor &t,
                                   const TensorDictionary &d) {
                return encoded
                    ? quantizer.encodeToPlanes(t, d, PlaneSet::Mag)
                    : quantizer.encode(t, d);
            };
            const QuantizedTensor qa = build(ta, da);
            const QuantizedTensor qw = build(tw, dw);
            const std::string what = "n=" + std::to_string(s.n) +
                " k=" + std::to_string(s.k) +
                (encoded ? " encoded" : " derived");

            // The forced columns are outliers exactly where intended,
            // and the rest of the pairs give the brute-force count.
            uint64_t want_ot = 0;
            for (size_t i = 0; i < m; ++i) {
                for (size_t c = 0; c < s.k; ++c) {
                    ASSERT_EQ(qa.at(i, c).isOutlier(),
                              a_only(c) || both(c))
                        << what << " a(" << i << "," << c << ")";
                }
            }
            for (size_t j = 0; j < s.n; ++j) {
                for (size_t c = 0; c < s.k; ++c) {
                    ASSERT_EQ(qw.at(j, c).isOutlier(),
                              w_only(c) || both(c))
                        << what << " w(" << j << "," << c << ")";
                }
            }
            for (size_t i = 0; i < m; ++i)
                for (size_t j = 0; j < s.n; ++j)
                    for (size_t c = 0; c < s.k; ++c)
                        want_ot += qa.at(i, c).isOutlier() ||
                            qw.at(j, c).isOutlier();

            const Tensor exact = gridOracle(qa, qw);
            const GridBound bound = gridBound(qa, qw);
            const auto check = [&](const Tensor &got,
                                   const IndexMatmulStats &st,
                                   const char *path) {
                ASSERT_EQ(got.raw(), exact.raw()) << what << " " << path;
                expectWithinGridBound(got, bound, what + " " + path);
                EXPECT_EQ(st.outlierPairs.load(), want_ot)
                    << what << " " << path;
                EXPECT_EQ(st.gaussianPairs.load(),
                          static_cast<uint64_t>(m) * s.n * s.k - want_ot)
                    << what << " " << path;
            };
            IndexMatmulStats fused_stats, unfused_stats;
            check(indexMatmulTransBFused(qa, qw, IndexEngine::Mag,
                                         nullptr, nullptr, PlaneSet::Mag,
                                         true, nullptr, &fused_stats)
                      .dense,
                  fused_stats, "fused");
            check(indexMatmulTransB(qa, qw, &unfused_stats),
                  unfused_stats, "unfused");
        }
    }
}

} // anonymous namespace
} // namespace mokey
