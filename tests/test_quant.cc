/**
 * @file
 * Tests for golden/exponential/per-tensor dictionaries, the
 * quantizer, and the DRAM memory codec.
 */

#include <algorithm>
#include <cmath>
#include <limits>
#include <thread>
#include <utility>
#include <gtest/gtest.h>

#include "common/parallel.hh"
#include "common/rng.hh"
#include "common/simd.hh"
#include "common/stats.hh"
#include "quant/exp_dictionary.hh"
#include "quant/golden_dictionary.hh"
#include "quant/memory_codec.hh"
#include "quant/quantizer.hh"
#include "test_util.hh"

namespace mokey
{
namespace
{

GoldenDictionaryConfig
smallCfg()
{
    GoldenDictionaryConfig cfg;
    cfg.samples = 20000;
    cfg.repeats = 3;
    return cfg;
}

TEST(GoldenDictionary, SizeAndOrder)
{
    const auto gd = GoldenDictionary::generate(smallCfg());
    EXPECT_EQ(gd.size(), 16u);
    EXPECT_TRUE(std::is_sorted(gd.centroids().begin(),
                               gd.centroids().end()));
    EXPECT_EQ(gd.half().size(), 8u);
}

TEST(GoldenDictionary, DeterministicInSeed)
{
    const auto a = GoldenDictionary::generate(smallCfg());
    const auto b = GoldenDictionary::generate(smallCfg());
    for (size_t i = 0; i < a.size(); ++i)
        EXPECT_DOUBLE_EQ(a.centroids()[i], b.centroids()[i]);
}

TEST(GoldenDictionary, HalfMagnitudesCoverGaussianRange)
{
    const auto gd = GoldenDictionary::generate(smallCfg());
    // Innermost magnitude near 0, outermost around 2.1-2.4 sigma for
    // a 16-entry dictionary over N(0,1).
    EXPECT_LT(gd.half().front(), 0.3);
    EXPECT_GT(gd.half().back(), 1.8);
    EXPECT_LT(gd.half().back(), 2.8);
}

TEST(GoldenDictionary, FromCentroidsSymmetrizes)
{
    const auto gd = GoldenDictionary::fromCentroids(
        {-4.0, -3.0, -2.0, -1.0, 1.0, 2.0, 3.0, 4.0});
    ASSERT_EQ(gd.half().size(), 4u);
    EXPECT_DOUBLE_EQ(gd.half()[0], 1.0);
    EXPECT_DOUBLE_EQ(gd.half()[3], 4.0);
}

TEST(GoldenDictionary, AveragingTightensSymmetry)
{
    GoldenDictionaryConfig one = smallCfg();
    one.repeats = 1;
    GoldenDictionaryConfig many = smallCfg();
    many.repeats = 8;

    auto asym = [](const GoldenDictionary &gd) {
        double worst = 0.0;
        for (size_t j = 0; j < 8; ++j) {
            const double pos = gd.centroids()[8 + j];
            const double neg = -gd.centroids()[7 - j];
            worst = std::max(worst, std::abs(pos - neg));
        }
        return worst;
    };
    EXPECT_LE(asym(GoldenDictionary::generate(many)),
              asym(GoldenDictionary::generate(one)) + 1e-9);
}

TEST(ExpDictionary, FitNearPaperValues)
{
    // Paper: a = 1.179, b = -0.977 for the 50 k-sample GD. Our
    // exact 1-D Ward clustering lands at a ~= 1.205, b ~= -0.84 —
    // the same curve family with slightly different bin placement
    // (see EXPERIMENTS.md).
    GoldenDictionaryConfig cfg; // full-size generation
    const auto gd = GoldenDictionary::generate(cfg);
    const auto exp = ExpDictionary::fit(gd);
    EXPECT_NEAR(exp.a(), 1.179, 0.05);
    EXPECT_NEAR(exp.b(), -0.977, 0.15);
}

TEST(ExpDictionary, MagnitudesPositiveAndIncreasing)
{
    const ExpDictionary exp(1.179, -0.977, 8);
    for (size_t i = 0; i < 8; ++i) {
        EXPECT_GT(exp.magnitude(i), 0.0);
        if (i)
            EXPECT_GT(exp.magnitude(i), exp.magnitude(i - 1));
    }
}

TEST(ExpDictionary, PowerTable)
{
    const ExpDictionary exp(1.2, -0.9, 8);
    EXPECT_EQ(exp.powerCount(), 15u);
    EXPECT_DOUBLE_EQ(exp.power(0), 1.0);
    EXPECT_NEAR(exp.power(14), std::pow(1.2, 14), 1e-9);
}

TEST(ExpDictionary, NearestIndexBruteForce)
{
    const ExpDictionary exp(1.179, -0.977, 8);
    Rng rng(91);
    for (int t = 0; t < 2000; ++t) {
        const double u = rng.uniform(0.0, 3.0);
        const size_t fast = exp.nearestIndex(u);
        size_t best = 0;
        double bd = 1e300;
        for (size_t i = 0; i < 8; ++i) {
            const double d = std::abs(exp.magnitude(i) - u);
            if (d < bd) {
                bd = d;
                best = i;
            }
        }
        EXPECT_EQ(fast, best) << "u=" << u;
    }
}

class QuantFixture : public ::testing::Test
{
  protected:
    QuantFixture()
        : exp(1.179, -0.977, 8), quantizer(exp)
    {
    }

    ExpDictionary exp;
    Quantizer quantizer;
};

TEST_F(QuantFixture, DictionaryRecoversMoments)
{
    Rng rng(101);
    Tensor t(64, 64, rng.gaussianVector(4096, 0.5, 0.2));
    const auto dict = quantizer.buildDictionary(t);
    EXPECT_NEAR(dict.mean(), 0.5, 0.02);
    EXPECT_NEAR(dict.scale(), 0.2, 0.02);
}

TEST_F(QuantFixture, GaussianOutlierRateNearPaper)
{
    // Pure Gaussian data: the cut sits around 2.4 sigma, so about
    // 1.5-2 % of values land in the outlier dictionary — the paper's
    // weight outlier rate.
    Rng rng(103);
    Tensor t(128, 128, rng.gaussianVector(16384, 0.0, 1.0));
    const auto dict = quantizer.buildDictionary(t);
    const auto q = quantizer.encode(t, dict);
    EXPECT_GT(q.outlierFraction(), 0.004);
    EXPECT_LT(q.outlierFraction(), 0.035);
}

TEST_F(QuantFixture, HeavyTailRaisesOutlierRate)
{
    // Activation-like data: Gaussian bulk plus a wider tail
    // component. The outlier rate should rise but stay small.
    Rng rng(107);
    std::vector<float> v = rng.gaussianVector(16000, 0.0, 1.0);
    for (int i = 0; i < 600; ++i)
        v.push_back(static_cast<float>(rng.gaussian(0.0, 6.0)));
    Tensor t(1, v.size(), v);
    const auto dict = quantizer.buildDictionary(t);
    const auto q = quantizer.encode(t, dict);
    EXPECT_GT(q.outlierFraction(), 0.02);
    EXPECT_LT(q.outlierFraction(), 0.09);
}

TEST_F(QuantFixture, EncodeDecodeBoundedError)
{
    Rng rng(109);
    Tensor t(32, 32, rng.gaussianVector(1024, -1.0, 0.7));
    const auto dict = quantizer.buildDictionary(t);
    const auto q = quantizer.encode(t, dict);
    const Tensor back = q.decode();
    // Worst Gaussian bin half-width in value units.
    double worst_gap = 0.0;
    for (size_t i = 0; i + 1 < 8; ++i)
        worst_gap = std::max(worst_gap,
                             exp.magnitude(i + 1) - exp.magnitude(i));
    const double bound = 0.7 * worst_gap; // half-gap x sigma, slack 40%
    for (size_t i = 0; i < t.size(); ++i) {
        const double v = t.raw()[i];
        if (!dict.isOutlierValue(v)) {
            EXPECT_NEAR(back.raw()[i], v, bound)
                << "element " << i;
        }
    }
}

TEST_F(QuantFixture, OutlierValuesUseOutlierDict)
{
    Rng rng(113);
    std::vector<float> v = rng.gaussianVector(4000, 0.0, 1.0);
    v.push_back(9.0f);
    v.push_back(-8.5f);
    Tensor t(1, v.size(), v);
    const auto dict = quantizer.buildDictionary(t);
    const auto q = quantizer.encode(t, dict);
    EXPECT_TRUE(q.at(0, 4000).isOutlier());
    EXPECT_TRUE(q.at(0, 4001).isOutlier());
    // Extreme outliers decode to something in their neighbourhood.
    EXPECT_NEAR(q.decodeAt(0, 4000), 9.0, 2.0);
    EXPECT_NEAR(q.decodeAt(0, 4001), -8.5, 2.0);
}

TEST_F(QuantFixture, ComparatorLadderPicksGlobalNearest)
{
    Rng rng(127);
    std::vector<float> v = rng.gaussianVector(5000, 0.0, 1.0);
    for (int i = 0; i < 150; ++i)
        v.push_back(static_cast<float>(rng.gaussian(0.0, 5.0)));
    Tensor t(1, v.size(), v);
    const auto dict = quantizer.buildDictionary(t);

    for (int trial = 0; trial < 3000; ++trial) {
        const double x = rng.uniform(-8.0, 8.0);
        const QCode code = quantizer.encodeComparatorLadder(x, dict);
        const double got = Quantizer::decode(code, dict);
        // Brute-force nearest over the full ladder.
        double best = 1e300;
        for (const auto &e : dict.ladder())
            best = std::min(best, std::abs(e.value - x));
        EXPECT_NEAR(std::abs(got - x), best, 1e-9) << "x=" << x;
    }
}

TEST_F(QuantFixture, LadderSortedAndComplete)
{
    Rng rng(131);
    Tensor t(1, 4096, rng.gaussianVector(4096, 0.0, 2.0));
    const auto dict = quantizer.buildDictionary(t);
    const auto &lad = dict.ladder();
    EXPECT_GE(lad.size(), 16u);
    for (size_t i = 0; i + 1 < lad.size(); ++i)
        EXPECT_LE(lad[i].value, lad[i + 1].value);
    // Every Gaussian (sign, index) pair appears exactly once.
    int count[2][8] = {};
    for (const auto &e : lad) {
        if (!e.isOutlier)
            ++count[e.negative ? 1 : 0][e.index];
    }
    for (int s = 0; s < 2; ++s)
        for (int i = 0; i < 8; ++i)
            EXPECT_EQ(count[s][i], 1);
}

TEST_F(QuantFixture, MetadataBitsTiny)
{
    Rng rng(137);
    Tensor t(256, 256, rng.gaussianVector(65536, 0.0, 1.0));
    const auto dict = quantizer.buildDictionary(t);
    // Paper: metadata "pales in comparison" with the tensor.
    EXPECT_LT(dict.metadataBits(), 16u * 16 + 16 * 16 + 4 * 16 + 1);
    EXPECT_LT(static_cast<double>(dict.metadataBits()),
              0.005 * 4.0 * 65536);
}

TEST(QCodeBits, PackingRoundTrip)
{
    for (int neg = 0; neg < 2; ++neg) {
        for (uint8_t idx = 0; idx < 8; ++idx) {
            const QCode q = QCode::gaussian(neg, idx);
            EXPECT_FALSE(q.isOutlier());
            EXPECT_EQ(q.negative(), neg == 1);
            EXPECT_EQ(q.index(), idx);
            EXPECT_EQ(q.theta(), neg ? -1 : 1);
        }
    }
    for (uint8_t idx = 0; idx < 16; ++idx) {
        const QCode q = QCode::outlier(idx);
        EXPECT_TRUE(q.isOutlier());
        EXPECT_EQ(q.outlierIndex(), idx);
    }
}

TEST(BitStream, RoundTripMixedWidths)
{
    BitWriter w;
    w.put(0b101, 3);
    w.put(0x3ff, 10);
    w.put(1, 1);
    w.put(0xdead, 16);
    BitReader r(w.bytes());
    EXPECT_EQ(r.get(3), 0b101u);
    EXPECT_EQ(r.get(10), 0x3ffu);
    EXPECT_EQ(r.get(1), 1u);
    EXPECT_EQ(r.get(16), 0xdeadu);
}

TEST(BitStream, MasksHighBits)
{
    BitWriter w;
    w.put(0xff, 4); // only low 4 bits kept
    BitReader r(w.bytes());
    EXPECT_EQ(r.get(4), 0xfu);
}

class CodecFixture : public ::testing::Test
{
  protected:
    CodecFixture() : exp(1.179, -0.977, 8), quantizer(exp) {}

    QuantizedTensor
    makeQuantized(size_t rows, size_t cols, uint64_t seed,
                  double tail_frac = 0.02)
    {
        Rng rng(seed);
        std::vector<float> v =
            rng.gaussianVector(rows * cols, 0.0, 1.0);
        const size_t n_tail =
            static_cast<size_t>(tail_frac *
                                static_cast<double>(v.size()));
        for (size_t i = 0; i < n_tail; ++i)
            v[rng.uniformInt(v.size())] =
                static_cast<float>(rng.gaussian(0.0, 5.0));
        Tensor t(rows, cols, v);
        const auto dict = quantizer.buildDictionary(t);
        return quantizer.encode(t, dict);
    }

    ExpDictionary exp;
    Quantizer quantizer;
};

TEST_F(CodecFixture, PackUnpackIdentity)
{
    const auto q = makeQuantized(37, 53, 139); // non-multiple of 64
    const auto packed = packTensor(q);
    const auto back = unpackTensor(packed, q.dictionary());
    ASSERT_EQ(back.size(), q.size());
    for (size_t i = 0; i < q.size(); ++i)
        EXPECT_EQ(back.raw()[i].raw, q.raw()[i].raw) << "i=" << i;
}

TEST_F(CodecFixture, PackedSizeMatchesFormula)
{
    const auto q = makeQuantized(64, 64, 149);
    const auto packed = packTensor(q);
    EXPECT_EQ(packed.count, 4096u);
    // Value stream: exactly 4 b per value.
    EXPECT_EQ(packed.values.size(), 4096u / 2);
    // Pointer stream: 7 b per group + 6 b per outlier, byte-padded.
    size_t ot = 0;
    for (const auto c : q.raw())
        ot += c.isOutlier();
    const size_t expect_bits = (4096 / 64) * 7 + ot * 6;
    EXPECT_EQ(packed.otPointers.size(), (expect_bits + 7) / 8);
}

TEST_F(CodecFixture, CompressionRatioNearFourVsFp16)
{
    const auto q = makeQuantized(128, 128, 151);
    const auto packed = packTensor(q);
    const double ratio = packed.compressionRatio(16);
    // 16 b -> ~4.1 b/value with pointers: just under 4x.
    EXPECT_GT(ratio, 3.4);
    EXPECT_LT(ratio, 4.0);
}

TEST_F(CodecFixture, FootprintBitsMatchesPackedTensor)
{
    const auto q = makeQuantized(100, 64, 157);
    const auto packed = packTensor(q);
    // packedFootprintBits is the analytic formula; the container
    // only adds byte padding.
    EXPECT_LE(q.packedFootprintBits(), packed.totalBits());
    EXPECT_LT(packed.totalBits() - q.packedFootprintBits(), 16u);
}

TEST_F(CodecFixture, AllGaussianGroupHasEmptyPointers)
{
    // Force a tensor with no outliers at all.
    Rng rng(163);
    Tensor t(1, 128, rng.gaussianVector(128, 0.0, 1.0));
    auto values = t.raw();
    const auto dict = quantizer.buildDictionary(t);
    auto q = quantizer.encode(t, dict);
    for (auto &c : q.raw()) {
        if (c.isOutlier())
            c = QCode::gaussian(false, 3);
    }
    const auto packed = packTensor(q);
    // 2 groups x 7 bits = 14 bits -> 2 bytes.
    EXPECT_EQ(packed.otPointers.size(), 2u);
    const auto back = unpackTensor(packed, dict);
    for (size_t i = 0; i < q.size(); ++i)
        EXPECT_FALSE(back.raw()[i].isOutlier());
}

TEST_F(CodecFixture, RoundTripRandomShapesAndOutlierDensities)
{
    // Property: pack/unpack is the identity on the 5 b codes for any
    // shape (group-aligned or not) and any outlier density from 0 %
    // to 100 % — including the corner rows the encoder never emits
    // in practice: rows that are entirely outliers and rows with
    // none while the rest of the tensor has plenty.
    Rng rng(20260730);
    const auto dict =
        makeQuantized(4, 64, 20260731, 0.05).dictionary();

    const double densities[] = {0.0, 0.02, 0.37, 1.0};
    for (int iter = 0; iter < 32; ++iter) {
        const size_t rows = 1 + rng.uniformInt(9);
        const size_t cols = 1 + rng.uniformInt(131);
        const double density = densities[iter % 4];

        QuantizedTensor q(rows, cols, dict);
        size_t outliers = 0;
        for (size_t r = 0; r < rows; ++r) {
            // First row all-outlier, second row zero-outlier, rest
            // at the sweep density.
            const double row_density =
                (r == 0 && rows > 2) ? 1.0 :
                (r == 1 && rows > 2) ? 0.0 : density;
            for (size_t c = 0; c < cols; ++c) {
                QCode code;
                if (rng.uniform() < row_density) {
                    code = QCode::outlier(static_cast<uint8_t>(
                        rng.uniformInt(16)));
                    ++outliers;
                } else {
                    code = QCode::gaussian(
                        rng.uniform() < 0.5,
                        static_cast<uint8_t>(rng.uniformInt(8)));
                }
                q.at(r, c) = code;
            }
        }

        const auto packed = packTensor(q);
        EXPECT_EQ(packed.count, rows * cols);
        // Dense stream: exactly 4 b per value, byte-padded.
        EXPECT_EQ(packed.values.size(), (rows * cols * 4 + 7) / 8);
        // Pointer stream: 7 b per group + 6 b per outlier.
        const size_t groups = (rows * cols + 63) / 64;
        EXPECT_EQ(packed.otPointers.size(),
                  (groups * 7 + outliers * 6 + 7) / 8);

        const auto back = unpackTensor(packed, dict);
        ASSERT_EQ(back.rows(), rows);
        ASSERT_EQ(back.cols(), cols);
        for (size_t i = 0; i < q.size(); ++i)
            ASSERT_EQ(back.raw()[i].raw, q.raw()[i].raw)
                << "iter=" << iter << " i=" << i;
    }
}

TEST_F(CodecFixture, RoundTripFullyOutlierGroup)
{
    // A full group of 64 outliers exercises the widest count field
    // (64 needs all 7 bits of the group header).
    const auto dict =
        makeQuantized(2, 64, 20260733, 0.05).dictionary();
    QuantizedTensor q(2, 64, dict);
    for (size_t c = 0; c < 64; ++c) {
        q.at(0, c) = QCode::outlier(static_cast<uint8_t>(c % 16));
        q.at(1, c) = QCode::gaussian(c % 2 == 0,
                                     static_cast<uint8_t>(c % 8));
    }
    const auto packed = packTensor(q);
    const auto back = unpackTensor(packed, dict);
    for (size_t i = 0; i < q.size(); ++i)
        EXPECT_EQ(back.raw()[i].raw, q.raw()[i].raw) << "i=" << i;
}

TEST_F(CodecFixture, ParallelCodecBitIdenticalToScalar)
{
    // The band-parallel codec must reproduce the sequential bit
    // streams *exactly* — same bytes, same padding — for every
    // thread count and lane, on tensors large enough for many bands
    // (70x997 = 1091 groups) and small enough for the inline path.
    const ThreadCountGuard thread_guard;
    for (const auto &shape :
         {std::pair<size_t, size_t>{70, 997},
          std::pair<size_t, size_t>{3, 40},
          std::pair<size_t, size_t>{129, 64}}) {
        const auto q = makeQuantized(shape.first, shape.second,
                                     7000 + shape.first, 0.08);
        const auto scalar = packTensorScalar(q);

        for (const size_t t : {1u, 2u, 5u}) {
            setThreadCount(t);
            for (const Lane lane : {Lane{}, Lane::acquire()}) {
                const auto par = packTensor(q, lane);
                EXPECT_EQ(par.count, scalar.count);
                ASSERT_EQ(par.values, scalar.values)
                    << "rows=" << shape.first << " threads=" << t;
                ASSERT_EQ(par.otPointers, scalar.otPointers)
                    << "rows=" << shape.first << " threads=" << t;

                const auto seq_back =
                    unpackTensorScalar(scalar, q.dictionary());
                const auto par_back =
                    unpackTensor(scalar, q.dictionary(), lane);
                ASSERT_EQ(par_back.size(), q.size());
                for (size_t i = 0; i < q.size(); ++i) {
                    ASSERT_EQ(par_back.raw()[i].raw,
                              seq_back.raw()[i].raw)
                        << "i=" << i << " threads=" << t;
                    ASSERT_EQ(par_back.raw()[i].raw, q.raw()[i].raw)
                        << "i=" << i << " threads=" << t;
                }
            }
        }
    }
}

TEST_F(CodecFixture, ParallelCodecHandlesDenseOutliers)
{
    // Outlier-heavy streams make the pointer stream long and oddly
    // aligned, stressing the bit-level band stitch and the prescan.
    const auto dict = makeQuantized(4, 64, 9100, 0.05).dictionary();
    Rng rng(9101);
    QuantizedTensor q(64, 150, dict); // 9600 codes, 150 groups
    for (size_t r = 0; r < q.rows(); ++r)
        for (size_t c = 0; c < q.cols(); ++c)
            q.at(r, c) = rng.uniform() < 0.45
                ? QCode::outlier(
                      static_cast<uint8_t>(rng.uniformInt(16)))
                : QCode::gaussian(rng.uniform() < 0.5,
                                  static_cast<uint8_t>(
                                      rng.uniformInt(8)));

    const auto scalar = packTensorScalar(q);
    const auto par = packTensor(q);
    ASSERT_EQ(par.values, scalar.values);
    ASSERT_EQ(par.otPointers, scalar.otPointers);
    const auto back = unpackTensor(par, dict);
    for (size_t i = 0; i < q.size(); ++i)
        ASSERT_EQ(back.raw()[i].raw, q.raw()[i].raw) << "i=" << i;
}

// ---- CodePlanes plane sets ------------------------------------------

TEST_F(CodecFixture, BytePlanesBuildWithoutMag)
{
    // The counting engine's contract: byte planes on demand, never
    // paying for (or keeping) the 2 B/element mag plane.
    const QuantizedTensor q = makeQuantized(24, 96, 515, 0.05);
    const QuantizedTensor &cq = q;

    const CodePlanes &p = cq.planes(PlaneSet::Bytes);
    EXPECT_EQ(p.index.size(), q.size());
    EXPECT_EQ(p.theta.size(), q.size());
    EXPECT_TRUE(p.mag.empty());

    PlanesFootprint f = q.planesFootprint();
    EXPECT_TRUE(f.resident);
    EXPECT_TRUE(f.bytesResident);
    EXPECT_FALSE(f.magResident);
    // 2 B of planes per code byte plus sidecars: nowhere near the
    // 10x of the full view.
    EXPECT_LT(f.expansionRatio(), 4.0);

    // Outlier slots follow the zero-index/zero-sign convention the
    // branch-free counting loop relies on.
    size_t outliers = 0;
    for (size_t r = 0; r < q.rows(); ++r) {
        for (size_t c = 0; c < q.cols(); ++c) {
            if (cq.at(r, c).isOutlier()) {
                EXPECT_EQ(p.indexRow(r)[c], 0);
                EXPECT_EQ(p.thetaRow(r)[c], 0);
                ++outliers;
            }
        }
    }
    EXPECT_GT(outliers, 0u);

    // Requesting the mag plane upgrades to the union without losing
    // the byte planes.
    const CodePlanes &up = cq.planes(PlaneSet::Mag);
    EXPECT_EQ(up.mag.size(), q.size());
    EXPECT_EQ(up.index.size(), q.size());
    f = q.planesFootprint();
    EXPECT_TRUE(f.bytesResident);
    EXPECT_TRUE(f.magResident);
    // 1 + 1 + kMagElemBytes plane bytes per 1 B code, plus sidecars.
    EXPECT_GT(f.expansionRatio(), 1.0 + kMagElemBytes);
}

TEST_F(CodecFixture, MagPlanesBuildWithoutBytes)
{
    const QuantizedTensor q = makeQuantized(8, 64, 517, 0.03);
    q.planes(PlaneSet::Mag);
    const PlanesFootprint f = q.planesFootprint();
    EXPECT_TRUE(f.magResident);
    EXPECT_FALSE(f.bytesResident);
    EXPECT_GT(f.expansionRatio(), kMagElemBytes - 1.0);
}

TEST_F(CodecFixture, UpgradeRetainsDisplacedViewUntilRepin)
{
    // A plane-set upgrade keeps the displaced view alive so
    // outstanding planes() references stay valid; the footprint
    // must report that retained memory, and an explicit unpin+repin
    // (the engine-switch recipe) must reclaim it.
    const QuantizedTensor q = makeQuantized(16, 64, 519, 0.03);
    q.pinPlanes(PlaneSet::Mag);
    EXPECT_EQ(q.planesFootprint().retiredBytes, 0u);

    q.planes(PlaneSet::Bytes); // upgrade: displaces the mag-only view
    PlanesFootprint f = q.planesFootprint();
    EXPECT_GT(f.retiredBytes, 0u);
    EXPECT_TRUE(f.bytesResident);
    EXPECT_TRUE(f.magResident);

    q.unpinPlanes();
    q.pinPlanes(PlaneSet::Bytes);
    f = q.planesFootprint();
    EXPECT_EQ(f.retiredBytes, 0u);
    EXPECT_TRUE(f.bytesResident);
    EXPECT_FALSE(f.magResident);
}

// ---- fused activation-quantization path -----------------------------

/** Planes equality under a given set (and sidecars always). */
void
expectPlanesEqual(const CodePlanes &a, const CodePlanes &b,
                  PlaneSet sets, const std::string &what)
{
    ASSERT_EQ(a.rows, b.rows) << what;
    ASSERT_EQ(a.cols, b.cols) << what;
    if (planeSetCovers(sets, PlaneSet::Bytes)) {
        ASSERT_EQ(a.index, b.index) << what;
        ASSERT_EQ(a.theta, b.theta) << what;
    }
    if (planeSetCovers(sets, PlaneSet::Mag)) {
        ASSERT_EQ(a.mag.size(), b.mag.size()) << what;
        for (size_t i = 0; i < a.mag.size(); ++i)
            ASSERT_EQ(a.mag[i], b.mag[i]) << what << " mag i=" << i;
    }
    ASSERT_EQ(a.rowStart, b.rowStart) << what;
    ASSERT_EQ(a.outliers.size(), b.outliers.size()) << what;
    for (size_t i = 0; i < a.outliers.size(); ++i) {
        ASSERT_EQ(a.outliers[i].col, b.outliers[i].col)
            << what << " ot i=" << i;
        ASSERT_EQ(a.outliers[i].index, b.outliers[i].index)
            << what << " ot i=" << i;
        ASSERT_EQ(a.outliers[i].value, b.outliers[i].value)
            << what << " ot i=" << i;
    }
}

class FusedEncodeFixture : public ::testing::Test
{
  protected:
    FusedEncodeFixture() : exp(1.179, -0.977, 8), quantizer(exp) {}

    /** Gaussian tensor with a sprinkling of forced outliers. */
    Tensor
    makeTensor(size_t rows, size_t cols, uint64_t seed,
               double tail_frac = 0.03)
    {
        Rng rng(seed);
        std::vector<float> v =
            rng.gaussianVector(rows * cols, 0.2, 1.1);
        const size_t n_tail = static_cast<size_t>(
            tail_frac * static_cast<double>(v.size()));
        for (size_t i = 0; i < n_tail; ++i)
            v[rng.uniformInt(v.size())] =
                static_cast<float>(rng.gaussian(0.0, 6.0));
        return Tensor(rows, cols, v);
    }

    ExpDictionary exp;
    Quantizer quantizer;
};

TEST_F(FusedEncodeFixture, PlanesBitIdenticalAcrossSetsThreadsLanes)
{
    // The tentpole contract: the one-pass fused encoder emits planes
    // bit-identical to encode() + derivePlanes for every plane set,
    // thread count, and lane — including the lazily materialized
    // codes.
    const ThreadCountGuard thread_guard;
    const size_t hw = std::max<size_t>(
        1, std::thread::hardware_concurrency());
    for (const auto &shape : {std::pair<size_t, size_t>{1, 1},
                              std::pair<size_t, size_t>{3, 257},
                              std::pair<size_t, size_t>{64, 96},
                              std::pair<size_t, size_t>{129, 40}}) {
        const Tensor t =
            makeTensor(shape.first, shape.second, 600 + shape.first);
        const auto dict = quantizer.buildDictionary(t);
        const auto ref = quantizer.encode(t, dict);
        const CodePlanes &rp = ref.planes(PlaneSet::All);

        for (const PlaneSet sets :
             {PlaneSet::Bytes, PlaneSet::Mag, PlaneSet::All}) {
            for (const size_t threads : {size_t{1}, size_t{2}, hw}) {
                setThreadCount(threads);
                for (const Lane lane : {Lane{}, Lane::acquire()}) {
                    const auto fused = quantizer.encodeToPlanes(
                        t, dict, sets, lane);
                    const std::string what =
                        "rows=" + std::to_string(shape.first) +
                        " sets=" +
                        std::to_string(static_cast<unsigned>(sets)) +
                        " threads=" + std::to_string(threads);
                    expectPlanesEqual(fused.planes(sets), rp, sets,
                                      what);
                    // Codes materialize lazily and exactly.
                    EXPECT_FALSE(fused.codesMaterialized()) << what;
                    ASSERT_EQ(fused.raw(), ref.raw()) << what;
                    EXPECT_TRUE(fused.codesMaterialized()) << what;
                }
            }
        }
    }
}

TEST_F(FusedEncodeFixture, AllOutlierAndOutlierFreeRows)
{
    // Corner rows the encoder rarely emits: a row that is entirely
    // outliers (sidecar as long as the row) and a row with none.
    // Profile-style dictionary from tame data (so its cut sits near
    // 2.4 sigma and has an outlier table), then encode a probe
    // tensor with engineered corner rows against it.
    Rng rng(611);
    const Tensor profile =
        makeTensor(8, 64, 6110, 0.03); // has a tail -> OT exists
    const auto dict = quantizer.buildDictionary(profile);
    ASSERT_FALSE(dict.outlierCentroids().empty());

    const size_t cols = 70;
    std::vector<float> v = rng.gaussianVector(4 * cols, 0.0, 1.0);
    for (size_t c = 0; c < cols; ++c) {
        v[0 * cols + c] = (c % 2 ? 9.5f : -8.75f) -
            static_cast<float>(c) * 0.01f; // row 0: all outliers
        v[1 * cols + c] =
            0.4f * static_cast<float>(c % 5) - 0.8f; // row 1: none
    }
    const Tensor t(4, cols, v);
    const auto ref = quantizer.encode(t, dict);
    const auto fused = quantizer.encodeToPlanes(t, dict);
    const CodePlanes &fp = fused.planes(PlaneSet::All);

    ASSERT_EQ(fp.outlierCount(0), cols);
    ASSERT_EQ(fp.outlierCount(1), 0u);
    expectPlanesEqual(fp, ref.planes(PlaneSet::All), PlaneSet::All,
                      "corner rows");
    ASSERT_EQ(fused.raw(), ref.raw());
}

TEST_F(FusedEncodeFixture, NoOutlierTableFallsBackToGaussian)
{
    // A dictionary built from tail-free data has no outlier table;
    // values beyond the cut must then take the Gaussian path (the
    // encodeValue() fall-through), clamping to the outermost index.
    Rng rng(613);
    Tensor base(8, 32, rng.gaussianVector(256, 0.0, 0.4));
    // Tame the tail so no sample crosses the cut.
    for (float &x : base.raw())
        x = std::max(-0.9f, std::min(0.9f, x));
    const auto dict = quantizer.buildDictionary(base);
    ASSERT_TRUE(dict.outlierCentroids().empty());

    Tensor probe = base;
    probe.at(0, 0) = 25.0f; // far beyond any cut
    probe.at(3, 7) = -31.5f;
    const auto ref = quantizer.encode(probe, dict);
    const auto fused = quantizer.encodeToPlanes(probe, dict);
    EXPECT_FALSE(ref.at(0, 0).isOutlier());
    expectPlanesEqual(fused.planes(PlaneSet::All),
                      ref.planes(PlaneSet::All), PlaneSet::All,
                      "no outlier table");
    ASSERT_EQ(fused.raw(), ref.raw());
}

TEST(EncodeLadderKernel, ExactTiePicksLowerIndex)
{
    // Powers-of-two magnitudes make the bin midpoints exactly
    // representable, so d_lo == d_hi is an exact FP tie — the case
    // the branchless predicate must resolve identically to the
    // scalar two-subtraction compare (ties to the lower index).
    const ExpDictionary exp(2.0, 0.0, 8); // mags 1, 2, 4, ..., 128
    double mags[8];
    int16_t grid[8];
    for (size_t i = 0; i < 8; ++i) {
        mags[i] = exp.magnitude(i);
        grid[i] = exp.gridMagnitude(i);
    }

    // Ties at every midpoint, the exact centroids, off-tie probes on
    // both sides, and enough filler to engage the vector bodies and
    // their scalar tails.
    std::vector<float> src;
    for (size_t i = 0; i + 1 < 8; ++i) {
        const float mid =
            static_cast<float>((mags[i] + mags[i + 1]) / 2.0);
        src.push_back(mid);
        src.push_back(-mid);
        src.push_back(std::nextafter(mid, 1e30f));
        src.push_back(std::nextafter(mid, 0.0f));
    }
    for (size_t i = 0; i < 8; ++i)
        src.push_back(static_cast<float>(mags[i]));
    src.push_back(0.0f);
    src.push_back(-0.0f);
    src.push_back(1000.0f); // beyond the ladder: clamps to index 7

    const size_t n = src.size();
    std::vector<uint8_t> idx(n);
    std::vector<int8_t> theta(n);
    std::vector<int16_t> mag(n);
    const size_t ot = encodeLadder(
        src.data(), n, mags, 8, 0.0, 1.0,
        std::numeric_limits<double>::infinity(), idx.data(),
        theta.data(), mag.data(), grid);
    EXPECT_EQ(ot, 0u);

    for (size_t c = 0; c < n; ++c) {
        const double u = static_cast<double>(src[c]);
        const size_t want = exp.nearestIndex(std::abs(u));
        EXPECT_EQ(idx[c], want) << "src=" << src[c];
        EXPECT_EQ(theta[c], u < 0.0 ? -1 : 1) << "src=" << src[c];
        EXPECT_EQ(mag[c], (u < 0.0 ? -1 : 1) * exp.gridMagnitude(want))
            << "src=" << src[c];
    }
    // Spot-check the tie semantics directly: 1.5 sits exactly
    // between mags 1 and 2 -> lower index wins.
    EXPECT_EQ(exp.nearestIndex(1.5), 0u);
    EXPECT_EQ(idx[0], 0u);
}

TEST(EncodeLadderKernel, OutlierThresholdIsStrict)
{
    // |v - mean| > cut is strict: a value exactly at the cut stays
    // Gaussian, one ulp above goes to the sidecar — on both the
    // vector body and the scalar tail.
    const ExpDictionary exp(2.0, 0.0, 8);
    double mags[8];
    int16_t grid[8];
    for (size_t i = 0; i < 8; ++i) {
        mags[i] = exp.magnitude(i);
        grid[i] = exp.gridMagnitude(i);
    }
    const double cut = 4.0;
    std::vector<float> src(19, 1.0f);
    src[3] = 4.0f;                         // == cut: Gaussian
    src[7] = std::nextafter(4.0f, 1e30f);  // > cut: outlier
    src[18] = -5.0f;                       // tail element, outlier
    std::vector<uint8_t> idx(src.size());
    std::vector<int8_t> theta(src.size());
    std::vector<int16_t> mag(src.size());
    const size_t ot =
        encodeLadder(src.data(), src.size(), mags, 8, 0.0, 1.0, cut,
                     idx.data(), theta.data(), mag.data(), grid);
    EXPECT_EQ(ot, 2u);
    EXPECT_EQ(theta[3], 1);
    EXPECT_EQ(idx[3], 2u); // |4| -> index 2 (mag 4)
    EXPECT_EQ(theta[7], 0);
    EXPECT_EQ(idx[7], 0u);
    EXPECT_EQ(mag[7], 0);
    EXPECT_EQ(theta[18], 0);
}

TEST_F(FusedEncodeFixture, LazyCodesFromMagOnlyPlanes)
{
    // A mag-only fused tensor reconstructs its codes by inverting
    // the mag plane (entries are signed grid magnitudes, one per
    // index), plus the sidecar's stored outlier indexes.
    const Tensor t = makeTensor(21, 45, 617);
    const auto dict = quantizer.buildDictionary(t);
    const auto ref = quantizer.encode(t, dict);
    const auto fused =
        quantizer.encodeToPlanes(t, dict, PlaneSet::Mag);
    EXPECT_TRUE(fused.planes(PlaneSet::Mag).index.empty());
    ASSERT_EQ(fused.raw(), ref.raw());
}

TEST_F(FusedEncodeFixture, FusedTensorPacksAndConcats)
{
    // The memory codec and row concat are code-domain consumers:
    // they must transparently materialize a fused tensor's codes and
    // produce byte-identical streams.
    const Tensor t = makeTensor(37, 53, 619);
    const auto dict = quantizer.buildDictionary(t);
    const auto ref = quantizer.encode(t, dict);
    const auto fused =
        quantizer.encodeToPlanes(t, dict, PlaneSet::Bytes);

    const auto p_ref = packTensor(ref);
    const auto p_fused = packTensor(fused);
    ASSERT_EQ(p_fused.values, p_ref.values);
    ASSERT_EQ(p_fused.otPointers, p_ref.otPointers);
    const auto back = unpackTensor(p_fused, dict);
    ASSERT_EQ(back.raw(), ref.raw());

    const auto cat = concatQuantizedRows({&fused, &ref});
    ASSERT_EQ(cat.rows(), 2 * t.rows());
    for (size_t i = 0; i < ref.size(); ++i) {
        ASSERT_EQ(cat.raw()[i], ref.raw()[i]);
        ASSERT_EQ(cat.raw()[ref.size() + i], ref.raw()[i]);
    }
}

TEST_F(FusedEncodeFixture, FusedTensorSurvivesMutationAndUnpin)
{
    // Mutation must materialize codes first (the planes are the only
    // source of truth), then drop the stale planes; unpinPlanes on a
    // never-materialized tensor likewise rescues the codes before
    // releasing the view.
    const Tensor t = makeTensor(9, 33, 621);
    const auto dict = quantizer.buildDictionary(t);
    const auto ref = quantizer.encode(t, dict);

    QuantizedTensor m = quantizer.encodeToPlanes(t, dict);
    m.at(2, 3) = QCode::gaussian(true, 5);
    EXPECT_FALSE(m.planesFootprint().resident); // stale planes gone
    QuantizedTensor expect = ref;
    expect.at(2, 3) = QCode::gaussian(true, 5);
    ASSERT_EQ(m.raw(), expect.raw());
    expectPlanesEqual(m.planes(PlaneSet::All),
                      expect.planes(PlaneSet::All), PlaneSet::All,
                      "post-mutation rebuild");

    QuantizedTensor u = quantizer.encodeToPlanes(t, dict);
    EXPECT_FALSE(u.codesMaterialized());
    u.unpinPlanes();
    EXPECT_TRUE(u.codesMaterialized());
    EXPECT_FALSE(u.planesFootprint().resident);
    ASSERT_EQ(u.raw(), ref.raw());

    // Copies of a lazy tensor stay lazy and share the planes.
    const QuantizedTensor lazy = quantizer.encodeToPlanes(t, dict);
    const QuantizedTensor copy = lazy;
    EXPECT_FALSE(copy.codesMaterialized());
    ASSERT_EQ(copy.raw(), ref.raw());
    EXPECT_FALSE(lazy.codesMaterialized()); // the copy materialized
    ASSERT_EQ(lazy.outlierFraction(), ref.outlierFraction());
}

// ---- CodePlanes pin API ---------------------------------------------

/** A small quantized tensor with a few outliers. */
QuantizedTensor
pinFixtureTensor()
{
    Rng rng(4242);
    const ExpDictionary exp(1.179, -0.977, 8);
    const Quantizer quantizer(exp);
    Tensor t(8, 32, rng.gaussianVector(8 * 32, 0.0, 1.0));
    t.at(0, 0) = 9.0f; // force an outlier or two
    t.at(5, 17) = -8.5f;
    return quantizer.encode(t, quantizer.buildDictionary(t));
}

TEST(QuantizedTensorPin, PinBuildsAndSurvivesCopies)
{
    const QuantizedTensor q = pinFixtureTensor();
    EXPECT_FALSE(q.planesPinned());
    EXPECT_FALSE(q.planesFootprint().resident);

    q.pinPlanes();
    EXPECT_TRUE(q.planesPinned());
    EXPECT_TRUE(q.planesFootprint().resident);

    // Copies inherit both the pin and the already-built planes —
    // no rebuild, no lazy first-use cost on the copy.
    const QuantizedTensor copy = q;
    EXPECT_TRUE(copy.planesPinned());
    EXPECT_TRUE(copy.planesFootprint().resident);
    QuantizedTensor assigned;
    assigned = q;
    EXPECT_TRUE(assigned.planesPinned());
    EXPECT_TRUE(assigned.planesFootprint().resident);

    // Unpinning one copy releases only that copy's reference.
    assigned.unpinPlanes();
    EXPECT_FALSE(assigned.planesPinned());
    EXPECT_FALSE(assigned.planesFootprint().resident);
    EXPECT_TRUE(q.planesFootprint().resident);
}

TEST(QuantizedTensorPin, MutationDropsPlanesButKeepsPin)
{
    QuantizedTensor q = pinFixtureTensor();
    const Tensor before = q.decode();
    q.pinPlanes();

    q.at(2, 3) = QCode::gaussian(false, 1); // mutation
    EXPECT_TRUE(q.planesPinned());
    EXPECT_FALSE(q.planesFootprint().resident); // stale planes gone

    // The retained pin is an intent: the next planes() rebuilds, and
    // the rebuilt view decodes the *mutated* codes.
    const CodePlanes &p = q.pinPlanes();
    EXPECT_TRUE(q.planesFootprint().resident);
    EXPECT_EQ(p.rows, q.rows());
    const Tensor after = q.decode();
    EXPECT_NE(before.at(2, 3), after.at(2, 3));
}

TEST(QuantizedTensorPin, FootprintAccountsPlaneBytes)
{
    const QuantizedTensor q = pinFixtureTensor();
    const size_t n = q.rows() * q.cols();

    PlanesFootprint f = q.planesFootprint();
    EXPECT_EQ(f.codeBytes, n);
    EXPECT_EQ(f.deriveElements, n);
    EXPECT_EQ(f.planeBytes, 0u); // not resident yet

    q.pinPlanes();
    f = q.planesFootprint();
    const size_t expected =
        n * (sizeof(uint8_t) + sizeof(int8_t) + kMagElemBytes) +
        (q.rows() + 1) * sizeof(uint32_t) +
        q.cols() * sizeof(uint32_t) + // per-column outlier counts
        f.outlierEntries * sizeof(CodePlanes::Outlier) +
        q.rows() * 2 * sizeof(double); // per-row fold sums (both sets)
    EXPECT_EQ(f.planeBytes, expected);
    EXPECT_GT(f.outlierEntries, 0u);
    // Keeping planes costs ~6x the code bytes (1 + 1 + 4 B per
    // element) — the number the pin-vs-rederive decision weighs for
    // large models.
    EXPECT_GT(f.expansionRatio(), 5.0);
    EXPECT_LT(f.expansionRatio(), 8.0);
}

} // anonymous namespace
} // namespace mokey
