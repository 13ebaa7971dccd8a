#include "quant/quantizer.hh"

#include <algorithm>
#include <cmath>
#include <limits>
#include <memory>

#include "common/logging.hh"
#include "common/parallel.hh"
#include "common/simd.hh"

namespace mokey
{

Quantizer::Quantizer(ExpDictionary exp) : expDict(std::move(exp)) {}

LadderSpec
LadderSpec::from(const TensorDictionary &dict)
{
    const ExpDictionary &exp = dict.exp();
    const size_t h = exp.indexCount();
    MOKEY_ASSERT(h >= 1 && h <= 8,
                 "ladder of %zu magnitudes exceeds the 8-entry "
                 "kernel table", h);
    LadderSpec spec;
    spec.h = h;
    for (size_t i = 0; i < 8; ++i) {
        spec.mags[i] = exp.magnitude(std::min(i, h - 1));
        spec.foldMags[i] = i < h ? exp.magnitude(i) : 0.0;
        spec.grid[i] = exp.gridMagnitude(std::min(i, h - 1));
    }
    spec.mean = dict.mean();
    spec.scale = dict.scale();
    spec.cut = dict.outlierCentroids().empty()
        ? std::numeric_limits<double>::infinity()
        : dict.outlierCut();
    spec.dict = &dict;
    return spec;
}

size_t
LadderSpec::encodeRow(const float *src, size_t n, uint8_t *ix,
                      int8_t *th, int16_t *mg,
                      std::vector<CodePlanes::Outlier> &ot) const
{
    const size_t n_ot = encodeLadder(src, n, mags, h, mean, scale, cut,
                                     ix, th, mg, grid);
    if (n_ot == 0)
        return 0;
    // Resolve the rare outlier lanes scalar (the OPP side): the
    // kernel marked them with the zero-sign / zero-mag convention,
    // which doubles as the scan key (no Gaussian grid value is 0).
    // A mag slot then gets its centroid's grid value, past the
    // point the scan reads.
    ot.reserve(ot.size() + n_ot);
    size_t found = 0;
    for (size_t c = 0; c < n && found < n_ot; ++c) {
        const bool is_ot = th ? th[c] == 0 : mg[c] == 0;
        if (!is_ot)
            continue;
        const double v = src[c];
        const size_t oi = dict->nearestOutlierIndex(v);
        ot.push_back({static_cast<uint32_t>(c),
                      static_cast<uint8_t>(oi),
                      dict->outlierValue(oi)});
        if (mg)
            mg[c] = dict->outlierGrid(oi);
        ++found;
    }
    return n_ot;
}

TensorDictionary
Quantizer::buildDictionary(const Tensor &t,
                           const TensorDictConfig &cfg) const
{
    return TensorDictionary::build(expDict, t.raw(), cfg);
}

TensorDictionary
Quantizer::buildDictionaryFromSamples(const std::vector<float> &samples,
                                      const TensorDictConfig &cfg) const
{
    return TensorDictionary::build(expDict, samples, cfg);
}

QuantizedTensor
Quantizer::encode(const Tensor &t, const TensorDictionary &dict,
                  Lane lane) const
{
    QuantizedTensor q(t.rows(), t.cols(), dict);
    const size_t cols = t.cols();
    QCode *codes = q.raw().data();
    parallelFor(lane, 0, t.rows(),
                std::max<size_t>(1, 2048 / (cols + 1)),
                [&](size_t r) {
                    const float *src = t.row(r);
                    QCode *dst = codes + r * cols;
                    for (size_t c = 0; c < cols; ++c)
                        dst[c] = encodeValue(src[c], dict);
                });
    return q;
}

QuantizedTensor
Quantizer::encodeToPlanes(const Tensor &t,
                          const TensorDictionary &dict, PlaneSet sets,
                          Lane lane) const
{
    const size_t rows = t.rows(), cols = t.cols();
    const bool wbytes = planeSetCovers(sets, PlaneSet::Bytes);
    const bool wmag = planeSetCovers(sets, PlaneSet::Mag);
    MOKEY_ASSERT(wbytes || wmag,
                 "encodeToPlanes needs at least one dense plane set");

    auto p = std::make_shared<CodePlanes>();
    p->rows = rows;
    p->cols = cols;
    p->sets = sets;
    if (wbytes) {
        p->index.resize(rows * cols);
        p->theta.resize(rows * cols);
    }
    if (wmag)
        p->mag.resize(rows * cols);

    // Ladder constants hoisted once (LadderSpec): magnitudes padded
    // to the kernel's 8-entry table; a dictionary without an outlier
    // table gets an infinite cut, mirroring encodeValue()'s
    // fall-through to the Gaussian path.
    const LadderSpec lad = LadderSpec::from(dict);
    if (wmag)
        p->magRowSum.resize(rows);
    if (wbytes)
        p->byteRowSum.resize(rows);

    // Outliers land in per-row buffers stitched in row order below,
    // so the sidecar is identical for every chunking. The fused walk
    // is roughly an order of magnitude cheaper per element than the
    // scalar encode(), hence the coarser grain.
    std::vector<std::vector<CodePlanes::Outlier>> row_ot(rows);
    parallelFor(
        lane, 0, rows, std::max<size_t>(1, 8192 / (cols + 1)),
        [&](size_t r) {
            const float *src = t.row(r);
            uint8_t *ix =
                wbytes ? p->index.data() + r * cols : nullptr;
            int8_t *th =
                wbytes ? p->theta.data() + r * cols : nullptr;
            int16_t *mg = wmag ? p->mag.data() + r * cols : nullptr;
            lad.encodeRow(src, cols, ix, th, mg, row_ot[r]);
            // Fold the pairing-independent row terms (SoA2 + b*PoM2)
            // into the same walk, in each engine's own arithmetic
            // order, so no GEMM ever recomputes them.
            if (wmag)
                p->magRowSum[r] = magPlaneRowSum(mg, cols);
            if (wbytes)
                p->byteRowSum[r] =
                    bytePlaneRowSum(ix, th, cols, lad.foldMags);
        });

    stitchOutliers(*p, row_ot, dict);
    return QuantizedTensor::fromPlanes(std::move(p), dict);
}

QCode
Quantizer::encodeValue(double v, const TensorDictionary &dict) const
{
    if (dict.isOutlierValue(v) && !dict.outlierCentroids().empty()) {
        return QCode::outlier(
            static_cast<uint8_t>(dict.nearestOutlierIndex(v)));
    }
    // Gaussian path: normalize to sigma units, pick the nearest
    // exponential magnitude.
    const double u = (v - dict.mean()) / dict.scale();
    const bool negative = u < 0.0;
    const size_t idx = dict.exp().nearestIndex(std::abs(u));
    return QCode::gaussian(negative, static_cast<uint8_t>(idx));
}

QCode
Quantizer::encodeComparatorLadder(double v,
                                  const TensorDictionary &dict) const
{
    const auto &lad = dict.ladder();
    MOKEY_ASSERT(!lad.empty(), "empty comparator ladder");

    // Fig. 7: the value is compared against every (sorted) centroid;
    // the comparator outputs form a run of 0s then 1s. The leading-1
    // position selects centroid CH; the entry before it is CL. Two
    // subtractions pick the closer one. The ladder is sorted, so the
    // leading-one detect is a binary search rather than a linear
    // sweep of all h + |OT| comparators.
    const auto it = std::lower_bound(
        lad.begin(), lad.end(), v,
        [](const TensorDictionary::LadderEntry &e, double x) {
            return e.value < x;
        });
    const size_t leading_one =
        static_cast<size_t>(it - lad.begin());

    size_t pick;
    if (leading_one == lad.size()) {
        pick = lad.size() - 1; // above every centroid
    } else if (leading_one == 0) {
        pick = 0; // below every centroid
    } else {
        const double d_hi = lad[leading_one].value - v;
        const double d_lo = v - lad[leading_one - 1].value;
        pick = (d_lo <= d_hi) ? leading_one - 1 : leading_one;
    }

    const auto &e = lad[pick];
    if (e.isOutlier)
        return QCode::outlier(e.index);
    return QCode::gaussian(e.negative, e.index);
}

double
Quantizer::decode(QCode code, const TensorDictionary &dict)
{
    if (code.isOutlier())
        return dict.outlierValue(code.outlierIndex());
    return dict.gaussianValue(code.negative(), code.index());
}

} // namespace mokey
