#include "quant/tensor_dictionary.hh"

#include <algorithm>
#include <cmath>

#include "clustering/agglomerative1d.hh"
#include "common/logging.hh"
#include "common/stats.hh"

namespace mokey
{

TensorDictionary::TensorDictionary()
    : expDict(1.179, -0.977, 8), m(0.0), s(1.0), cut(0.0),
      maxGrid(ExpDictionary::kGridTop), fmt{16, 12}
{
    buildLadder();
}

TensorDictionary
TensorDictionary::build(const ExpDictionary &exp,
                        const std::vector<float> &values,
                        const TensorDictConfig &cfg)
{
    MOKEY_ASSERT(!values.empty(), "dictionary from an empty tensor");

    TensorDictionary d;
    d.expDict = exp;

    RunningStats st;
    st.addAll(values);
    d.m = st.mean();
    d.s = st.stddev();
    if (d.s <= 0.0)
        d.s = 1e-6; // degenerate constant tensor

    // Outlier cut: midway between the outermost Gaussian magnitude
    // and the extrapolated next exponential step (both in sigma
    // units), optionally scaled.
    const size_t h = exp.indexCount();
    const double outer = exp.magnitude(h - 1);
    const double next = std::pow(exp.a(), static_cast<double>(h)) +
        exp.b();
    d.cut = d.s * (outer + cfg.otCutScale * 0.5 * (next - outer));

    // Collect the tail and cluster it into the outlier dictionary.
    std::vector<float> tail;
    for (float v : values) {
        if (d.isOutlierValue(v))
            tail.push_back(v);
    }
    if (!tail.empty()) {
        const size_t k = std::min(cfg.otEntries, tail.size());
        const auto res = agglomerative1d(tail, k);
        d.ot = res.centroids;
    }

    // Place the outlier entries on the mag engine's int16 grid. A
    // slot past +/-32767 cannot be served, so say so at set-up
    // rather than wrap inside a GEMM.
    for (const double v : d.ot) {
        const double g = (v - d.m) / (d.s * exp.gridUnit());
        if (!(std::abs(g) <= 32767.0))
            fatal("outlier centroid %g lies %.0f grid steps from the "
                  "tensor mean (mean %g, scale %g); the int16 mag "
                  "plane holds at most 32767", v, g, d.m, d.s);
        d.otGrid.push_back(static_cast<int16_t>(std::lround(g)));
        d.maxGrid = std::max<int32_t>(d.maxGrid,
                                      std::abs(d.otGrid.back()));
    }

    // Record the tensor's 16 b fixed-point format (Eq. 7/8). The
    // float-domain dictionary keeps analytic centroids; only the
    // fixed-point pipeline (§II-F) snaps values to this format.
    d.fmt = FixedFormat::forRange(cfg.fixedBits, st.min(), st.max());

    d.buildLadder();
    return d;
}

bool
TensorDictionary::isOutlierValue(double v) const
{
    return std::abs(v - m) > cut;
}

double
TensorDictionary::gaussianValue(bool negative, size_t index) const
{
    const double mag = expDict.magnitude(index);
    return (negative ? -mag : mag) * s + m;
}

double
TensorDictionary::outlierValue(size_t index) const
{
    MOKEY_ASSERT(index < ot.size(), "outlier index %zu out of range",
                 index);
    return ot[index];
}

int16_t
TensorDictionary::outlierGrid(size_t index) const
{
    MOKEY_ASSERT(index < otGrid.size(), "outlier index %zu out of range",
                 index);
    return otGrid[index];
}

size_t
TensorDictionary::nearestOutlierIndex(double v) const
{
    MOKEY_ASSERT(!ot.empty(), "no outlier dictionary");
    return nearestCentroid(ot, v);
}

void
TensorDictionary::buildLadder()
{
    lad.clear();
    const size_t h = expDict.indexCount();
    for (size_t i = 0; i < h; ++i) {
        lad.push_back({gaussianValue(true, i), false, true,
                       static_cast<uint8_t>(i)});
        lad.push_back({gaussianValue(false, i), false, false,
                       static_cast<uint8_t>(i)});
    }
    for (size_t i = 0; i < ot.size(); ++i)
        lad.push_back({ot[i], true, false, static_cast<uint8_t>(i)});
    std::sort(lad.begin(), lad.end(),
              [](const LadderEntry &a, const LadderEntry &b) {
                  return a.value < b.value;
              });
}

size_t
TensorDictionary::metadataBits() const
{
    // G dictionary: h magnitudes (16 b each, signs implicit);
    // OT dictionary: up to 16 centroids at 16 b;
    // constants: mean, scale, cut, format (16 b each).
    const size_t bits_per = static_cast<size_t>(fmt.totalBits);
    return expDict.indexCount() * bits_per + ot.size() * bits_per +
        4 * bits_per;
}

} // namespace mokey
