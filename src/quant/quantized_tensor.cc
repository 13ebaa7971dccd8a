#include "quant/quantized_tensor.hh"

#include <algorithm>
#include <cmath>
#include <mutex>

#include "common/logging.hh"
#include "common/simd.hh"

namespace mokey
{

int64_t
magPlaneRowSum(const int16_t *mg, size_t n)
{
    int64_t sum = 0;
    for (size_t c = 0; c < n; ++c)
        sum += mg[c];
    return sum;
}

double
bytePlaneRowSum(const uint8_t *ix, const int8_t *th, size_t n,
                const double *mags)
{
    // 8-entry histogram contract of signedIndexHistogram; indexes
    // beyond the dictionary never occur, so those buckets stay 0 and
    // the zero-padded table contributes exact zeros.
    int32_t h[8];
    signedIndexHistogram(ix, th, n, h);
    double sum = 0.0;
    for (size_t i = 0; i < 8; ++i)
        sum += h[i] * mags[i];
    return sum;
}

namespace
{

/** Zero-padded 8-entry magnitude table for the byte-plane fold. */
void
foldMagTable(const ExpDictionary &exp, double *mags)
{
    for (size_t i = 0; i < 8; ++i)
        mags[i] = 0.0;
    for (size_t i = 0; i < exp.indexCount(); ++i)
        mags[i] = exp.magnitude(i);
}

/** Fill the per-row fold sums for every materialized plane set. */
void
fillRowSums(CodePlanes &p, const ExpDictionary &exp)
{
    if (!p.mag.empty()) {
        p.magRowSum.resize(p.rows);
        for (size_t r = 0; r < p.rows; ++r)
            p.magRowSum[r] = magPlaneRowSum(p.magRow(r), p.cols);
    }
    if (!p.index.empty()) {
        double mags[8];
        foldMagTable(exp, mags);
        p.byteRowSum.resize(p.rows);
        for (size_t r = 0; r < p.rows; ++r)
            p.byteRowSum[r] =
                bytePlaneRowSum(p.indexRow(r), p.thetaRow(r), p.cols,
                                mags);
    }
}

/**
 * Complete a planes view whose sidecar is built: fill
 * outlierColCount and, in debug builds, check the outlier slots. The
 * counting loop needs (index 0, theta 0) so an outlier's histogram
 * contribution vanishes; the mag dot needs the slot to hold exactly
 * the centroid's grid value so the outlier is counted there once.
 */
void
sealOutliers(CodePlanes &p,
             [[maybe_unused]] const TensorDictionary &dict)
{
    p.outlierColCount.assign(p.cols, 0);
    for (const CodePlanes::Outlier &o : p.outliers)
        ++p.outlierColCount[o.col];
#ifndef NDEBUG
    for (size_t r = 0; r < p.rows; ++r) {
        for (size_t i = 0; i < p.outlierCount(r); ++i) {
            const CodePlanes::Outlier &o = p.outlierRow(r)[i];
            if (!p.index.empty())
                MOKEY_ASSERT(p.indexRow(r)[o.col] == 0 &&
                                 p.thetaRow(r)[o.col] == 0,
                             "outlier slot (%zu, %u) violates the "
                             "zero-index/zero-sign plane convention",
                             r, o.col);
            if (p.mag.empty())
                continue;
            MOKEY_ASSERT(p.magRow(r)[o.col] == dict.outlierGrid(o.index),
                         "outlier mag slot (%zu, %u) holds %d, not its "
                         "centroid's grid value %d", r, o.col,
                         p.magRow(r)[o.col], dict.outlierGrid(o.index));
        }
    }
#endif
}

} // anonymous namespace

void
stitchOutliers(
    CodePlanes &p,
    const std::vector<std::vector<CodePlanes::Outlier>> &row_ot,
    const TensorDictionary &dict)
{
    p.rowStart.assign(p.rows + 1, 0);
    size_t total = 0;
    for (size_t r = 0; r < p.rows; ++r) {
        total += row_ot[r].size();
        p.rowStart[r + 1] = static_cast<uint32_t>(total);
    }
    p.outliers.reserve(total);
    for (size_t r = 0; r < p.rows; ++r)
        p.outliers.insert(p.outliers.end(), row_ot[r].begin(),
                          row_ot[r].end());
    sealOutliers(p, dict);
}

QCode
QCode::gaussian(bool negative, uint8_t index)
{
    MOKEY_ASSERT(index <= idxMask, "gaussian index %u out of range",
                 index);
    return QCode{static_cast<uint8_t>(
        (negative ? signBit : 0) | index)};
}

QCode
QCode::outlier(uint8_t index)
{
    MOKEY_ASSERT(index <= 0xf, "outlier index %u out of range", index);
    return QCode{static_cast<uint8_t>(otlBit | index)};
}

QuantizedTensor::QuantizedTensor() : nRows(0), nCols(0) {}

QuantizedTensor::QuantizedTensor(size_t rows, size_t cols,
                                 TensorDictionary d)
    : nRows(rows), nCols(cols), codes(rows * cols, QCode{0}),
      dict(std::move(d))
{
}

QuantizedTensor
QuantizedTensor::fromPlanes(std::shared_ptr<const CodePlanes> planes,
                            TensorDictionary d)
{
    MOKEY_ASSERT(planes != nullptr, "fromPlanes with no planes");
    MOKEY_ASSERT(!planes->index.empty() || !planes->mag.empty() ||
                     planes->rows * planes->cols == 0,
                 "fromPlanes needs at least one dense plane to "
                 "materialize codes from");
    QuantizedTensor q;
    q.nRows = planes->rows;
    q.nCols = planes->cols;
    q.dict = std::move(d);
    std::atomic_store_explicit(
        &q.planesCache,
        std::shared_ptr<const CodePlanes>(std::move(planes)),
        std::memory_order_release);
    q.codesReady.store(false, std::memory_order_relaxed);
    return q;
}

void
QuantizedTensor::materializeCodes() const
{
    // Single-flight like the planes build, with its own stripe set
    // so a planes upgrade that needs the codes (planesShared ->
    // ensureCodes) can never self-deadlock on one mutex.
    static std::mutex code_mus[8];
    std::mutex &mu =
        code_mus[(reinterpret_cast<uintptr_t>(this) >> 4) & 7];
    std::lock_guard<std::mutex> lk(mu);
    if (codesReady.load(std::memory_order_acquire))
        return;

    const auto p = std::atomic_load_explicit(
        &planesCache, std::memory_order_acquire);
    MOKEY_ASSERT(p != nullptr,
                 "planes-first tensor lost its planes view");
    const bool from_bytes = planeSetCovers(p->sets, PlaneSet::Bytes);
    // Grid index lookup: ExpDictionary guarantees the grid magnitudes
    // are distinct and >= 1, so a slot value names its index and sign.
    std::vector<int8_t> index_of;
    if (!from_bytes) {
        const ExpDictionary &exp = dict.exp();
        index_of.assign(ExpDictionary::kGridTop + 1, -1);
        for (size_t i = 0; i < exp.indexCount(); ++i)
            index_of[exp.gridMagnitude(i)] = static_cast<int8_t>(i);
    }
    std::vector<QCode> out(nRows * nCols, QCode{0});
    for (size_t r = 0; r < nRows; ++r) {
        QCode *dst = out.data() + r * nCols;
        if (from_bytes) {
            const uint8_t *ix = p->indexRow(r);
            const int8_t *th = p->thetaRow(r);
            for (size_t c = 0; c < nCols; ++c)
                dst[c] = QCode::gaussian(th[c] < 0, ix[c]);
        } else {
            // Invert the mag plane: a Gaussian slot is +/- a grid
            // magnitude, which the lookup maps back to its index.
            // Outlier slots, found from the column-sorted sidecar,
            // are filled below.
            const int16_t *mg = p->magRow(r);
            const CodePlanes::Outlier *ot = p->outlierRow(r);
            const size_t n_ot = p->outlierCount(r);
            for (size_t c = 0, x = 0; c < nCols; ++c) {
                if (x < n_ot && ot[x].col == c) {
                    ++x;
                    continue;
                }
                const int v = std::abs(static_cast<int>(mg[c]));
                const int i = v < static_cast<int>(index_of.size())
                    ? index_of[v]
                    : -1;
                MOKEY_ASSERT(i >= 0,
                             "mag plane entry (%zu, %zu) = %d is not a "
                             "grid magnitude", r, c, mg[c]);
                dst[c] = QCode::gaussian(mg[c] < 0,
                                         static_cast<uint8_t>(i));
            }
        }
        const CodePlanes::Outlier *ot = p->outlierRow(r);
        const size_t n_ot = p->outlierCount(r);
        for (size_t i = 0; i < n_ot; ++i)
            dst[ot[i].col] = QCode::outlier(ot[i].index);
    }
    codes = std::move(out);
    codesReady.store(true, std::memory_order_release);
}

std::shared_ptr<const CodePlanes>
QuantizedTensor::planesShared(PlaneSet need) const
{
    // Concurrent const readers (two threads GEMMing with one shared
    // weight tensor) may race to build: the cache pointer is only
    // touched through atomic loads/stores, and a mutex makes the
    // build itself single-flight. The mutexes are striped by tensor
    // address so concurrent lanes building planes of *different*
    // tensors do not serialize on one process-wide lock. Mutation
    // during a concurrent planes() call remains the caller's bug.
    auto cached = std::atomic_load_explicit(
        &planesCache, std::memory_order_acquire);
    if (cached && planeSetCovers(cached->sets, need))
        return cached;

    static std::mutex build_mus[8];
    std::mutex &build_mu =
        build_mus[(reinterpret_cast<uintptr_t>(this) >> 4) & 7];
    std::lock_guard<std::mutex> lk(build_mu);
    cached = std::atomic_load_explicit(&planesCache,
                                       std::memory_order_acquire);
    if (cached && planeSetCovers(cached->sets, need))
        return cached;

    // Upgrade, never downgrade: a rebuild keeps every plane set the
    // displaced cache already carried, so alternating engines on one
    // tensor converges to the union instead of thrashing rebuilds.
    // The rebuild walks the code array, which a planes-first tensor
    // materializes here first (its own single-flight lock; never the
    // one held now).
    ensureCodes();
    const PlaneSet sets =
        cached ? (cached->sets | need) : need;
    const bool want_bytes = planeSetCovers(sets, PlaneSet::Bytes);
    const bool want_mag = planeSetCovers(sets, PlaneSet::Mag);

    auto p = std::make_shared<CodePlanes>();
    p->rows = nRows;
    p->cols = nCols;
    p->sets = sets;
    // Keep the view we displace alive: references handed out by
    // planes() before this upgrade must survive until the codes are
    // mutated (dropPlanes releases the chain).
    p->displaced = cached;
    if (want_bytes) {
        p->index.resize(codes.size());
        p->theta.resize(codes.size());
    }
    if (want_mag)
        p->mag.resize(codes.size());
    p->rowStart.assign(nRows + 1, 0);
    for (size_t r = 0; r < nRows; ++r) {
        const QCode *src = codes.data() + r * nCols;
        uint8_t *idx = want_bytes ? p->index.data() + r * nCols
                                  : nullptr;
        int8_t *th = want_bytes ? p->theta.data() + r * nCols
                                : nullptr;
        int16_t *mg =
            want_mag ? p->mag.data() + r * nCols : nullptr;
        for (size_t c = 0; c < nCols; ++c) {
            const QCode q = src[c];
            if (q.isOutlier()) {
                if (want_bytes) {
                    idx[c] = 0;
                    th[c] = 0;
                }
                if (want_mag)
                    mg[c] = dict.outlierGrid(q.outlierIndex());
                p->outliers.push_back(
                    {static_cast<uint32_t>(c), q.outlierIndex(),
                     dict.outlierValue(q.outlierIndex())});
            } else {
                if (want_bytes) {
                    idx[c] = q.index();
                    th[c] = static_cast<int8_t>(q.theta());
                }
                if (want_mag)
                    mg[c] = static_cast<int16_t>(
                        q.theta() * dict.exp().gridMagnitude(q.index()));
            }
        }
        p->rowStart[r + 1] =
            static_cast<uint32_t>(p->outliers.size());
    }
    sealOutliers(*p, dict);
    fillRowSums(*p, dict.exp());
    std::atomic_store_explicit(&planesCache,
                               std::shared_ptr<const CodePlanes>(p),
                               std::memory_order_release);
    return p;
}

const CodePlanes &
QuantizedTensor::planes(PlaneSet need) const
{
    // The reference stays valid until the codes are next mutated:
    // the cache keeps the view alive, and a concurrent plane-set
    // upgrade retains the view it displaces (CodePlanes::displaced)
    // rather than freeing it under outstanding references.
    return *planesShared(need);
}

const CodePlanes &
QuantizedTensor::pinPlanes(PlaneSet need) const
{
    pinnedFlag.store(true, std::memory_order_relaxed);
    return planes(need);
}

void
QuantizedTensor::unpinPlanes() const
{
    // For a planes-first tensor the cached planes are the source of
    // truth: rescue the codes before releasing the view.
    ensureCodes();
    pinnedFlag.store(false, std::memory_order_relaxed);
    dropPlanes();
}

PlanesFootprint
QuantizedTensor::planesFootprint() const
{
    PlanesFootprint f;
    f.pinned = planesPinned();
    // Resident code bytes: zero for a planes-first tensor whose
    // codes were never materialized (the planes are its only
    // storage); the rebuild pass count is shape-based either way.
    // The ready flag gates the read — a concurrent const reader may
    // be materializing (move-assigning) the vector right now.
    f.codeBytes = codesReady.load(std::memory_order_acquire)
        ? codes.size() * sizeof(QCode)
        : 0;
    f.deriveElements = size();
    const auto cached = std::atomic_load_explicit(
        &planesCache, std::memory_order_acquire);
    if (!cached)
        return f;
    const auto bytes_of = [](const CodePlanes &p) {
        return p.index.size() * sizeof(uint8_t) +
            p.theta.size() * sizeof(int8_t) +
            p.mag.size() * kMagElemBytes +
            (p.rowStart.size() + p.outlierColCount.size()) *
                sizeof(uint32_t) +
            p.outliers.size() * sizeof(CodePlanes::Outlier) +
            p.magRowSum.size() * sizeof(int64_t) +
            p.byteRowSum.size() * sizeof(double);
    };
    f.resident = true;
    f.bytesResident = planeSetCovers(cached->sets, PlaneSet::Bytes);
    f.magResident = planeSetCovers(cached->sets, PlaneSet::Mag);
    f.outlierEntries = cached->outliers.size();
    f.planeBytes = bytes_of(*cached);
    // Views displaced by upgrades stay resident for reference
    // safety; report them so engine-switch memory cost is visible.
    for (auto d = cached->displaced; d; d = d->displaced)
        f.retiredBytes += bytes_of(*d);
    return f;
}

Tensor
QuantizedTensor::decode() const
{
    Tensor t(nRows, nCols);
    for (size_t r = 0; r < nRows; ++r)
        for (size_t c = 0; c < nCols; ++c)
            t.at(r, c) = static_cast<float>(decodeAt(r, c));
    return t;
}

double
QuantizedTensor::decodeAt(size_t r, size_t c) const
{
    const QCode q = at(r, c);
    if (q.isOutlier())
        return dict.outlierValue(q.outlierIndex());
    return dict.gaussianValue(q.negative(), q.index());
}

double
QuantizedTensor::outlierFraction() const
{
    if (size() == 0)
        return 0.0;
    // The resident sidecar already knows the count; only a tensor
    // with neither planes nor codes has to materialize.
    const auto cached = std::atomic_load_explicit(
        &planesCache, std::memory_order_acquire);
    size_t n = 0;
    if (cached) {
        n = cached->outliers.size();
    } else {
        ensureCodes();
        for (const QCode q : codes)
            n += q.isOutlier();
    }
    return static_cast<double>(n) / static_cast<double>(size());
}

namespace
{

/** Same decode behaviour, i.e. safe to mix in one batched GEMM. */
bool
sameDictionary(const TensorDictionary &a, const TensorDictionary &b)
{
    return a.exp().a() == b.exp().a() && a.exp().b() == b.exp().b() &&
        a.exp().indexCount() == b.exp().indexCount() &&
        a.mean() == b.mean() && a.scale() == b.scale() &&
        a.outlierCentroids() == b.outlierCentroids();
}

} // anonymous namespace

QuantizedTensor
concatQuantizedRows(const std::vector<const QuantizedTensor *> &parts)
{
    MOKEY_ASSERT(!parts.empty(), "concat of zero quantized tensors");
    const size_t cols = parts[0]->cols();
    size_t rows = 0;
    for (const QuantizedTensor *p : parts) {
        MOKEY_ASSERT(p->cols() == cols,
                     "concat width mismatch: %zu vs %zu", p->cols(),
                     cols);
        MOKEY_ASSERT(sameDictionary(p->dictionary(),
                                    parts[0]->dictionary()),
                     "concat of tensors with different dictionaries");
        rows += p->rows();
    }

    QuantizedTensor out(rows, cols, parts[0]->dictionary());
    QCode *dst = out.raw().data();
    for (const QuantizedTensor *p : parts) {
        std::copy(p->raw().begin(), p->raw().end(), dst);
        dst += p->size();
    }
    return out;
}

size_t
QuantizedTensor::packedFootprintBits() const
{
    // Fig. 5: 4 b per value plus, per group of 64 values, a 7 b
    // outlier count and 6 b per outlier position. Accounting only —
    // the sidecar count is enough, no need to materialize codes.
    const size_t groups = (size() + 63) / 64;
    const auto cached = std::atomic_load_explicit(
        &planesCache, std::memory_order_acquire);
    size_t ot = 0;
    if (cached) {
        ot = cached->outliers.size();
    } else {
        ensureCodes();
        for (const QCode q : codes)
            ot += q.isOutlier();
    }
    return size() * 4 + groups * 7 + ot * 6;
}

} // namespace mokey
