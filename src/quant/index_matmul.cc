#include "quant/index_matmul.hh"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <memory>
#include <mutex>

#include "common/logging.hh"
#include "common/parallel.hh"
#include "common/simd.hh"
#include "quant/quantizer.hh"

namespace mokey
{

void
CrfState::clear()
{
    soi.fill(0);
    soa1.fill(0);
    sow1.fill(0);
    pom1 = 0;
}

void
IndexMatmulStats::add(uint64_t gaussian, uint64_t outlier)
{
    gaussianPairs.fetch_add(gaussian, std::memory_order_relaxed);
    outlierPairs.fetch_add(outlier, std::memory_order_relaxed);
}

double
IndexMatmulStats::outlierPairFraction() const
{
    const uint64_t g = gaussianPairs.load(std::memory_order_relaxed);
    const uint64_t ot = outlierPairs.load(std::memory_order_relaxed);
    if (g + ot == 0)
        return 0.0;
    return static_cast<double>(ot) / static_cast<double>(g + ot);
}

void
IndexMatmulStats::merge(const IndexMatmulStats &o)
{
    add(o.gaussianPairs.load(std::memory_order_relaxed),
        o.outlierPairs.load(std::memory_order_relaxed));
}

VectorConstants
vectorConstants(const QCode *codes, size_t n, const ExpDictionary &exp)
{
    VectorConstants c;
    for (size_t i = 0; i < n; ++i) {
        const QCode q = codes[i];
        if (q.isOutlier())
            continue;
        const double p = exp.power(q.index());
        if (q.negative()) {
            c.soa2 -= p;
            c.pom2 -= 1.0;
        } else {
            c.soa2 += p;
            c.pom2 += 1.0;
        }
    }
    return c;
}

namespace
{

/** Decoded centroid of a code (no fixed-point snapping). */
double
decodeCode(QCode q, const TensorDictionary &d)
{
    if (q.isOutlier())
        return d.outlierValue(q.outlierIndex());
    return d.gaussianValue(q.negative(), q.index());
}

} // anonymous namespace

double
indexDot(const QCode *a, const TensorDictionary &dict_a,
         const QCode *w, const TensorDictionary &dict_w, size_t k,
         const VectorConstants &ca, const VectorConstants &cw,
         IndexMatmulStats *stats, CrfState *crf_out)
{
    const ExpDictionary &exp = dict_a.exp();
    MOKEY_ASSERT(exp.a() == dict_w.exp().a() &&
                 exp.b() == dict_w.exp().b(),
                 "operands use different exponential dictionaries");
    const size_t h = exp.indexCount();
    MOKEY_ASSERT(h <= kMaxGaussianIndexes,
                 "index space %zu exceeds CRF capacity", h);

    CrfState crf;
    double ot_acc = 0.0;
    uint64_t g_pairs = 0, ot_pairs = 0;

    const double m_a = dict_a.mean(), m_w = dict_w.mean();

    for (size_t i = 0; i < k; ++i) {
        const QCode qa = a[i], qw = w[i];
        if (qa.isOutlier() || qw.isOutlier()) {
            // OPP path: one real MAC plus the exact correction for
            // what the precomputed terms already counted.
            const double av = decodeCode(qa, dict_a);
            const double wv = decodeCode(qw, dict_w);
            double corr;
            if (qa.isOutlier() && qw.isOutlier())
                corr = m_a * m_w;
            else if (qa.isOutlier())
                corr = m_a * wv;
            else
                corr = m_w * av;
            ot_acc += av * wv - corr;
            ++ot_pairs;
            continue;
        }
        // GPE path: add the 3 b indexes, XOR the signs, bump the
        // CRFs (Fig. 6).
        const int sign = (qa.negative() != qw.negative()) ? -1 : 1;
        crf.soi[qa.index() + qw.index()] += sign;
        crf.soa1[qa.index()] += sign;
        crf.sow1[qw.index()] += sign;
        crf.pom1 += sign;
        ++g_pairs;
    }

    // Post-processing: multiply histogram counts by their bases and
    // scale by the per-tensor constants (the OPP's serial phase).
    double soi = 0.0;
    for (size_t e = 0; e < 2 * h - 1; ++e)
        soi += crf.soi[e] * exp.power(e);
    double soa1 = 0.0, sow1 = 0.0;
    for (size_t i = 0; i < h; ++i) {
        soa1 += crf.soa1[i] * exp.power(i);
        sow1 += crf.sow1[i] * exp.power(i);
    }

    const double s_a = dict_a.scale(), s_w = dict_w.scale();
    const double b = exp.b();

    const double result =
        s_a * s_w * soi +
        s_a * s_w * b * (soa1 + sow1) +
        s_a * s_w * b * b * crf.pom1 +
        s_a * m_w * (ca.soa2 + b * ca.pom2) +
        s_w * m_a * (cw.soa2 + b * cw.pom2) +
        static_cast<double>(k) * m_a * m_w +
        ot_acc;

    if (stats)
        stats->add(g_pairs, ot_pairs);
    if (crf_out)
        *crf_out = crf;
    return result;
}

Tensor
indexMatmulTransBReference(const QuantizedTensor &a,
                           const QuantizedTensor &wt,
                           IndexMatmulStats *stats)
{
    MOKEY_ASSERT(a.cols() == wt.cols(),
                 "index matmul reduction mismatch: %zu vs %zu",
                 a.cols(), wt.cols());
    const size_t m = a.rows(), n = wt.rows(), k = a.cols();
    const ExpDictionary &exp = a.dictionary().exp();

    // Pairing-independent sums: per activation row and per weight
    // column (row of Wt). In hardware these are produced while the
    // previous layer's output is quantized (rows) and at compile time
    // (columns).
    std::vector<VectorConstants> row_c(m), col_c(n);
    for (size_t i = 0; i < m; ++i)
        row_c[i] = vectorConstants(a.row(i), k, exp);
    for (size_t j = 0; j < n; ++j)
        col_c[j] = vectorConstants(wt.row(j), k,
                                   wt.dictionary().exp());

    Tensor out(m, n);
    for (size_t i = 0; i < m; ++i) {
        for (size_t j = 0; j < n; ++j) {
            out.at(i, j) = static_cast<float>(
                indexDot(a.row(i), a.dictionary(), wt.row(j),
                         wt.dictionary(), k, row_c[i], col_c[j],
                         stats));
        }
    }
    return out;
}

GemmConstants
gemmConstants(const TensorDictionary &da, const TensorDictionary &dw,
              size_t k)
{
    const ExpDictionary &exp = da.exp();
    MOKEY_ASSERT(exp.a() == dw.exp().a() &&
                 exp.b() == dw.exp().b(),
                 "operands use different exponential dictionaries");
    MOKEY_ASSERT(exp.indexCount() <= kMaxGaussianIndexes,
                 "index space %zu exceeds CRF capacity",
                 exp.indexCount());

    GemmConstants ctx;
    ctx.k = k;
    ctx.sA = da.scale();
    ctx.sW = dw.scale();
    ctx.mA = da.mean();
    ctx.mW = dw.mean();
    ctx.gA = ctx.sA * da.exp().gridUnit();
    ctx.gW = ctx.sW * dw.exp().gridUnit();
    ctx.c0 = ctx.gA * ctx.gW;
    ctx.constTerm = static_cast<double>(ctx.k) * ctx.mA * ctx.mW;
    ctx.maxA = da.maxGridMagnitude();
    ctx.maxW = dw.maxGridMagnitude();
    ctx.kBlock = magKBlock(ctx.maxA, ctx.maxW);
    const size_t h = exp.indexCount();
    for (size_t i = 0; i < h; ++i)
        ctx.mags[i] = exp.magnitude(i);
    for (size_t ia = 0; ia < kMaxGaussianIndexes; ++ia)
        for (size_t iw = 0; iw < kMaxGaussianIndexes; ++iw)
            ctx.prod[(ia << 3) | iw] = ctx.mags[ia] * ctx.mags[iw];
    return ctx;
}

namespace
{

/**
 * Small sharded LRU behind cachedGemmConstants(). The key is the
 * complete set of value inputs to gemmConstants() — two dictionaries'
 * (scale, mean, largest grid magnitude), the shared exponential
 * dictionary's (a, b, indexCount), and K — so two keys that compare
 * equal derive bit-identical constants and a collision is by
 * construction impossible to observe. Sharding by key hash keeps concurrent lanes
 * off each other's mutex; each shard is a tiny move-to-front vector
 * (attention sites produce one K per (layer, seq) — a handful of
 * live keys per serving mix).
 */
struct GemmKey
{
    double sA, mA, sW, mW, expA, expB;
    int32_t maxA, maxW;
    size_t h, k;

    bool operator==(const GemmKey &o) const
    {
        return sA == o.sA && mA == o.mA && sW == o.sW &&
               mW == o.mW && expA == o.expA && expB == o.expB &&
               maxA == o.maxA && maxW == o.maxW && h == o.h &&
               k == o.k;
    }
};

class GemmConstantsCache
{
  public:
    static GemmConstantsCache &global()
    {
        static GemmConstantsCache cache;
        return cache;
    }

    GemmConstants get(const TensorDictionary &da,
                      const TensorDictionary &dw, size_t k)
    {
        const ExpDictionary &exp = da.exp();
        const GemmKey key{da.scale(),
                          da.mean(),
                          dw.scale(),
                          dw.mean(),
                          exp.a(),
                          exp.b(),
                          da.maxGridMagnitude(),
                          dw.maxGridMagnitude(),
                          exp.indexCount(),
                          k};
        Shard &shard = shards[hashKey(key) % kShards];
        {
            std::lock_guard<std::mutex> lk(shard.mu);
            for (size_t i = 0; i < shard.entries.size(); ++i) {
                if (shard.entries[i].key == key) {
                    if (i != 0)
                        std::rotate(shard.entries.begin(),
                                    shard.entries.begin() + i,
                                    shard.entries.begin() + i + 1);
                    hits.fetch_add(1, std::memory_order_relaxed);
                    return shard.entries.front().value;
                }
            }
        }
        // Derive outside the shard lock — the derivation is pure, so
        // two lanes racing the same key just both insert equal
        // values.
        const GemmConstants value = gemmConstants(da, dw, k);
        misses.fetch_add(1, std::memory_order_relaxed);
        std::lock_guard<std::mutex> lk(shard.mu);
        if (shard.entries.size() >= kPerShard)
            shard.entries.pop_back();
        shard.entries.insert(shard.entries.begin(), {key, value});
        return value;
    }

    uint64_t hitCount() const
    {
        return hits.load(std::memory_order_relaxed);
    }

    uint64_t missCount() const
    {
        return misses.load(std::memory_order_relaxed);
    }

  private:
    static constexpr size_t kShards = 8;
    static constexpr size_t kPerShard = 8;

    struct Entry
    {
        GemmKey key;
        GemmConstants value;
    };

    struct Shard
    {
        std::mutex mu;
        std::vector<Entry> entries;
    };

    static size_t hashKey(const GemmKey &key)
    {
        // FNV-1a over the key bytes' value-defining fields; doubles
        // hashed by bit pattern (keys are compared by ==, so -0.0 vs
        // 0.0 landing in different shards is merely a missed hit).
        uint64_t h = 1469598103934665603ull;
        const auto mix = [&h](uint64_t v) {
            h = (h ^ v) * 1099511628211ull;
        };
        const auto mixd = [&](double d) {
            uint64_t bits;
            std::memcpy(&bits, &d, sizeof bits);
            mix(bits);
        };
        mixd(key.sA);
        mixd(key.mA);
        mixd(key.sW);
        mixd(key.mW);
        mixd(key.expA);
        mixd(key.expB);
        mix(static_cast<uint64_t>(key.maxA));
        mix(static_cast<uint64_t>(key.maxW));
        mix(key.h);
        mix(key.k);
        return static_cast<size_t>(h);
    }

    std::array<Shard, kShards> shards;
    std::atomic<uint64_t> hits{0};
    std::atomic<uint64_t> misses{0};
};

} // anonymous namespace

GemmConstants
cachedGemmConstants(const TensorDictionary &da,
                    const TensorDictionary &dw, size_t k)
{
    return GemmConstantsCache::global().get(da, dw, k);
}

uint64_t
gemmConstantsCacheHits()
{
    return GemmConstantsCache::global().hitCount();
}

uint64_t
gemmConstantsCacheMisses()
{
    return GemmConstantsCache::global().missCount();
}

namespace
{

/**
 * One engine output element, given the exact integer dot product
 * @p gdot of two int16 grid-plane rows (simd.hh magDotBlock).
 *
 * Every mag-plane slot decodes as mag * g + mean, with g the
 * operand's grid step in value units (GemmConstants::gA / gW) — a
 * Gaussian slot holds th * round(127 (a^i + b) / top), an outlier
 * slot its centroid's grid value — so with A = gA a + mA and
 * W = gW w + mW for every element
 *   sum A W = c0 dot(a, w) + gA mW sum a + gW mA sum w + k mA mW,
 * where the row sums are the precomputed exact fold terms. For a
 * Gaussian pair this is the GPE histogram algebra collapsed: its
 * online terms s_a s_w (a^(ia+iw) + b a^ia + b a^iw + b^2) * sign
 * factor into s_a s_w [th_a (a^ia + b)] * [th_w (a^iw + b)], with
 * each bracket snapped to the grid. An outlier pair — the OPP's one
 * real multiply — is the same product of two slots, so no sidecar
 * is walked and no correction is needed. The CRF histogram model
 * itself lives on in indexDot(), which the property tests hold this
 * engine to within the grid's rounding. Its one caller is magTile().
 */
inline double
engineDot(const GemmConstants &ctx, int64_t gdot, double row_term,
          double col_term)
{
    return ctx.c0 * static_cast<double>(gdot) + row_term + col_term +
        ctx.constTerm;
}

/**
 * Publish one GEMM's pair counts. Every (row, column, reduction
 * index) triple is a pair, and an outlier pair when either operand
 * is an outlier there: n * (A outliers) + m * (W outliers) minus the
 * coincident ones, which W's per-column outlier counts give in one
 * pass over A's sidecar — O(outliers) per call, nothing per output
 * element.
 */
void
addPairStats(const CodePlanes &pa, const CodePlanes &pw, size_t k,
             IndexMatmulStats *stats)
{
    if (!stats)
        return;
    const uint64_t m = pa.rows, n = pw.rows;
    uint64_t both = 0;
    for (const CodePlanes::Outlier &o : pa.outliers)
        both += pw.outlierColCount[o.col];
    const uint64_t ot_pairs =
        n * pa.outliers.size() + m * pw.outliers.size() - both;
    stats->add(m * n * k - ot_pairs, ot_pairs);
}

/** Weight-tile width: kTileN*k*kMagElemBytes mag-plane bytes (48 KiB
 * at k = 768, 192 KiB at k = 3072) stay L2-resident. */
constexpr size_t kTileN = 32;

/**
 * Mag-engine outputs for rows [lo, hi) x columns [jb, jend) (at most
 * kTileN columns), written to out[(i - lo) * ldo + j]: the mag tile
 * kernel of both fused-GEMM splits. Each 4-row group runs
 * one register-blocked magDotBlock over the weight tile, so a weight
 * row is loaded once per 4 activation rows; every dot is the exact
 * integer sum whatever the group or tail.
 *
 * noinline on purpose: one instantiation gives engineDot the same FP
 * contraction for every caller, which the bit-parity guarantee
 * (either split == any thread count == the tests' grid oracle)
 * depends on.
 */
__attribute__((noinline)) void
magTile(const GemmConstants &ctx, const CodePlanes &pa,
        const CodePlanes &pw, size_t lo, size_t hi, size_t jb,
        size_t jend, const double *row_term, const double *col_term,
        float *out, size_t ldo)
{
    const size_t k = pa.cols;
    int64_t dots[4 * kTileN];
    for (size_t i = lo; i < hi; i += 4) {
        const size_t mr = std::min<size_t>(4, hi - i);
        magDotBlock(pa.magRow(i), k, mr, pw.magRow(jb), k, jend - jb,
                    k, ctx.kBlock, dots, kTileN);
        for (size_t r = 0; r < mr; ++r) {
            float *orow = out + (i + r - lo) * ldo;
            for (size_t j = jb; j < jend; ++j)
                orow[j] = static_cast<float>(
                    engineDot(ctx, dots[r * kTileN + (j - jb)],
                              row_term[i + r], col_term[j]));
        }
    }
}

/**
 * Smallest streamed weight plane that takes the weight-stationary
 * split: half of one core's 2 MiB L2 on the Xeon it was measured on.
 * A smaller plane is re-read by every thread from cache, not memory,
 * so the split saves no DRAM traffic and only adds its second
 * fan-out. Forced onto the reduced model's planes (at most 295 KiB
 * when mag elements were 8 B), the split cost 7% of mokey-bench
 * ragged-http and 11% of short-http throughput (median of 10
 * alternating pairs each), while the BERT-base planes (4.5 MiB and
 * up then) gained on both BERT workloads. At kMagElemBytes = 2 the
 * same cut still separates them: the 1/8-scale reduced model's
 * planes are 72 KiB at most, BERT-base's 1.125 MiB and up.
 */
constexpr size_t kWeightStationaryMinBytes = size_t{1} << 20;

/**
 * One counting-engine dot product over the byte planes and outlier
 * sidecars — the paper's GPE/OPP dataflow run literally:
 *
 * GPE: accumulate the signed 64-bin histogram of joint (ia, iw)
 * index counts (pairHistogram: 3 b index adds + theta-XOR signs in
 * hardware; SIMD bucket adds here), then post-process with ONE
 * multiply per dictionary pair — the 64-entry dot against the
 * decoded magnitude products. Because theta is 0 at outlier slots,
 * outlier pairs vanish from the histogram by construction (the
 * convention planes() asserts). The histogram phase is exact
 * integer arithmetic; the collapse is a fixed-order loop, so every
 * output element is a deterministic function of the codes alone.
 *
 * OPP: merge the column-sorted sidecars; each entry is one real MAC
 * plus the exact correction for what the precomputed terms already
 * counted, with the Gaussian partner decoded from its byte planes
 * (theta * mags[idx] * s + m).
 *
 * noinline for the same reason as magTile: one instantiation =
 * one FP contraction order for every caller.
 */
__attribute__((noinline)) double
countingDot(const GemmConstants &cc, const uint8_t *ia,
            const int8_t *ta, const CodePlanes::Outlier *oa,
            size_t na, const uint8_t *iw, const int8_t *tw,
            const CodePlanes::Outlier *ow, size_t nw,
            double row_term, double col_term)
{
    const GemmConstants &ctx = cc;

    int32_t hist[kMaxGaussianIndexes * kMaxGaussianIndexes];
    pairHistogram(ia, ta, iw, tw, ctx.k, hist);
    double gsum = 0.0;
    for (size_t b = 0; b < cc.prod.size(); ++b)
        gsum += hist[b] * cc.prod[b];
    const double gpe = ctx.sA * ctx.sW * gsum;

    double ot_acc = 0.0;
    size_t x = 0, y = 0;
    while (x < na && y < nw) {
        if (oa[x].col == ow[y].col) {
            ot_acc += oa[x].value * ow[y].value - ctx.mA * ctx.mW;
            ++x;
            ++y;
        } else if (oa[x].col < ow[y].col) {
            const uint32_t c = oa[x].col;
            const double wv =
                tw[c] * cc.mags[iw[c]] * ctx.sW + ctx.mW;
            ot_acc += (oa[x].value - ctx.mA) * wv;
            ++x;
        } else {
            const uint32_t c = ow[y].col;
            const double av =
                ta[c] * cc.mags[ia[c]] * ctx.sA + ctx.mA;
            ot_acc += (ow[y].value - ctx.mW) * av;
            ++y;
        }
    }
    for (; x < na; ++x) {
        const uint32_t c = oa[x].col;
        const double wv = tw[c] * cc.mags[iw[c]] * ctx.sW + ctx.mW;
        ot_acc += (oa[x].value - ctx.mA) * wv;
    }
    for (; y < nw; ++y) {
        const uint32_t c = ow[y].col;
        const double av = ta[c] * cc.mags[ia[c]] * ctx.sA + ctx.mA;
        ot_acc += (ow[y].value - ctx.mW) * av;
    }

    return gpe + row_term + col_term + ctx.constTerm + ot_acc;
}

} // anonymous namespace

Tensor
indexMatmulTransB(const QuantizedTensor &a, const QuantizedTensor &wt,
                  IndexMatmulStats *stats, Lane lane)
{
    return indexMatmulTransBFused(a, wt, IndexEngine::Mag, nullptr,
                                  nullptr, PlaneSet::Mag, true, nullptr,
                                  stats, lane)
        .dense;
}

Tensor
indexMatmulTransBCounting(const QuantizedTensor &a,
                          const QuantizedTensor &wt,
                          IndexMatmulStats *stats, Lane lane)
{
    return indexMatmulTransBFused(a, wt, IndexEngine::Count, nullptr,
                                  nullptr, PlaneSet::Bytes, true, nullptr,
                                  stats, lane)
        .dense;
}

bool
weightStationarySplit(size_t n, size_t k)
{
    // Both engines stream 2 B per weight element: the int16 mag plane
    // (kMagElemBytes) or the uint8 index + int8 theta byte planes.
    return n * k * kMagElemBytes >= kWeightStationaryMinBytes;
}

FusedGemmOut
indexMatmulTransBFused(const QuantizedTensor &a,
                       const QuantizedTensor &wt, IndexEngine engine,
                       const FusedRowEpilogue &epilogue,
                       const TensorDictionary *outDict,
                       PlaneSet outSets, bool keepDense,
                       const GemmConstants *constants,
                       IndexMatmulStats *stats, Lane lane)
{
    MOKEY_ASSERT(a.cols() == wt.cols(),
                 "index matmul reduction mismatch: %zu vs %zu",
                 a.cols(), wt.cols());
    MOKEY_ASSERT(outDict != nullptr || keepDense,
                 "fused GEMM would discard its output");
    const size_t m = a.rows(), n = wt.rows(), k = a.cols();
    const GemmConstants ctx = constants
        ? *constants
        : cachedGemmConstants(a.dictionary(), wt.dictionary(), k);
    MOKEY_ASSERT(ctx.k == k, "hoisted constants built for K=%zu, "
                 "GEMM has K=%zu", ctx.k, k);

    const bool mag_eng = engine == IndexEngine::Mag;
    const PlaneSet need =
        mag_eng ? PlaneSet::Mag : PlaneSet::Bytes;
    const auto pa_sp = a.planesShared(need);
    const auto pw_sp = wt.planesShared(need);
    const CodePlanes &pa = *pa_sp;
    const CodePlanes &pw = *pw_sp;

    // The pairing-independent SoA2 + b*PoM2 folds were computed once
    // when these planes were encoded or derived, in this engine's own
    // arithmetic order — here they
    // collapse to one multiply per row/column instead of an O(k)
    // re-fold per GEMM call (the column fold alone is ~half the
    // work of an m=1 decode GEMM).
    MOKEY_ASSERT(mag_eng ? pa.magRowSum.size() == m &&
                               pw.magRowSum.size() == n
                         : pa.byteRowSum.size() == m &&
                               pw.byteRowSum.size() == n,
                 "planes lack their precomputed fold sums");
    std::vector<double> row_term(m), col_term(n);
    for (size_t i = 0; i < m; ++i)
        row_term[i] = mag_eng
            ? ctx.gA * ctx.mW * static_cast<double>(pa.magRowSum[i])
            : ctx.sA * ctx.mW * pa.byteRowSum[i];
    for (size_t j = 0; j < n; ++j)
        col_term[j] = mag_eng
            ? ctx.gW * ctx.mA * static_cast<double>(pw.magRowSum[j])
            : ctx.sW * ctx.mA * pw.byteRowSum[j];

    FusedGemmOut out;
    if (keepDense)
        out.dense = Tensor(m, n);

    const bool obytes =
        outDict && planeSetCovers(outSets, PlaneSet::Bytes);
    const bool omag =
        outDict && planeSetCovers(outSets, PlaneSet::Mag);
    LadderSpec lad;
    std::shared_ptr<CodePlanes> op;
    std::vector<std::vector<CodePlanes::Outlier>> row_ot;
    if (outDict) {
        MOKEY_ASSERT(obytes || omag,
                     "fused encode needs a dense plane set");
        lad = LadderSpec::from(*outDict);
        op = std::make_shared<CodePlanes>();
        op->rows = m;
        op->cols = n;
        op->sets = outSets;
        if (obytes) {
            op->index.resize(m * n);
            op->theta.resize(m * n);
            op->byteRowSum.resize(m);
        }
        if (omag) {
            op->mag.resize(m * n);
            op->magRowSum.resize(m);
        }
        row_ot.resize(m);
    }

    // Output rows [lo, hi) x columns [jb, jend), written to
    // rows[(i - lo) * n + j]: the one tile kernel of both splits
    // below (magTile / noinline countingDot).
    const auto tile = [&](size_t lo, size_t hi, size_t jb, size_t jend,
                          float *rows) {
        if (mag_eng) {
            magTile(ctx, pa, pw, lo, hi, jb, jend, row_term.data(),
                    col_term.data(), rows, n);
            return;
        }
        for (size_t i = lo; i < hi; ++i) {
            float *orow = rows + (i - lo) * n;
            const uint8_t *ia = pa.indexRow(i);
            const int8_t *ta = pa.thetaRow(i);
            const CodePlanes::Outlier *oa = pa.outlierRow(i);
            const size_t na = pa.outlierCount(i);
            for (size_t j = jb; j < jend; ++j) {
                orow[j] = static_cast<float>(countingDot(
                    ctx, ia, ta, oa, na, pw.indexRow(j),
                    pw.thetaRow(j), pw.outlierRow(j),
                    pw.outlierCount(j), row_term[i], col_term[j]));
            }
        }
    };
    // Epilogue + re-quantization of complete rows [lo, hi), stored
    // from @p rows on: the plane-to-plane handoff of the fused graph.
    const auto finishRows = [&](size_t lo, size_t hi, float *rows) {
        for (size_t i = lo; i < hi; ++i) {
            float *vals = rows + (i - lo) * n;
            if (epilogue)
                epilogue(i, vals, n);
            if (!outDict)
                continue;
            uint8_t *ix = obytes ? op->index.data() + i * n : nullptr;
            int8_t *th = obytes ? op->theta.data() + i * n : nullptr;
            int16_t *mg = omag ? op->mag.data() + i * n : nullptr;
            lad.encodeRow(vals, n, ix, th, mg, row_ot[i]);
            if (omag)
                op->magRowSum[i] = magPlaneRowSum(mg, n);
            if (obytes)
                op->byteRowSum[i] =
                    bytePlaneRowSum(ix, th, n, lad.foldMags);
        }
    };
    if (weightStationarySplit(n, k)) {
        // Weight-stationary: each chunk owns a range of output
        // columns — a block of weight rows — and computes it for all
        // m rows, so every weight-plane byte is streamed from memory
        // once per call, each core streaming a disjoint share, and a
        // 1-row decode step still runs on every thread. Without a
        // dense output the float rows live in a transient buffer.
        std::vector<float> buf;
        if (!keepDense)
            buf.resize(m * n);
        float *const rows = keepDense ? out.dense.data() : buf.data();
        parallelForRange(lane, 0, n, 1, [&](size_t jlo, size_t jhi) {
            for (size_t jb = jlo; jb < jhi; jb += kTileN)
                tile(0, m, jb, std::min(jb + kTileN, jhi), rows);
        });
        // A row is complete only once every column chunk is done, so
        // the rows are finished in a second fan-out. On a 4-core Xeon
        // that is ~6% of a 5-row BERT-base forward, and finishing all
        // rows on one thread measured no faster.
        parallelForRange(lane, 0, m, 1, [&](size_t lo, size_t hi) {
            finishRows(lo, hi, rows + lo * n);
        });
    } else {
        // Row bands: each chunk owns activation rows, walks every
        // weight tile for them, then finishes its rows while they are
        // band-warm. Without a dense output the band's rows live in a
        // band-local buffer: the floats never leave this thread.
        parallelForRange(lane, 0, m, 1, [&](size_t lo, size_t hi) {
            std::vector<float> buf;
            if (!keepDense)
                buf.resize((hi - lo) * n);
            float *const rows =
                keepDense ? out.dense.row(lo) : buf.data();
            for (size_t jb = 0; jb < n; jb += kTileN)
                tile(lo, hi, jb, std::min(jb + kTileN, n), rows);
            finishRows(lo, hi, rows);
        });
    }
    addPairStats(pa, pw, k, stats);

    if (outDict) {
        // Row-order sidecar stitch, identical to encodeToPlanes().
        stitchOutliers(*op, row_ot, *outDict);
        out.planes =
            QuantizedTensor::fromPlanes(std::move(op), *outDict);
    }
    return out;
}

Tensor
decodedMatmulTransB(const QuantizedTensor &a, const QuantizedTensor &wt)
{
    MOKEY_ASSERT(a.cols() == wt.cols(), "shape mismatch");
    const size_t m = a.rows(), n = wt.rows(), k = a.cols();
    Tensor out(m, n);
    for (size_t i = 0; i < m; ++i) {
        for (size_t j = 0; j < n; ++j) {
            double acc = 0.0;
            for (size_t p = 0; p < k; ++p)
                acc += a.decodeAt(i, p) * wt.decodeAt(j, p);
            out.at(i, j) = static_cast<float>(acc);
        }
    }
    return out;
}

} // namespace mokey
