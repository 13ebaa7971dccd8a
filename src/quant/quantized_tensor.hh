/**
 * @file
 * Quantized codes and code containers.
 *
 * Every quantized value is a 5 b code (paper §III-A): one bit selects
 * the Gaussian vs the outlier dictionary, one bit is the sign (used
 * only for Gaussian codes), and three bits index the dictionary. In
 * memory the codes live in the 4 b DRAM container of Fig. 5; inside
 * the library we keep the expanded 5 b form, exactly as the paper
 * suggests for on-chip storage.
 */

#ifndef MOKEY_QUANT_QUANTIZED_TENSOR_HH
#define MOKEY_QUANT_QUANTIZED_TENSOR_HH

#include <atomic>
#include <cstdint>
#include <memory>
#include <utility>
#include <vector>

#include "quant/tensor_dictionary.hh"
#include "tensor/tensor.hh"

namespace mokey
{

/** A single 5 b quantized code. */
struct QCode
{
    uint8_t raw; ///< bit 4: isOtl, bit 3: sign, bits 2..0: index

    static constexpr uint8_t otlBit = 1u << 4;
    static constexpr uint8_t signBit = 1u << 3;
    static constexpr uint8_t idxMask = 0x7;

    /** Make a Gaussian-dictionary code. */
    static QCode gaussian(bool negative, uint8_t index);

    /** Make an outlier-dictionary code (4 b outlier index). */
    static QCode outlier(uint8_t index);

    bool isOutlier() const { return raw & otlBit; }

    /** Sign of a Gaussian code: true when negative. */
    bool negative() const { return raw & signBit; }

    /** Sign as a +1/-1 integer (Gaussian codes only). */
    int theta() const { return negative() ? -1 : 1; }

    /** 3 b Gaussian index. */
    uint8_t index() const { return raw & idxMask; }

    /** 4 b outlier-dictionary index (sign bit reused as bit 3). */
    uint8_t outlierIndex() const { return raw & 0xf; }

    bool operator==(const QCode &o) const { return raw == o.raw; }
};

/**
 * Bytes per mag-plane element (one int16 grid value): the one
 * constant every consumer that sizes, splits or accounts a mag plane
 * reads.
 */
constexpr size_t kMagElemBytes = sizeof(int16_t);

/**
 * Which dense planes of a CodePlanes view are materialized. The two
 * engines stream different encodings of the same codes: the counting
 * engine reads the 2-byte (index, theta) byte planes, the magnitude
 * engine reads the kMagElemBytes (2 B) int16 mag plane. Deriving only
 * what one engine touches is the difference between 2 B and
 * 4 B of resident plane memory per element (see planesFootprint()).
 */
enum class PlaneSet : unsigned
{
    Bytes = 1u,       ///< uint8 index + int8 theta planes
    Mag = 2u,         ///< int16 signed grid-magnitude plane
    All = Bytes | Mag ///< everything (tests, mixed-engine use)
};

constexpr PlaneSet
operator|(PlaneSet a, PlaneSet b)
{
    return static_cast<PlaneSet>(static_cast<unsigned>(a) |
                                 static_cast<unsigned>(b));
}

/** True when @p have covers every plane in @p need. */
constexpr bool
planeSetCovers(PlaneSet have, PlaneSet need)
{
    return (static_cast<unsigned>(have) &
            static_cast<unsigned>(need)) ==
        static_cast<unsigned>(need);
}

/**
 * The execution-friendly view of a quantized matrix: the GPE/OPP
 * split of Fig. 6 made structural.
 *
 * The dense planes cover *every* element: Gaussian codes carry their
 * 3 b index and a +/-1 sign; outlier positions carry index 0 and
 * sign 0, so a branch-free inner loop can stream them and have their
 * histogram contributions vanish — the counting engine's inner loop
 * relies on that invariant (every plane builder asserts it in debug
 * builds). Only the planes named by @c sets are materialized; the
 * outlier sidecar is always built.
 * The outlier pairs live in a per-row sidecar of (column, decoded
 * centroid) entries sorted by column — short lists the counting
 * engine's OPP merge-iterates. The mag plane needs no sidecar walk:
 * its outlier slots hold the centroid's grid value.
 */
struct CodePlanes
{
    size_t rows = 0;
    size_t cols = 0;
    PlaneSet sets = PlaneSet::All; ///< planes actually materialized

    std::vector<uint8_t> index; ///< Gaussian index plane (0 at outliers)
    std::vector<int8_t> theta;  ///< +1/-1 sign plane (0 at outliers)

    /**
     * Signed magnitude plane on the int16 grid of one step
     * g = exp().gridUnit() = top / 127: theta * gridMagnitude(index)
     * for a Gaussian code, round((centroid - mean) / (scale g)) for
     * an outlier (TensorDictionary::outlierGrid). Every slot decodes
     * as mag * scale * g + mean, so the mag engine's whole dot
     * product, GPE histogram algebra and OPP alike, collapses to one
     * exact integer dot(magA, magW) times (s_a g)(s_w g) plus the
     * row, column and constant terms (see index_matmul.cc). The grid
     * moves a value by at most half a step, scale * g / 2, in the
     * engine only: codes and dictionaries keep their exact values.
     */
    std::vector<int16_t> mag;

    /**
     * One sidecar entry: an outlier's column, its outlier-dictionary
     * code index, and its decoded centroid value. The engines read
     * only (col, value); the index is what lets a planes-first
     * tensor (fromPlanes) materialize exact 5 b codes on demand.
     */
    struct Outlier
    {
        uint32_t col;
        uint8_t index;
        double value;
    };
    std::vector<Outlier> outliers;  ///< all rows, concatenated
    std::vector<uint32_t> rowStart; ///< rows+1 offsets into outliers
    /** Outliers per column over all rows: a GEMM with this tensor
     * as the weight counts coincident outlier pairs from it. */
    std::vector<uint32_t> outlierColCount;

    /**
     * Precomputed pairing-independent fold terms, one per row — the
     * SoA2 + b*PoM2 sums of the reconstruction, in each engine's own
     * arithmetic order so consumers read instead of recompute:
     *
     *  - magRowSum[r]  = exact integer sum of the mag-plane row
     *    (present iff the mag plane is), the mag engine's per-row
     *    fold;
     *  - byteRowSum[r] = signed-index-histogram collapse of the byte
     *    planes against the dictionary magnitudes (present iff the
     *    byte planes are), exactly the counting engine's fold.
     *
     * Every plane builder fills them (derivation, the fused
     * activation encoder, the fused GEMM epilogue), so for pinned
     * weights the per-column GEMM fold — O(N*K) if re-folded per
     * call — collapses to one array read.
     */
    std::vector<int64_t> magRowSum;
    std::vector<double> byteRowSum;

    /**
     * The view this one replaced on a plane-set upgrade. Keeping it
     * alive means a planes() reference taken before a concurrent
     * upgrade stays valid until the codes are next mutated (which
     * drops the whole chain). Upgrades converge to the union after
     * one step, so at most one stale view is ever retained.
     */
    std::shared_ptr<const CodePlanes> displaced;

    const uint8_t *indexRow(size_t r) const
    {
        return index.data() + r * cols;
    }
    const int8_t *thetaRow(size_t r) const
    {
        return theta.data() + r * cols;
    }
    const int16_t *magRow(size_t r) const
    {
        return mag.data() + r * cols;
    }
    const Outlier *outlierRow(size_t r) const
    {
        return outliers.data() + rowStart[r];
    }
    size_t outlierCount(size_t r) const
    {
        return rowStart[r + 1] - rowStart[r];
    }
};

/**
 * Concatenate per-row sidecar lists into @p p in row order, so the
 * sidecar is the same for every chunking of the rows that built
 * them; then fill outlierColCount and, in debug builds, check every
 * outlier slot against the plane conventions (derivation does the
 * same).
 */
void stitchOutliers(
    CodePlanes &p,
    const std::vector<std::vector<CodePlanes::Outlier>> &row_ot,
    const TensorDictionary &dict);

/**
 * The mag engine's pairing-independent row fold: the exact integer
 * sum of one int16 mag-plane row, outlier slots included.
 */
int64_t magPlaneRowSum(const int16_t *mg, size_t n);

/**
 * The counting engine's pairing-independent row fold: signed
 * per-index histogram of one byte-plane row collapsed against the
 * 8-entry magnitude table (@p mags zero-padded past the dictionary's
 * indexCount). Integer histogram + fixed-order 8-term collapse, so
 * the result is a deterministic function of the codes alone.
 */
double bytePlaneRowSum(const uint8_t *ix, const int8_t *th, size_t n,
                       const double *mags);

/**
 * Byte accounting for a tensor's CodePlanes view: what the derived
 * planes cost to keep resident versus what re-deriving them costs —
 * the trade pinPlanes() exists to decide explicitly.
 */
struct PlanesFootprint
{
    bool pinned = false;   ///< pin flag set on this tensor
    bool resident = false; ///< planes currently materialized
    bool bytesResident = false; ///< index/theta byte planes built
    bool magResident = false;   ///< int16 mag plane built
    size_t codeBytes = 0;  ///< expanded 5 b codes (1 B each)
    size_t planeBytes = 0; ///< resident planes + sidecars
    /**
     * Bytes held by views displaced by plane-set upgrades and kept
     * alive for outstanding references (CodePlanes::displaced).
     * Nonzero after an engine switch on a never-mutated (e.g.
     * pinned-weight) tensor; unpinPlanes() + pinPlanes() reclaims
     * it once no stale references remain.
     */
    size_t retiredBytes = 0;
    size_t outlierEntries = 0; ///< sidecar entries across all rows
    size_t deriveElements = 0; ///< codes walked by one rebuild

    /** Plane memory per code byte (the cost of keeping them). */
    double expansionRatio() const
    {
        return codeBytes != 0
            ? static_cast<double>(planeBytes) /
                static_cast<double>(codeBytes)
            : 0.0;
    }
};

/** A quantized matrix: codes plus the dictionary that decodes them. */
class QuantizedTensor
{
  public:
    QuantizedTensor();
    QuantizedTensor(size_t rows, size_t cols, TensorDictionary dict);

    /**
     * Planes-first construction: adopt an already-derived CodePlanes
     * view (the fused activation encoder's output) without ever
     * materializing the 5 b code array. The codes stay lazy — they
     * are rebuilt exactly (from the byte planes, or by inverting the
     * mag plane, plus the sidecar's outlier indexes) only when a
     * code-domain consumer (pack, decode, raw(), mutation) asks.
     * The execution engines stream planes, so the serving path never
     * pays for codes it does not read.
     */
    static QuantizedTensor
    fromPlanes(std::shared_ptr<const CodePlanes> planes,
               TensorDictionary dict);

    // Copying is a const read of the source, so callers may copy a
    // shared tensor while another thread builds its planes() or
    // materializes its lazy codes: the cache pointer travels through
    // the same atomics the build uses, and the codes are copied only
    // when the source's ready flag says they are stable (otherwise
    // the copy re-materializes from the shared planes on first use).
    // Declaring these suppresses the implicit moves; moves are
    // mutations (never safe under concurrent readers) and are
    // spelled out below.
    QuantizedTensor(const QuantizedTensor &o) : QuantizedTensor()
    {
        *this = o;
    }
    QuantizedTensor &
    operator=(const QuantizedTensor &o)
    {
        if (this != &o) {
            nRows = o.nRows;
            nCols = o.nCols;
            dict = o.dict;
            planesCache = std::atomic_load_explicit(
                &o.planesCache, std::memory_order_acquire);
            pinnedFlag.store(
                o.pinnedFlag.load(std::memory_order_relaxed),
                std::memory_order_relaxed);
            if (o.codesReady.load(std::memory_order_acquire)) {
                codes = o.codes;
                codesReady.store(true, std::memory_order_relaxed);
            } else {
                codes.clear();
                codesReady.store(false, std::memory_order_relaxed);
            }
        }
        return *this;
    }
    // Moves are mutations (never safe under concurrent readers), so
    // they may handle the cache and flags non-atomically; they are
    // spelled out only because the atomic members suppress the
    // defaults.
    QuantizedTensor(QuantizedTensor &&o) noexcept
        : nRows(o.nRows), nCols(o.nCols), codes(std::move(o.codes)),
          dict(std::move(o.dict)),
          planesCache(std::move(o.planesCache)),
          pinnedFlag(o.pinnedFlag.load(std::memory_order_relaxed)),
          codesReady(o.codesReady.load(std::memory_order_relaxed))
    {
    }
    QuantizedTensor &
    operator=(QuantizedTensor &&o) noexcept
    {
        if (this != &o) {
            nRows = o.nRows;
            nCols = o.nCols;
            codes = std::move(o.codes);
            dict = std::move(o.dict);
            planesCache = std::move(o.planesCache);
            pinnedFlag.store(
                o.pinnedFlag.load(std::memory_order_relaxed),
                std::memory_order_relaxed);
            codesReady.store(
                o.codesReady.load(std::memory_order_relaxed),
                std::memory_order_relaxed);
        }
        return *this;
    }

    size_t rows() const { return nRows; }
    size_t cols() const { return nCols; }
    size_t size() const { return nRows * nCols; }

    QCode &at(size_t r, size_t c)
    {
        ensureCodes();
        dropPlanes();
        return codes[r * nCols + c];
    }
    QCode at(size_t r, size_t c) const
    {
        ensureCodes();
        return codes[r * nCols + c];
    }

    QCode *row(size_t r)
    {
        ensureCodes();
        dropPlanes();
        return codes.data() + r * nCols;
    }
    const QCode *row(size_t r) const
    {
        ensureCodes();
        return codes.data() + r * nCols;
    }

    const std::vector<QCode> &raw() const
    {
        ensureCodes();
        return codes;
    }
    std::vector<QCode> &raw()
    {
        ensureCodes();
        dropPlanes();
        return codes;
    }

    /** True when the 5 b code array is materialized (false only for
     * a fromPlanes() tensor no code consumer has touched yet). */
    bool codesMaterialized() const
    {
        return codesReady.load(std::memory_order_acquire);
    }

    const TensorDictionary &dictionary() const { return dict; }

    /**
     * The dense-plane + outlier-sidecar view, built on first use and
     * cached until the codes are next mutated (any non-const
     * accessor drops the cache). Only the planes in @p need are
     * guaranteed materialized: an engine that streams byte planes
     * never pays for (or keeps) the 2 B/element mag plane. A request
     * for planes the cache lacks rebuilds it as the union of old and
     * new sets, so repeated mixed-engine use converges instead of
     * thrashing. Concurrent const callers are safe (the build is
     * single-flight behind atomics); mutating the tensor while
     * another thread reads planes() is not.
     */
    const CodePlanes &planes(PlaneSet need = PlaneSet::All) const;

    /**
     * Like planes(), but returns the owning pointer. Engines hold
     * this for the duration of a GEMM so a concurrent plane-set
     * upgrade (which swaps the cache pointer) can never free the
     * view mid-kernel.
     */
    std::shared_ptr<const CodePlanes>
    planesShared(PlaneSet need = PlaneSet::All) const;

    /**
     * Build the planes now (if absent) and pin them: an explicit
     * statement that this tensor's planes should stay resident —
     * weights that every forward pass multiplies against. Pass the
     * engine's enginePlaneSet() to keep only what it streams.
     * The pin (and the built planes) survives copies; mutation still
     * drops the stale planes (correctness first), and the retained
     * pin makes the next planes() rebuild them. Returns the planes.
     */
    const CodePlanes &pinPlanes(PlaneSet need = PlaneSet::All) const;

    /**
     * Clear the pin and release this tensor's cached planes so the
     * memory can be reclaimed (copies keep their own references).
     * Like mutation, not safe while another thread holds a planes()
     * reference into this object.
     */
    void unpinPlanes() const;

    /** True after pinPlanes() (copies inherit the flag). */
    bool planesPinned() const
    {
        return pinnedFlag.load(std::memory_order_relaxed);
    }

    /**
     * Byte accounting: resident plane memory versus the re-derive
     * cost unpinning trades it for. resident/planeBytes reflect the
     * current cache state; pass counts are exact either way.
     */
    PlanesFootprint planesFootprint() const;

    /** Expand every code back to its centroid value. */
    Tensor decode() const;

    /** Decoded value of the code at (r, c). */
    double decodeAt(size_t r, size_t c) const;

    /** Fraction of codes that index the outlier dictionary. */
    double outlierFraction() const;

    /** Memory footprint in the 4 b + pointer DRAM container. */
    size_t packedFootprintBits() const;

  private:
    size_t nRows;
    size_t nCols;
    /** 5 b codes; mutable + lazily built for fromPlanes() tensors. */
    mutable std::vector<QCode> codes;
    TensorDictionary dict;

    /**
     * Lazily built planes view. shared_ptr so copies of the tensor
     * share the (immutable) cache; a copy that later mutates its own
     * codes only resets its own pointer. Accessed only through the
     * std::atomic_* shared_ptr functions so concurrent const readers
     * are safe.
     */
    mutable std::shared_ptr<const CodePlanes> planesCache;

    /**
     * Sticky "keep planes resident" intent (travels with copies).
     * Orthogonal to the cache itself: mutation drops stale planes
     * regardless, and the flag only promises an eager rebuild was
     * requested once.
     */
    mutable std::atomic<bool> pinnedFlag{false};

    /**
     * False only for a fromPlanes() tensor whose codes have not been
     * materialized yet (the planes are then the source of truth).
     * Set with release after the codes vector is fully built, read
     * with acquire, so concurrent const readers are safe.
     */
    mutable std::atomic<bool> codesReady{true};

    /** Materialize lazy codes if needed (cheap no-op when ready). */
    void ensureCodes() const
    {
        if (!codesReady.load(std::memory_order_acquire))
            materializeCodes();
    }

    /** Single-flight code materialization from the cached planes. */
    void materializeCodes() const;

    void dropPlanes() const
    {
        std::atomic_store_explicit(
            &planesCache, std::shared_ptr<const CodePlanes>(),
            std::memory_order_release);
    }
};

/**
 * Stack several quantized matrices into one tall matrix (the batched
 * serving row space). All parts must have the same width and be
 * encoded against the same dictionary — the whole point of batching
 * is that one dictionary's setup is shared, so mismatched parts are
 * a logic error and panic.
 */
QuantizedTensor
concatQuantizedRows(const std::vector<const QuantizedTensor *> &parts);

} // namespace mokey

#endif // MOKEY_QUANT_QUANTIZED_TENSOR_HH
