/**
 * @file
 * Encoding tensors into dictionary codes (paper §II-A, Fig. 7).
 *
 * Two encode paths exist on purpose:
 *  - encode(): the reference nearest-centroid search used when
 *    preparing weights offline;
 *  - encodeComparatorLadder(): a faithful functional model of the
 *    hardware output-activation quantizer of Fig. 7 — compare the
 *    value against every centroid of the sorted combined (G + OT)
 *    dictionary, leading-one detect, pick the closer of the two
 *    straddling centroids. The ladder always returns the globally
 *    nearest centroid; the reference path may differ only for values
 *    straddling the Gaussian/outlier threshold, where both choices
 *    carry the same reconstruction error bound.
 */

#ifndef MOKEY_QUANT_QUANTIZER_HH
#define MOKEY_QUANT_QUANTIZER_HH

#include "common/parallel.hh"
#include "quant/quantized_tensor.hh"
#include "tensor/tensor.hh"

namespace mokey
{

/**
 * The comparator-ladder constants of one dictionary, hoisted out of
 * the per-row encode loop and shared by every fused encoder —
 * Quantizer::encodeToPlanes() and the fused GEMM epilogue both run
 * the same encodeRow(), so their planes are bit-identical by
 * construction.
 */
struct LadderSpec
{
    /** Ascending magnitudes padded to the kernel's 8-entry table by
     * repeating the last real entry (what encodeLadder expects). */
    double mags[8] = {};
    /** The same table zero-padded past indexCount — the byte-plane
     * fold's collapse table (bytePlaneRowSum). */
    double foldMags[8] = {};
    size_t h = 0; ///< real magnitude entries, in [1, 8]
    double mean = 0.0;
    double scale = 1.0;
    /** Outlier threshold on |v - mean|; +inf without an OT table. */
    double cut = 0.0;
    const TensorDictionary *dict = nullptr;

    static LadderSpec from(const TensorDictionary &dict);

    /**
     * Encode one row of @p n floats: run the vectorized ladder into
     * the requested plane slices (any of @p ix / @p th / @p mg may
     * be null), then resolve the rare outlier lanes scalar,
     * appending (col, OT index, centroid) entries to @p ot in column
     * order and writing each outlier's mag slot
     * (TensorDictionary::outlierMagValue). Returns the outlier
     * count.
     */
    size_t encodeRow(const float *src, size_t n, uint8_t *ix,
                     int8_t *th, double *mg,
                     std::vector<CodePlanes::Outlier> &ot) const;
};

/** Quantization entry point bundling dictionary build + encode. */
class Quantizer
{
  public:
    /** @param exp the shared fitted exponential dictionary. */
    explicit Quantizer(ExpDictionary exp);

    const ExpDictionary &exp() const { return expDict; }

    /**
     * Build a per-tensor dictionary from the tensor's own values
     * (the weight path — values are statically known).
     */
    TensorDictionary buildDictionary(
        const Tensor &t, const TensorDictConfig &cfg = {}) const;

    /**
     * Build a per-tensor dictionary from profiled samples (the
     * activation path — §II-C "estimated using profiling").
     */
    TensorDictionary buildDictionaryFromSamples(
        const std::vector<float> &samples,
        const TensorDictConfig &cfg = {}) const;

    /**
     * Encode a full tensor against a prepared dictionary. Rows fan
     * out over the executor on @p lane; results are lane- and
     * thread-count-independent.
     */
    QuantizedTensor encode(const Tensor &t,
                           const TensorDictionary &dict,
                           Lane lane = {}) const;

    /**
     * Fused single-pass encode for the serving path: walk each row
     * band once and emit the index/theta/mag planes and the outlier
     * sidecars directly — no intermediate code tensor, no separate
     * derivePlanes walk. The comparator ladder runs vectorized
     * (simd.hh encodeLadder) and only the planes in @p sets are
     * materialized, so an activation headed for the counting engine
     * costs 2 B/element of writes instead of 1 B codes + 10 B
     * derived planes. The result is a planes-first QuantizedTensor
     * (fromPlanes): bit-identical planes to
     * encode(t, dict).planes(sets), with the 5 b codes themselves
     * materialized lazily only if pack/decode/tests ask. Rows fan
     * out over the executor on @p lane; results are lane- and
     * thread-count-independent.
     */
    QuantizedTensor encodeToPlanes(const Tensor &t,
                                   const TensorDictionary &dict,
                                   PlaneSet sets = PlaneSet::All,
                                   Lane lane = {}) const;

    /** Encode one value by nearest-centroid search (reference). */
    QCode encodeValue(double v, const TensorDictionary &dict) const;

    /**
     * Encode one value with the comparator-ladder semantics of
     * Fig. 7 (hardware output quantizer model).
     */
    QCode encodeComparatorLadder(double v,
                                 const TensorDictionary &dict) const;

    /** Decode helper: value of @p code under @p dict. */
    static double decode(QCode code, const TensorDictionary &dict);

  private:
    ExpDictionary expDict;
};

} // namespace mokey

#endif // MOKEY_QUANT_QUANTIZER_HH
