/**
 * @file
 * Per-tensor dictionary pair (paper §II-C, §II-E).
 *
 * Each tensor gets (a) a Gaussian dictionary — the shared exponential
 * dictionary scaled by the tensor's standard deviation and shifted by
 * its mean — and (b) a small outlier dictionary of 16 b fixed-point
 * centroids covering the tail beyond the Gaussian range. Generation is
 * non-iterative for the Gaussian part (a linear transform of the
 * Golden Dictionary); outlier centroids come from clustering the few
 * tail samples seen during profiling (weights: exact tail).
 */

#ifndef MOKEY_QUANT_TENSOR_DICTIONARY_HH
#define MOKEY_QUANT_TENSOR_DICTIONARY_HH

#include <cstddef>
#include <vector>

#include "common/fixed_point.hh"
#include "quant/exp_dictionary.hh"

namespace mokey
{

/** Tuning knobs for per-tensor dictionary generation. */
struct TensorDictConfig
{
    /**
     * Outlier cut in units of the *extrapolated next* exponential
     * step: a value is an outlier when |v - m| / s exceeds the
     * midpoint of a^(h-1)+b and a^h+b. 1.0 is the default midpoint;
     * larger values shrink the outlier set.
     */
    double otCutScale = 1.0;

    /** Maximum outlier-dictionary entries (paper: 16). */
    size_t otEntries = 16;

    /** Total fixed-point width used for centroids (paper: 16). */
    int fixedBits = 16;
};

/**
 * The per-tensor quantization dictionary.
 *
 * Gaussian codes decode to  theta * (a^i + b) * s + m ; outlier codes
 * decode to an entry of the outlier centroid table. Centroids are
 * snapped to the tensor's 16 b fixed-point format so the whole
 * pipeline stays in the integer domain (§II-F).
 */
class TensorDictionary
{
  public:
    TensorDictionary();

    /**
     * Build from the values of a tensor (weights: exact; activations:
     * pass profiled samples).
     *
     * @param exp  the shared fitted exponential dictionary
     * @param values tensor values or profiled samples
     * @param cfg  generation knobs
     */
    static TensorDictionary build(const ExpDictionary &exp,
                                  const std::vector<float> &values,
                                  const TensorDictConfig &cfg = {});

    /** The shared exponential dictionary parameters. */
    const ExpDictionary &exp() const { return expDict; }

    /** Tensor mean (the shift of the linear transform). */
    double mean() const { return m; }

    /** Tensor standard deviation (the scale of the transform). */
    double scale() const { return s; }

    /** Outlier threshold on |v - mean|. */
    double outlierCut() const { return cut; }

    /** True when |v - mean| is beyond the Gaussian range. */
    bool isOutlierValue(double v) const;

    /** Decoded value of Gaussian code (negative, index). */
    double gaussianValue(bool negative, size_t index) const;

    /** Outlier centroid table (sorted ascending; may be empty). */
    const std::vector<double> &outlierCentroids() const { return ot; }

    /** Value of outlier-dictionary entry @p index. */
    double outlierValue(size_t index) const;

    /**
     * Entry @p index in Gaussian units, (value - mean) / scale: what
     * an outlier slot of a mag plane holds, so that mag * scale +
     * mean decodes every slot of the plane.
     */
    double outlierMagValue(size_t index) const;

    /** Nearest outlier-dictionary index for @p v. */
    size_t nearestOutlierIndex(double v) const;

    /** Fixed-point format all centroids are snapped to. */
    const FixedFormat &fixedFormat() const { return fmt; }

    /**
     * All 16 Gaussian centroids plus all outlier centroids, sorted —
     * the comparator ladder of the output quantizer (Fig. 7). Each
     * entry also records the code it stands for.
     */
    struct LadderEntry
    {
        double value;
        bool isOutlier;
        bool negative;
        uint8_t index;
    };
    const std::vector<LadderEntry> &ladder() const { return lad; }

    /** Metadata footprint in bits (dictionaries + constants). */
    size_t metadataBits() const;

  private:
    ExpDictionary expDict;
    double m;
    double s;
    double cut;
    std::vector<double> ot;
    FixedFormat fmt;
    std::vector<LadderEntry> lad;

    void buildLadder();
};

} // namespace mokey

#endif // MOKEY_QUANT_TENSOR_DICTIONARY_HH
