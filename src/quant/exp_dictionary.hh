/**
 * @file
 * The exponential dictionary (paper §II-D, Fig. 3).
 *
 * Mokey fits the positive half of the Golden Dictionary to the curve
 * a^i + b so that multiplication of two dictionary values reduces to
 * an *addition of their integer indexes* (a^i * a^j = a^(i+j)). The
 * ExpDictionary holds the fitted (a, b), evaluates centroid
 * magnitudes, and precomputes the power tables a^0..a^(2h-2) the
 * post-processing step multiplies histogram counts with.
 */

#ifndef MOKEY_QUANT_EXP_DICTIONARY_HH
#define MOKEY_QUANT_EXP_DICTIONARY_HH

#include <cstdint>
#include <vector>

#include "fit/expfit.hh"
#include "quant/golden_dictionary.hh"

namespace mokey
{

/**
 * The fitted exponential dictionary shared by all tensors.
 *
 * Index space: i in [0, indexCount) (3 b for the paper's 16-entry
 * dictionaries). The unscaled magnitude of index i is a^i + b; a full
 * code adds a sign and the per-tensor affine transform s, m.
 */
class ExpDictionary
{
  public:
    /**
     * Fit to a golden dictionary's positive half with the paper's
     * doubling weight scheme.
     */
    static ExpDictionary fit(const GoldenDictionary &gd);

    /** Construct directly from parameters (for tests and replay). */
    ExpDictionary(double a, double b, size_t index_count);

    double a() const { return baseA; }
    double b() const { return offsetB; }

    /** Number of magnitude indexes (8 for 4 b quantization). */
    size_t indexCount() const { return powers.size(); }

    /** Unscaled magnitude of index @p i: a^i + b. */
    double magnitude(size_t i) const;

    /** a^e for the summed-exponent domain e in [0, 2*(h-1)]. */
    double power(size_t e) const;

    /** Number of summed-exponent entries (15 for 4 b quantization). */
    size_t powerCount() const { return sumPowers.size(); }

    /**
     * Nearest index to an unscaled magnitude @p u >= 0
     * (binary search over the monotone magnitude table).
     */
    size_t nearestIndex(double u) const;

    /** Largest unscaled magnitude (magnitude(indexCount()-1)). */
    double maxMagnitude() const { return mags.back(); }

    /** Grid units the largest magnitude maps to (int8-representable). */
    static constexpr int kGridTop = 127;

    /**
     * Magnitude of index @p i on the mag engine's integer grid:
     * round(kGridTop * (a^i + b) / top), top = maxMagnitude(). The
     * entries are strictly increasing from >= 1 (checked at
     * construction), so a grid value still names its index and sign.
     */
    int16_t gridMagnitude(size_t i) const;

    /** Unscaled magnitude of one grid step: top / kGridTop. */
    double gridUnit() const { return mags.back() / kGridTop; }

  private:
    double baseA;
    double offsetB;
    std::vector<double> powers;    ///< a^i, i in [0, h)
    std::vector<double> mags;      ///< a^i + b, ascending
    std::vector<double> sumPowers; ///< a^e, e in [0, 2h-1)
    std::vector<int16_t> grid;     ///< gridMagnitude(i), ascending
};

} // namespace mokey

#endif // MOKEY_QUANT_EXP_DICTIONARY_HH
