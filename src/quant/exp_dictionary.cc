#include "quant/exp_dictionary.hh"

#include <algorithm>
#include <cmath>

#include "common/logging.hh"

namespace mokey
{

ExpDictionary
ExpDictionary::fit(const GoldenDictionary &gd)
{
    const auto &half = gd.half();
    const ExpFit f = fitExponential(
        std::vector<double>(half.begin(), half.end()));
    return ExpDictionary(f.a, f.b, half.size());
}

ExpDictionary::ExpDictionary(double a, double b, size_t index_count)
    : baseA(a), offsetB(b)
{
    MOKEY_ASSERT(index_count >= 1, "empty index space");
    MOKEY_ASSERT(a > 1.0, "exponential base must exceed 1 (got %f)", a);
    powers.resize(index_count);
    mags.resize(index_count);
    double p = 1.0;
    for (size_t i = 0; i < index_count; ++i) {
        powers[i] = p;
        mags[i] = p + b;
        p *= a;
    }
    MOKEY_ASSERT(mags.front() > 0.0,
                 "smallest magnitude non-positive: a=%f b=%f", a, b);
    grid.resize(index_count);
    for (size_t i = 0; i < index_count; ++i) {
        grid[i] = static_cast<int16_t>(
            std::lround(kGridTop * mags[i] / mags.back()));
        MOKEY_ASSERT(grid[i] >= 1,
                     "magnitude %zu of a=%f b=%f rounds to 0 on the "
                     "int16 grid", i, a, b);
        MOKEY_ASSERT(i == 0 || grid[i] > grid[i - 1],
                     "magnitudes %zu and %zu of a=%f b=%f share one "
                     "int16 grid step", i - 1, i, a, b);
    }
    sumPowers.resize(2 * index_count - 1);
    p = 1.0;
    for (auto &sp : sumPowers) {
        sp = p;
        p *= a;
    }
}

double
ExpDictionary::magnitude(size_t i) const
{
    MOKEY_ASSERT(i < mags.size(), "index %zu out of range", i);
    return mags[i];
}

int16_t
ExpDictionary::gridMagnitude(size_t i) const
{
    MOKEY_ASSERT(i < grid.size(), "index %zu out of range", i);
    return grid[i];
}

double
ExpDictionary::power(size_t e) const
{
    MOKEY_ASSERT(e < sumPowers.size(), "exponent %zu out of range", e);
    return sumPowers[e];
}

size_t
ExpDictionary::nearestIndex(double u) const
{
    const auto it = std::lower_bound(mags.begin(), mags.end(), u);
    if (it == mags.begin())
        return 0;
    if (it == mags.end())
        return mags.size() - 1;
    const size_t hi = static_cast<size_t>(it - mags.begin());
    const size_t lo = hi - 1;
    return (u - mags[lo] <= mags[hi] - u) ? lo : hi;
}

} // namespace mokey
