/**
 * @file
 * The index-domain GEMM execution engines.
 *
 * Two engines realize the paper's index-domain algebra over
 * different dense-plane encodings of the same codes:
 *
 *  - Mag   : streams the 2-byte-per-element (kMagElemBytes) int16
 *            signed grid-magnitude plane, whose outlier slots hold
 *            the centroid's grid value, so GPE and OPP collapse into
 *            one exact register-blocked integer dot product (simd.hh
 *            magDotBlock). The fastest engine at every measured
 *            shape, and the one every served GEMM runs on.
 *  - Count : the paper-faithful counting dataflow — streams the
 *            2-byte-per-element (uint8 index, int8 theta) byte
 *            planes, SIMD-accumulates a signed histogram over the
 *            joint index space per output element, collapses it
 *            with one short dot against the decoded dictionary
 *            products and merges the outlier sidecars (OPP). Kept
 *            as an explicit kernel (indexMatmulTransBCounting, or
 *            indexMatmulTransBFused with IndexEngine::Count) that
 *            mokey-bench replays per weight site; it is 16-26x
 *            slower than Mag on BERT-base, so nothing serves on it.
 */

#ifndef MOKEY_QUANT_ENGINE_HH
#define MOKEY_QUANT_ENGINE_HH

#include "quant/quantized_tensor.hh"

namespace mokey
{

/** The index-domain GEMM kernels. */
enum class IndexEngine
{
    Mag,   ///< magnitude-plane dot-product engine
    Count, ///< byte-plane histogram (counting) engine
};

/** The engine serving runs: always Mag. mokey-bench reads it to pick
 *  the plane set of its encode replay. */
inline IndexEngine
indexEngine()
{
    return IndexEngine::Mag;
}

/** The engine a served GEMM over (a, wt) runs on: always Mag.
 *  mokey-bench reads it to sum the served sites' replay times. */
inline IndexEngine
resolveIndexEngine(const QuantizedTensor &, const QuantizedTensor &)
{
    return IndexEngine::Mag;
}

/**
 * The CodePlanes subset an engine streams: Mag reads the magnitude
 * plane, Count reads the index/theta byte planes and the outlier
 * sidecars, which planes() always derives.
 */
inline PlaneSet
enginePlaneSet(IndexEngine engine)
{
    return engine == IndexEngine::Mag ? PlaneSet::Mag : PlaneSet::Bytes;
}

} // namespace mokey

#endif // MOKEY_QUANT_ENGINE_HH
