/**
 * @file
 * Runtime selection of the index-domain GEMM execution engine.
 *
 * Two engines realize the paper's index-domain algebra over
 * different dense-plane encodings of the same codes:
 *
 *  - Mag   : streams the 2-byte-per-element (kMagElemBytes) int16
 *            signed grid-magnitude plane, whose outlier slots hold
 *            the centroid's grid value, so GPE and OPP collapse into
 *            one exact register-blocked integer dot product (simd.hh
 *            magDotBlock). The fastest engine at every measured
 *            shape.
 *  - Count : the paper-faithful counting dataflow — streams the
 *            2-byte-per-element (uint8 index, int8 theta) byte
 *            planes, SIMD-accumulates a signed histogram over the
 *            joint index space per output element, collapses it
 *            with one short dot against the decoded dictionary
 *            products and merges the outlier sidecars (OPP). As many
 *            streamed bytes per element as Mag; the histogram phase
 *            is exact integer arithmetic.
 *
 * The active engine is chosen once per process from the MOKEY_ENGINE
 * environment variable ("mag" or "count"; default "mag") and can be
 * switched at runtime with setIndexEngine(). indexMatmulTransB() and
 * indexMatmulTransBScalar() dispatch on it, so the whole pipeline —
 * serving stack included — switches engines without a rebuild.
 */

#ifndef MOKEY_QUANT_ENGINE_HH
#define MOKEY_QUANT_ENGINE_HH

#include "quant/quantized_tensor.hh"

namespace mokey
{

/** Selectable index-domain GEMM backends. */
enum class IndexEngine
{
    Mag,   ///< magnitude-plane dot-product engine
    Count, ///< byte-plane histogram (counting) engine
    Auto,  ///< per-GEMM choice from K and plane residency
};

/**
 * The engine indexMatmulTransB() currently dispatches to.
 * Initialized once from MOKEY_ENGINE (unset -> Mag; anything other
 * than "mag"/"count"/"counting"/"auto" is a fatal config error).
 * Auto defers the choice to resolveIndexEngine() per GEMM.
 */
IndexEngine indexEngine();

/** Switch the process-wide engine (tests restore the prior value). */
void setIndexEngine(IndexEngine engine);

/** Human-readable engine name ("mag" / "count" / "auto"). */
const char *indexEngineName(IndexEngine engine);

/**
 * The CodePlanes subset an engine streams: Mag reads the magnitude
 * plane, Count reads the index/theta byte planes and the outlier
 * sidecars, which planes() always derives. Used to pin (and
 * account) exactly the bytes the active engine will touch. Auto maps
 * to the byte planes — the cheap, always-acceptable default when the
 * per-GEMM choice has not resolved yet.
 */
PlaneSet enginePlaneSet(IndexEngine engine);

/**
 * Streamed-mag working set above which the Auto heuristic calls a
 * GEMM DRAM-bound and routes it to the counting engine: the mag
 * engine's edge is cache residency, and mag planes that spill are
 * the regime the byte planes were added for (ROADMAP: "pick count
 * when planes are cold or K is DRAM-bound").
 */
constexpr size_t kAutoMagBudgetBytes = 12u << 20;

/**
 * Whether engine self-calibration is enabled (MOKEY_CALIBRATE,
 * default off). When on, two things change:
 *  - the Auto mag budget comes from a measured cache probe
 *    (calibrateMagBudget) instead of the hand-tuned constant;
 *  - the fused graph path's first iterations time mag-vs-count per
 *    weight site and pin each site's engine for the rest of the run
 *    (see QuantizedTransformer::enginePins()).
 * Off by default because the timing-derived choices, while always
 * correct, are host-dependent — parity tests want the pure decision
 * table.
 */
bool engineCalibration();

/** Flip calibration at runtime (tests restore the prior value). */
void setEngineCalibration(bool on);

/**
 * Measure the host's streamed-read cache cliff once per process: a
 * tiny timed probe (sumD over growing buffers) finds the largest
 * working set that still streams at near-cache bandwidth, which is
 * exactly the regime where the mag planes win. Result
 * is clamped to [4 MiB, 64 MiB] and cached; takes a few ms on the
 * first call.
 */
size_t calibrateMagBudget();

/**
 * The Auto heuristic's byte budget actually in force: the
 * compile-time default, the calibrated probe result (when
 * MOKEY_CALIBRATE is on), or a setAutoMagBudgetBytes() override.
 * Resolved lazily on first use and cached per process.
 */
size_t autoMagBudgetBytes();

/** Override the budget (tests); 0 re-resolves default/calibrated. */
void setAutoMagBudgetBytes(size_t bytes);

/**
 * The MOKEY_ENGINE=auto decision table, as a pure function so the
 * unit tests can pin it:
 *
 *  1. (aRows + wRows) * k * kMagElemBytes mag-plane bytes over the
 *     budget -> Count (K is DRAM-bound);
 *  2. weight mag plane resident (pinned warm) -> Mag (fastest when
 *     cache-resident and already paid for);
 *  3. otherwise (weight planes cold, or only byte planes resident)
 *     -> Count (the byte planes are the cheap default to derive).
 *
 * @param aRows  activation rows (M)
 * @param wRows  weight rows (N; the transposed operand)
 * @param k      reduction length
 * @param weight the weight tensor's current planesFootprint()
 * @param budget mag-stream byte budget; 0 (the default) reads the
 *               process budget autoMagBudgetBytes()
 */
IndexEngine autoEngineChoice(size_t aRows, size_t wRows, size_t k,
                             const PlanesFootprint &weight,
                             size_t budget = 0);

/**
 * The engine a GEMM over (a, wt) runs on: the fixed selection, or
 * the Auto decision table applied to this GEMM's shape and the
 * weight-side plane residency.
 */
IndexEngine resolveIndexEngine(const QuantizedTensor &a,
                               const QuantizedTensor &wt);

/**
 * The plane set quantizeWeights() pins for a weight under @p engine.
 * Fixed engines pin what they stream; Auto pins per weight: Mag when
 * the weight's own mag plane fits comfortably in the budget (so
 * serving GEMMs resolve to the mag engine at step 2 above), byte
 * planes otherwise (step 1 will route those GEMMs to counting).
 */
PlaneSet weightPlaneSet(IndexEngine engine, size_t wRows, size_t k);

} // namespace mokey

#endif // MOKEY_QUANT_ENGINE_HH
