/**
 * @file
 * End-to-end quantized inference (paper §II-G summary flow).
 *
 * The pipeline owns the whole Mokey recipe for one model:
 *   1. quantize weights offline against their own dictionaries;
 *   2. profile activations over a small batch and build their
 *      dictionaries;
 *   3. run inference where every GEMM runs in the index domain on
 *      the mag engine, activations are re-quantized on the fly, and
 *      only softmax / layer-norm / GELU stay in the float domain
 *      (exactly the operators the paper leaves to dedicated units).
 *
 * There is one quantized forward walk: a fused layer step in which
 * every GEMM chains its epilogue (bias, residual, norm, GELU,
 * attention scale + softmax) and the next consumer's activation
 * encode into its own walk (indexMatmulTransBFused). forward(),
 * forwardBatch() and forwardStep() are all loops over that step.
 *
 * Two quantization modes mirror Table I's two columns: WeightsOnly
 * and WeightsAndActivations.
 */

#ifndef MOKEY_MODEL_PIPELINE_HH
#define MOKEY_MODEL_PIPELINE_HH

#include <atomic>
#include <map>
#include <memory>
#include <vector>

#include "model/graph_plan.hh"
#include "model/profiler.hh"
#include "model/transformer.hh"
#include "quant/index_matmul.hh"
#include "quant/quantizer.hh"

namespace mokey
{

/** Which tensor classes are quantized (Table I columns). */
enum class QuantMode
{
    WeightsOnly,
    WeightsAndActivations,
};

/**
 * Aggregate quantization statistics for reporting. The embedded
 * matmul counters are atomic (see IndexMatmulStats), so snapshots
 * taken while batched forwards are in flight are safe.
 */
struct PipelineStats
{
    double weightOutlierFraction = 0.0;
    double activationOutlierFraction = 0.0;
    IndexMatmulStats matmul;
};

/** A Mokey-quantized transformer. */
class QuantizedTransformer
{
  public:
    /**
     * @param model the float reference model (kept by reference;
     *              must outlive the pipeline)
     * @param quantizer shared exponential-dictionary quantizer
     * @param cfg   per-tensor dictionary knobs
     */
    QuantizedTransformer(const Transformer &model,
                         const Quantizer &quantizer,
                         const TensorDictConfig &cfg = {});

    /** Step 1: encode every weight matrix (offline). */
    void quantizeWeights();

    /** Steps 2-3: profile activations and build their dictionaries. */
    void profileActivations(const std::vector<Tensor> &batch);

    /** True once both weight and activation dictionaries exist. */
    bool ready() const;

    /** Geometry of the wrapped model (serving layers validate
     *  request width against config().hidden before submitting). */
    const ModelConfig &modelConfig() const { return model.config(); }

    /**
     * Quantized forward pass.
     *
     * @param input seq x hidden embedded input
     * @param mode  which tensors are quantized
     * @param lane  executor lane the pass's loops occupy
     */
    Tensor forward(const Tensor &input, QuantMode mode,
                   Lane lane = {}) const;

    /**
     * Batched forward over several (possibly ragged-length)
     * sequences: activations of the whole batch are re-quantized
     * at once over the stacked B x T rows, every row-space GEMM runs
     * on those rows (one weight-plane stream per GEMM), and
     * attention heads of all requests fan out over the pool
     * together. Each output is
     * bit-identical to forward() on that sequence alone. The pass
     * runs on @p lane, so independent micro-batches dispatched on
     * different lanes execute concurrently over one worker set.
     */
    std::vector<Tensor> forwardBatch(const std::vector<Tensor> &inputs,
                                     QuantMode mode,
                                     Lane lane = {}) const;

    /**
     * Number of sequential steps a request needs under the step-wise
     * entry point (= encoder layers; the model is bidirectional, so
     * the indivisible scheduling unit is one layer over a full
     * sequence, not a token).
     */
    size_t stepCount() const { return model.config().layers; }

    /**
     * One iteration of the step-wise forward: apply encoder layer
     * @p layer to a stacked (possibly ragged) batch whose membership
     * may differ from the previous step — the continuous scheduler's
     * entry point, where requests join and leave between steps.
     *
     * Composition contract: chaining forwardStep over layers
     * 0..stepCount()-1, with any re-stacking of co-batched rows
     * between steps, is bit-identical to forward()/forwardBatch() on
     * the same sequences — both are loops over the same layer step,
     * which re-encodes the carried float rows against the layer's
     * activation dictionary. Only this entry point carries the
     * `step` / `stepdelay` fault seams, so an in-process forward()
     * reference never fires them.
     *
     * @param layer  which encoder layer to apply (< stepCount())
     * @param stacked sum-of-seqs x hidden stacked activations (the
     *               original inputs for layer 0, the previous step's
     *               output rows otherwise)
     * @param starts B+1 row offsets delimiting the sequences
     */
    Tensor forwardStep(size_t layer, const Tensor &stacked,
                       const std::vector<size_t> &starts,
                       QuantMode mode, Lane lane = {}) const;

    /** Fraction of weight values that are outliers. */
    double weightOutlierFraction() const;

    /** Mean outlier fraction over profiled activation tensors. */
    double activationOutlierFraction() const;

    /** Matmul statistics accumulated across forward() calls. */
    const IndexMatmulStats &matmulStats() const { return mmStats; }

    /** Activation dictionary for a tensor id (fatal if missing). */
    const TensorDictionary &activationDict(const TensorId &id) const;

  private:
    const Transformer &model;
    const Quantizer &quantizer;
    TensorDictConfig dictCfg;

    struct QuantizedLayer
    {
        QuantizedTensor wq, wk, wv, wo, w1, w2;
    };
    std::vector<QuantizedLayer> layers;
    std::map<std::string, TensorDictionary> actDicts;
    std::unique_ptr<Transformer> dequantized; ///< weight-only model
    mutable IndexMatmulStats mmStats;
    mutable std::atomic<uint64_t> actOtCodes{0};
    mutable std::atomic<uint64_t> actTotalCodes{0};
    /** Hoisted per-layer plan of the forward walk; rebuilt by
     * quantizeWeights()/profileActivations() once both halves exist
     * (empty until then). */
    std::vector<LayerPlan> plan;

    /**
     * Encode an activation against its profiled dictionary into the
     * mag planes the downstream GEMM streams (encodeToPlanes),
     * folding it into the outlier-rate counters.
     */
    QuantizedTensor encodeAct(const TensorDictionary &dict,
                              const Tensor &t, Lane lane) const;

    /** Fold an encoded activation into the outlier-rate counters. */
    void countAct(const QuantizedTensor &q) const;

    /** Rebuild the per-layer plan (cleared until ready()). */
    void rebuildPlan();

    /**
     * Run one weight site's fused GEMM on the mag engine — the
     * `engine` fault seam of every served GEMM. The seam sits on the
     * caller's thread, before any fan-out, so an injected throw
     * unwinds to the scheduler instead of a worker.
     */
    FusedGemmOut runSite(const SitePlan &site, const QuantizedTensor &act,
                         const FusedRowEpilogue &epi,
                         const TensorDictionary *outDict, bool keepDense,
                         Lane lane) const;

    /**
     * One fully quantized encoder layer over the stacked rows
     * (@p starts holds B+1 row offsets delimiting the sequences): the
     * body forward(), forwardBatch() and forwardStep() all loop
     * over. Encodes @p x as the layer's x planes and returns the
     * layer's float output rows.
     */
    Tensor layerStep(size_t l, const Tensor &x,
                     const std::vector<size_t> &starts, Lane lane) const;

    /** layerStep() over every layer: the WeightsAndActivations body
     * of forward() and forwardBatch(). */
    Tensor forwardLayers(const Tensor &x,
                         const std::vector<size_t> &starts,
                         Lane lane) const;
};

} // namespace mokey

#endif // MOKEY_MODEL_PIPELINE_HH
