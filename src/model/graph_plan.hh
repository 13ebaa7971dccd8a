/**
 * @file
 * The once-per-graph execution plan of the fused forward walk.
 *
 * Everything a layer step needs that is constant for a served model
 * — the per-site GEMM constants (dictionary products, scales, means),
 * the bias pointers, the attention epilogue scale and the activation
 * dictionary lookups — is hoisted into one LayerPlan per encoder
 * layer, rebuilt whenever quantizeWeights() / profileActivations()
 * invalidate the underlying tensors, so the walk touches only plain
 * pointers and precomputed scalars.
 */

#ifndef MOKEY_MODEL_GRAPH_PLAN_HH
#define MOKEY_MODEL_GRAPH_PLAN_HH

#include <array>
#include <vector>

#include "quant/index_matmul.hh"

namespace mokey
{

/** Site slots of one encoder layer, in execution order. */
enum GraphSite : size_t
{
    kSiteWq = 0,
    kSiteWk,
    kSiteWv,
    kSiteWo,
    kSiteW1,
    kSiteW2,
    kGraphSiteCount,
};

/** One weight-side GEMM site and its hoisted constants. */
struct SitePlan
{
    const QuantizedTensor *weight = nullptr;
    const std::vector<float> *bias = nullptr;
    /** gemmConstants(act dict, weight dict, K) for this site. */
    GemmConstants constants;
};

/** Per-layer resolved state of the fused walk. */
struct LayerPlan
{
    // Activation dictionaries by tensor id, resolved once (map
    // entries are address-stable for the pipeline's lifetime).
    const TensorDictionary *dx = nullptr;
    const TensorDictionary *dq = nullptr;
    const TensorDictionary *dk = nullptr;
    const TensorDictionary *dv = nullptr;
    const TensorDictionary *dp = nullptr;
    const TensorDictionary *dctx = nullptr;
    const TensorDictionary *dmidIn = nullptr;
    const TensorDictionary *dmid = nullptr;

    /** wq, wk, wv, wo, w1, w2 (GraphSite order). */
    std::array<SitePlan, kGraphSiteCount> sites;

    /** Attention epilogue scale 1/sqrt(head_dim). */
    float invSqrtHd = 1.0f;
};

} // namespace mokey

#endif // MOKEY_MODEL_GRAPH_PLAN_HH
