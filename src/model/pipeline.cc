#include "model/pipeline.hh"

#include <cmath>

#include "common/fault.hh"
#include "common/logging.hh"
#include "common/parallel.hh"
#include "tensor/ops.hh"

namespace mokey
{

QuantizedTransformer::QuantizedTransformer(const Transformer &m,
                                           const Quantizer &q,
                                           const TensorDictConfig &cfg)
    : model(m), quantizer(q), dictCfg(cfg)
{
}

void
QuantizedTransformer::quantizeWeights()
{
    const size_t n_layers = model.config().layers;
    layers.assign(n_layers, QuantizedLayer{});
    dequantized = std::make_unique<Transformer>(model);

    // Every (layer, matrix) pair is independent — dictionary build,
    // encode, and decode all fan out across the pool.
    struct Job
    {
        const Tensor *src;
        QuantizedTensor *dst;
        Tensor *deq; ///< decoded copy for the weight-only model
    };
    std::vector<Job> jobs;
    jobs.reserve(n_layers * 6);
    for (size_t l = 0; l < n_layers; ++l) {
        const EncoderWeights &w = model.weights()[l];
        QuantizedLayer &ql = layers[l];
        EncoderWeights &dw = dequantized->weights()[l];
        jobs.push_back({&w.wq, &ql.wq, &dw.wq});
        jobs.push_back({&w.wk, &ql.wk, &dw.wk});
        jobs.push_back({&w.wv, &ql.wv, &dw.wv});
        jobs.push_back({&w.wo, &ql.wo, &dw.wo});
        jobs.push_back({&w.w1, &ql.w1, &dw.w1});
        jobs.push_back({&w.w2, &ql.w2, &dw.w2});
    }
    parallelFor(0, jobs.size(), 1, [&](size_t i) {
        const Job &job = jobs[i];
        const auto dict = quantizer.buildDictionary(*job.src, dictCfg);
        *job.dst = quantizer.encode(*job.src, dict);
        *job.deq = job.dst->decode();
        // Weights are read-only from here and every forward GEMM
        // streams their mag planes: derive and pin them now so no
        // lane pays the first-use build (or its single-flight lock)
        // on the serving path.
        job.dst->pinPlanes(PlaneSet::Mag);
    });
    rebuildPlan();
}

void
QuantizedTransformer::profileActivations(
    const std::vector<Tensor> &batch)
{
    ModelProfiler profiler;
    profiler.run(model, batch);
    actDicts.clear();
    for (const auto &id : profiler.ids()) {
        // ids() returns the "L<layer>.<name>" keys run() created.
        const auto dot = id.find('.');
        MOKEY_ASSERT(dot != std::string::npos && id[0] == 'L',
                     "malformed tensor id '%s'", id.c_str());
        const TensorId tid{
            static_cast<size_t>(std::stoul(id.substr(1, dot - 1))),
            id.substr(dot + 1)};
        actDicts.emplace(
            id,
            quantizer.buildDictionaryFromSamples(profiler.samples(tid),
                                                 dictCfg));
    }
    rebuildPlan();
}

void
QuantizedTransformer::rebuildPlan()
{
    plan.clear();
    if (!ready())
        return;

    // Everything below is constant for the served model: dictionary
    // pointers (map entries are address-stable), the per-site GEMM
    // constants (dictionary products, scales, means), bias pointers,
    // and the attention epilogue scale. Hoisted once here so the
    // walk never re-derives them per call.
    const ModelConfig &cfg = model.config();
    plan.resize(cfg.layers);
    for (size_t l = 0; l < cfg.layers; ++l) {
        LayerPlan &lp = plan[l];
        lp.dx = &activationDict({l, "x"});
        lp.dq = &activationDict({l, "q"});
        lp.dk = &activationDict({l, "k"});
        lp.dv = &activationDict({l, "v"});
        lp.dp = &activationDict({l, "p"});
        lp.dctx = &activationDict({l, "ctx"});
        lp.dmidIn = &activationDict({l, "mid_in"});
        lp.dmid = &activationDict({l, "mid"});
        lp.invSqrtHd = static_cast<float>(
            1.0 / std::sqrt(static_cast<double>(cfg.headDim())));

        const EncoderWeights &w = model.weights()[l];
        const QuantizedLayer &ql = layers[l];
        const auto set = [](SitePlan &s, const QuantizedTensor &wt,
                            const std::vector<float> &b,
                            const TensorDictionary &act_dict) {
            s.weight = &wt;
            s.bias = &b;
            s.constants =
                gemmConstants(act_dict, wt.dictionary(), wt.cols());
        };
        set(lp.sites[kSiteWq], ql.wq, w.bq, *lp.dx);
        set(lp.sites[kSiteWk], ql.wk, w.bk, *lp.dx);
        set(lp.sites[kSiteWv], ql.wv, w.bv, *lp.dx);
        set(lp.sites[kSiteWo], ql.wo, w.bo, *lp.dctx);
        set(lp.sites[kSiteW1], ql.w1, w.b1, *lp.dmidIn);
        set(lp.sites[kSiteW2], ql.w2, w.b2, *lp.dmid);
    }
}

bool
QuantizedTransformer::ready() const
{
    return !layers.empty() && !actDicts.empty();
}

const TensorDictionary &
QuantizedTransformer::activationDict(const TensorId &id) const
{
    const auto it = actDicts.find(id.str());
    if (it == actDicts.end())
        fatal("no activation dictionary for %s", id.str().c_str());
    return it->second;
}

QuantizedTensor
QuantizedTransformer::encodeAct(const TensorDictionary &dict,
                                const Tensor &t, Lane lane) const
{
    QuantizedTensor q =
        quantizer.encodeToPlanes(t, dict, PlaneSet::Mag, lane);
    countAct(q);
    return q;
}

void
QuantizedTransformer::countAct(const QuantizedTensor &q) const
{
    // Outlier-rate counters straight from the sidecar: planes-only
    // tensors have no code array to walk.
    actOtCodes.fetch_add(q.planesFootprint().outlierEntries,
                         std::memory_order_relaxed);
    actTotalCodes.fetch_add(q.size(), std::memory_order_relaxed);
}

FusedGemmOut
QuantizedTransformer::runSite(const SitePlan &site,
                              const QuantizedTensor &act,
                              const FusedRowEpilogue &epi,
                              const TensorDictionary *outDict,
                              bool keepDense, Lane lane) const
{
    faultPoint(FaultSite::EngineDispatch);
    return indexMatmulTransBFused(act, *site.weight, IndexEngine::Mag,
                                  epi, outDict, PlaneSet::Mag, keepDense,
                                  &site.constants, &mmStats, lane);
}

Tensor
QuantizedTransformer::layerStep(size_t l, const Tensor &x,
                                const std::vector<size_t> &starts,
                                Lane lane) const
{
    const LayerPlan &lp = plan[l];
    const SitePlan &sq = lp.sites[kSiteWq];
    const SitePlan &sk = lp.sites[kSiteWk];
    const SitePlan &sv = lp.sites[kSiteWv];
    const SitePlan &so = lp.sites[kSiteWo];
    const SitePlan &s1 = lp.sites[kSiteW1];
    const SitePlan &s2 = lp.sites[kSiteW2];
    const ModelConfig &cfg = model.config();
    const size_t total = x.rows();
    const size_t hd = cfg.headDim();
    const size_t batch = starts.size() - 1;

    // QKV: heads are gathered in float, so these three fuse the bias
    // epilogue and read the hoisted constants/fold sums but keep
    // dense outputs. The whole batch is encoded at once.
    const QuantizedTensor qx = encodeAct(*lp.dx, x, lane);
    const auto bias_epi = [](const SitePlan &s) {
        return FusedRowEpilogue([&s](size_t, float *vals, size_t n) {
            addBiasRow(vals, s.bias->data(), n);
        });
    };
    const Tensor q = runSite(sq, qx, bias_epi(sq), nullptr, true, lane).dense;
    const Tensor k = runSite(sk, qx, bias_epi(sk), nullptr, true, lane).dense;
    const Tensor v = runSite(sv, qx, bias_epi(sv), nullptr, true, lane).dense;

    // Attention: one job per (sequence, head) pair — attention never
    // crosses a sequence boundary, and every job writes a disjoint
    // block of ctx. The act x act GEMMs also run on indexes; the
    // score GEMM fuses scale + softmax + the probability
    // re-quantization into its walk, so the score matrix never exists
    // as a standalone float tensor. K varies with seq, so their
    // constants come from the shared cache, not the plan.
    Tensor ctx(total, cfg.hidden);
    const float inv_sqrt = lp.invSqrtHd;
    parallelFor(lane, 0, batch * cfg.heads, 1, [&](size_t job) {
        const size_t b = job / cfg.heads;
        const size_t h = job % cfg.heads;
        const size_t r0 = starts[b];
        const size_t seq = starts[b + 1] - r0;
        Tensor qh(seq, hd), kh(seq, hd), vht(hd, seq);
        for (size_t r = 0; r < seq; ++r) {
            for (size_t c = 0; c < hd; ++c) {
                qh.at(r, c) = q.at(r0 + r, h * hd + c);
                kh.at(r, c) = k.at(r0 + r, h * hd + c);
                vht.at(c, r) = v.at(r0 + r, h * hd + c);
            }
        }
        const QuantizedTensor qqh = encodeAct(*lp.dq, qh, lane);
        const QuantizedTensor qkh = encodeAct(*lp.dk, kh, lane);
        FusedGemmOut sc = indexMatmulTransBFused(
            qqh, qkh, IndexEngine::Mag,
            [inv_sqrt](size_t, float *vals, size_t n) {
                scaleRow(vals, n, inv_sqrt);
                softmaxRow(vals, n);
            },
            lp.dp, PlaneSet::Mag, false, nullptr, &mmStats, lane);
        countAct(sc.planes);
        const QuantizedTensor qvht = encodeAct(*lp.dv, vht, lane);
        const FusedGemmOut out = indexMatmulTransBFused(
            sc.planes, qvht, IndexEngine::Mag, nullptr, nullptr,
            PlaneSet::Mag, true, nullptr, &mmStats, lane);
        for (size_t r = 0; r < seq; ++r)
            for (size_t c = 0; c < hd; ++c)
                ctx.at(r0 + r, h * hd + c) = out.dense.at(r, c);
    });

    // wo: bias + residual + layer-norm fused, output emitted straight
    // as the w1 GEMM's mid_in planes (and kept dense for the second
    // residual).
    const QuantizedTensor qctx = encodeAct(*lp.dctx, ctx, lane);
    FusedGemmOut r1 = runSite(
        so, qctx,
        [&so, &x](size_t i, float *vals, size_t n) {
            addBiasRow(vals, so.bias->data(), n);
            addRow(vals, vals, x.row(i), n);
            layerNormRow(vals, n);
        },
        lp.dmidIn, true, lane);
    countAct(r1.planes);

    // w1: bias + GELU fused, planes-only output — the mid float
    // tensor never exists.
    FusedGemmOut rm = runSite(
        s1, r1.planes,
        [&s1](size_t, float *vals, size_t n) {
            addBiasRow(vals, s1.bias->data(), n);
            geluRow(vals, n);
        },
        lp.dmid, false, lane);
    countAct(rm.planes);

    // w2: bias + residual + layer-norm fused; the float rows carry to
    // the next layer, which encodes them as its x planes.
    const Tensor &res1 = r1.dense;
    return runSite(
               s2, rm.planes,
               [&s2, &res1](size_t i, float *vals, size_t n) {
                   addBiasRow(vals, s2.bias->data(), n);
                   addRow(vals, vals, res1.row(i), n);
                   layerNormRow(vals, n);
               },
               nullptr, true, lane)
        .dense;
}

Tensor
QuantizedTransformer::forwardLayers(const Tensor &x,
                                    const std::vector<size_t> &starts,
                                    Lane lane) const
{
    Tensor out = x;
    for (size_t l = 0; l < plan.size(); ++l)
        out = layerStep(l, out, starts, lane);
    return out;
}

Tensor
QuantizedTransformer::forwardStep(size_t layer,
                                  const Tensor &stacked,
                                  const std::vector<size_t> &starts,
                                  QuantMode mode, Lane lane) const
{
    MOKEY_ASSERT(!layers.empty(),
                 "quantizeWeights() must run before forwardStep()");
    MOKEY_ASSERT(layer < model.config().layers,
                 "step layer %zu out of range (model has %zu)",
                 layer, model.config().layers);
    MOKEY_ASSERT(!starts.empty() &&
                     starts.back() == stacked.rows(),
                 "starts must delimit the stacked rows");
    faultPoint(FaultSite::StepThrow);
    faultDelayPoint(FaultSite::StepDelay);
    if (mode == QuantMode::WeightsOnly)
        return dequantized->forwardLayerBatch(layer, stacked, starts,
                                              lane);

    MOKEY_ASSERT(ready(), "profileActivations() must run before full "
                          "quantized inference");
    return layerStep(layer, stacked, starts, lane);
}

Tensor
QuantizedTransformer::forward(const Tensor &input, QuantMode mode,
                              Lane lane) const
{
    MOKEY_ASSERT(!layers.empty(),
                 "quantizeWeights() must run before forward()");
    if (mode == QuantMode::WeightsOnly)
        return dequantized->forward(input, nullptr, nullptr, lane);

    MOKEY_ASSERT(ready(), "profileActivations() must run before full "
                          "quantized inference");
    return forwardLayers(input, {0, input.rows()}, lane);
}

std::vector<Tensor>
QuantizedTransformer::forwardBatch(const std::vector<Tensor> &inputs,
                                   QuantMode mode, Lane lane) const
{
    MOKEY_ASSERT(!layers.empty(),
                 "quantizeWeights() must run before forwardBatch()");
    if (inputs.empty())
        return {};
    if (mode == QuantMode::WeightsOnly)
        return dequantized->forwardBatch(inputs, lane);

    MOKEY_ASSERT(ready(), "profileActivations() must run before full "
                          "quantized inference");
    return mapStackedBatch(inputs,
                           [this, lane](const Tensor &stacked,
                                        const std::vector<size_t> &starts) {
                               return forwardLayers(stacked, starts, lane);
                           });
}

double
QuantizedTransformer::weightOutlierFraction() const
{
    size_t ot = 0, total = 0;
    for (const auto &ql : layers) {
        for (const QuantizedTensor *t :
             {&ql.wq, &ql.wk, &ql.wv, &ql.wo, &ql.w1, &ql.w2}) {
            for (const QCode c : t->raw())
                ot += c.isOutlier();
            total += t->size();
        }
    }
    return total ? static_cast<double>(ot) /
        static_cast<double>(total) : 0.0;
}

double
QuantizedTransformer::activationOutlierFraction() const
{
    const uint64_t total =
        actTotalCodes.load(std::memory_order_relaxed);
    if (total == 0)
        return 0.0;
    return static_cast<double>(
               actOtCodes.load(std::memory_order_relaxed)) /
        static_cast<double>(total);
}

} // namespace mokey
