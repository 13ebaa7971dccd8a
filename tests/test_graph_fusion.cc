/**
 * @file
 * Forward-walk tests: the one fused layer step that forward(),
 * forwardBatch() and forwardStep() all run chains each GEMM's
 * epilogue and the next GEMM's activation encode into the GEMM's own
 * walk. That fusion is a perf optimization, never a numerics change:
 * every entry point must equal, bit for bit, a layer-at-a-time
 * oracle composed here from public pieces only — the unfused
 * indexMatmulTransB, the float row operators and encodeToPlanes —
 * across thread counts, lanes and batch stackings.
 */

#include <cmath>
#include <string>
#include <vector>
#include <gtest/gtest.h>

#include "common/parallel.hh"
#include "model/config.hh"
#include "model/pipeline.hh"
#include "tensor/ops.hh"
#include "test_util.hh"

namespace mokey
{
namespace
{

ModelConfig
tinyConfig()
{
    return ModelConfig{"tiny", 2, 32, 2, 128, 256};
}

void
expectBitIdentical(const Tensor &a, const Tensor &b,
                   const std::string &what)
{
    ASSERT_EQ(a.rows(), b.rows()) << what;
    ASSERT_EQ(a.cols(), b.cols()) << what;
    for (size_t i = 0; i < a.size(); ++i)
        ASSERT_EQ(a.raw()[i], b.raw()[i]) << what << " elem=" << i;
}

/**
 * The layer-at-a-time W+A forward: every GEMM is the unfused
 * indexMatmulTransB over operands encoded by encodeToPlanes() against
 * the pipeline's profiled activation dictionaries, and every
 * epilogue is a whole-tensor float operator run after it. The
 * weights are re-quantized with the same buildDictionary + encode
 * calls quantizeWeights() makes, which are deterministic. Runs the
 * attention jobs serially and accumulates its own pair stats.
 */
class LayerAtATimeOracle
{
  public:
    LayerAtATimeOracle(const Transformer &model, const Quantizer &quantizer,
                       const QuantizedTransformer &pipe)
        : model(model), quantizer(quantizer), pipe(pipe)
    {
        for (const EncoderWeights &w : model.weights()) {
            Weights &q = weights.emplace_back();
            for (const auto &[src, dst] :
                 {std::pair{&w.wq, &q.wq}, std::pair{&w.wk, &q.wk},
                  std::pair{&w.wv, &q.wv}, std::pair{&w.wo, &q.wo},
                  std::pair{&w.w1, &q.w1}, std::pair{&w.w2, &q.w2}})
                *dst = quantizer.encode(*src,
                                        quantizer.buildDictionary(*src));
        }
    }

    /** All layers over stacked rows delimited by @p starts. */
    Tensor
    forward(const Tensor &input, const std::vector<size_t> &starts)
    {
        Tensor x = input;
        for (size_t l = 0; l < weights.size(); ++l)
            x = layer(l, x, starts);
        return x;
    }

    IndexMatmulStats stats;

  private:
    struct Weights
    {
        QuantizedTensor wq, wk, wv, wo, w1, w2;
    };

    Tensor
    layer(size_t l, const Tensor &input, const std::vector<size_t> &starts)
    {
        const ModelConfig &cfg = model.config();
        const EncoderWeights &w = model.weights()[l];
        const Weights &ql = weights[l];
        const size_t hd = cfg.headDim();
        const auto enc = [&](const char *name, const Tensor &t) {
            return quantizer.encodeToPlanes(
                t, pipe.activationDict({l, name}), PlaneSet::Mag);
        };
        const auto gemm = [&](const QuantizedTensor &a,
                              const QuantizedTensor &b) {
            return indexMatmulTransB(a, b, &stats);
        };

        const QuantizedTensor qx = enc("x", input);
        Tensor q = gemm(qx, ql.wq);
        Tensor k = gemm(qx, ql.wk);
        Tensor v = gemm(qx, ql.wv);
        addBias(q, w.bq);
        addBias(k, w.bk);
        addBias(v, w.bv);

        Tensor ctx(input.rows(), cfg.hidden);
        const auto inv_sqrt =
            static_cast<float>(1.0 / std::sqrt(static_cast<double>(hd)));
        for (size_t b = 0; b + 1 < starts.size(); ++b) {
            const size_t r0 = starts[b];
            const size_t seq = starts[b + 1] - r0;
            for (size_t h = 0; h < cfg.heads; ++h) {
                Tensor qh(seq, hd), kh(seq, hd), vht(hd, seq);
                for (size_t r = 0; r < seq; ++r) {
                    for (size_t c = 0; c < hd; ++c) {
                        qh.at(r, c) = q.at(r0 + r, h * hd + c);
                        kh.at(r, c) = k.at(r0 + r, h * hd + c);
                        vht.at(c, r) = v.at(r0 + r, h * hd + c);
                    }
                }
                Tensor scores = gemm(enc("q", qh), enc("k", kh));
                scale(scores, inv_sqrt);
                softmaxRows(scores);
                const Tensor out = gemm(enc("p", scores), enc("v", vht));
                for (size_t r = 0; r < seq; ++r)
                    for (size_t c = 0; c < hd; ++c)
                        ctx.at(r0 + r, h * hd + c) = out.at(r, c);
            }
        }

        Tensor attn = gemm(enc("ctx", ctx), ql.wo);
        addBias(attn, w.bo);
        Tensor res1 = add(attn, input);
        layerNormRows(res1);

        Tensor mid = gemm(enc("mid_in", res1), ql.w1);
        addBias(mid, w.b1);
        gelu(mid);
        Tensor out = gemm(enc("mid", mid), ql.w2);
        addBias(out, w.b2);
        Tensor res2 = add(out, res1);
        layerNormRows(res2);
        return res2;
    }

    const Transformer &model;
    const Quantizer &quantizer;
    const QuantizedTransformer &pipe;
    std::vector<Weights> weights;
};

class GraphFusionFixture : public ::testing::Test
{
  protected:
    GraphFusionFixture()
        : model(tinyConfig(), 29),
          exp(1.179, -0.977, 8),
          quantizer(exp),
          pipeline(model, quantizer)
    {
        pipeline.quantizeWeights();
        std::vector<Tensor> batch;
        for (int i = 0; i < 4; ++i)
            batch.push_back(model.makeInput(16, 200 + i));
        pipeline.profileActivations(batch);
    }

    std::vector<Tensor>
    raggedInputs() const
    {
        std::vector<Tensor> inputs;
        const size_t lens[] = {9, 16, 1, 5};
        for (size_t i = 0; i < 4; ++i)
            inputs.push_back(model.makeInput(lens[i], 800 + i));
        return inputs;
    }

    /** forwardStep chained over every layer. */
    Tensor
    stepChain(const Tensor &in, const std::vector<size_t> &starts,
              Lane lane = {}) const
    {
        Tensor x = in;
        for (size_t l = 0; l < pipeline.stepCount(); ++l)
            x = pipeline.forwardStep(l, x, starts,
                                     QuantMode::WeightsAndActivations,
                                     lane);
        return x;
    }

    Transformer model;
    ExpDictionary exp;
    Quantizer quantizer;
    QuantizedTransformer pipeline;
};

TEST_F(GraphFusionFixture, FusedForwardBitIdenticalToLayerAtATime)
{
    // Chaining each GEMM's epilogue and the next GEMM's
    // re-quantization into its walk, reading precomputed fold sums,
    // and hoisting the site constants must all be invisible in the
    // output bits and the GEMM pair stats.
    const Tensor in = model.makeInput(11, 471);
    const std::vector<size_t> starts{0, in.rows()};
    const QuantMode mode = QuantMode::WeightsAndActivations;
    LayerAtATimeOracle oracle(model, quantizer, pipeline);
    const Tensor ref = oracle.forward(in, starts);

    const ThreadCountGuard thread_guard;
    for (const size_t t : {size_t{1}, size_t{2}, size_t{4}}) {
        setThreadCount(t);
        for (const Lane lane : {Lane{}, Lane::acquire()}) {
            const std::string at = "threads=" + std::to_string(t) +
                " lane=" + std::to_string(lane.id());
            const uint64_t g0 = pipeline.matmulStats().gaussianPairs;
            const uint64_t o0 = pipeline.matmulStats().outlierPairs;
            expectBitIdentical(ref, pipeline.forward(in, mode, lane),
                               "forward " + at);
            EXPECT_EQ(pipeline.matmulStats().gaussianPairs - g0,
                      oracle.stats.gaussianPairs.load())
                << at;
            EXPECT_EQ(pipeline.matmulStats().outlierPairs - o0,
                      oracle.stats.outlierPairs.load())
                << at;
            expectBitIdentical(ref, stepChain(in, starts, lane),
                               "forwardStep chain " + at);
        }
    }
}

TEST_F(GraphFusionFixture, FusedForwardBatchBitIdentical)
{
    // Batched serving takes the same walk over the stacked row space;
    // each ragged request must come out bit-equal to the oracle on
    // that request alone, and so must a forwardStep chain over the
    // same stacking.
    const auto inputs = raggedInputs();
    const QuantMode mode = QuantMode::WeightsAndActivations;
    LayerAtATimeOracle oracle(model, quantizer, pipeline);
    std::vector<Tensor> refs;
    for (const Tensor &in : inputs)
        refs.push_back(oracle.forward(in, {0, in.rows()}));

    const ThreadCountGuard thread_guard;
    for (const size_t t : {size_t{1}, size_t{2}, size_t{4}}) {
        setThreadCount(t);
        const auto outs = pipeline.forwardBatch(inputs, mode);
        const auto chained = mapStackedBatch(
            inputs, [&](const Tensor &x, const std::vector<size_t> &st) {
                return stepChain(x, st);
            });
        ASSERT_EQ(outs.size(), refs.size());
        ASSERT_EQ(chained.size(), refs.size());
        for (size_t i = 0; i < refs.size(); ++i) {
            const std::string at = "threads=" + std::to_string(t) +
                " req=" + std::to_string(i);
            expectBitIdentical(refs[i], outs[i], "forwardBatch " + at);
            expectBitIdentical(refs[i], chained[i], "step chain " + at);
        }
    }
}

TEST_F(GraphFusionFixture, BatchRowsInvariantToStackOffset)
{
    // A request's rows must not depend on where a fused batch stacks
    // them. The mag kernel computes 4 activation rows per register
    // pass, so a request behind 0-4 rows of other requests starts at
    // every position of a 4-row block (and its tail moves with it);
    // each stacking must reproduce the request's own forward() bit
    // for bit, at 1, 2 and 4 threads.
    const Tensor target = model.makeInput(7, 321);
    const ThreadCountGuard thread_guard;
    for (const size_t t : {size_t{1}, size_t{2}, size_t{4}}) {
        setThreadCount(t);
        const Tensor alone =
            pipeline.forward(target, QuantMode::WeightsAndActivations);
        for (size_t offset = 0; offset <= 4; ++offset) {
            // Requests ahead of the target fill exactly `offset` rows
            // (a 1-row request, then the rest); one request follows.
            std::vector<Tensor> inputs;
            if (offset > 0)
                inputs.push_back(model.makeInput(1, 900 + offset));
            if (offset > 1)
                inputs.push_back(model.makeInput(offset - 1, 910 + offset));
            const size_t at = inputs.size();
            inputs.push_back(target);
            inputs.push_back(model.makeInput(5, 950));
            const auto outs = pipeline.forwardBatch(
                inputs, QuantMode::WeightsAndActivations);
            ASSERT_EQ(outs.size(), inputs.size());
            expectBitIdentical(alone, outs[at],
                               "threads=" + std::to_string(t) +
                                   " offset=" + std::to_string(offset));
        }
    }
}

} // anonymous namespace
} // namespace mokey
