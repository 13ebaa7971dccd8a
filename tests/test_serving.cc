/**
 * @file
 * Serving-engine tests: the batched forward pass must be
 * bit-identical to sequential forwards for every quantization mode,
 * thread count, and ragged mix of sequence lengths — batching is a
 * throughput optimization, never a numerics change — and the batch
 * scheduler must coalesce, cap, and timeout-flush exactly as
 * configured.
 */

#include <algorithm>
#include <chrono>
#include <future>
#include <memory>
#include <thread>
#include <tuple>
#include <gtest/gtest.h>

#include "common/parallel.hh"
#include "model/config.hh"
#include "model/pipeline.hh"
#include "model/scheduler.hh"
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

class ServingFixture : public ::testing::Test
{
  protected:
    ServingFixture()
        : model(tinyConfig(), 23),
          exp(1.179, -0.977, 8),
          quantizer(exp),
          pipeline(model, quantizer)
    {
        pipeline.quantizeWeights();
        std::vector<Tensor> batch;
        for (int i = 0; i < 4; ++i)
            batch.push_back(model.makeInput(16, 100 + i));
        pipeline.profileActivations(batch);
    }

    /** Ragged serving batch: wildly different sequence lengths. */
    std::vector<Tensor>
    raggedInputs() const
    {
        std::vector<Tensor> inputs;
        const size_t lens[] = {7, 16, 1, 12, 3};
        for (size_t i = 0; i < 5; ++i)
            inputs.push_back(model.makeInput(lens[i], 700 + i));
        return inputs;
    }

    Transformer model;
    ExpDictionary exp;
    Quantizer quantizer;
    QuantizedTransformer pipeline;
};

TEST_F(ServingFixture, BatchedForwardBitIdenticalAllModesAndThreads)
{
    const auto inputs = raggedInputs();
    const size_t original = threadCount();
    for (const QuantMode mode : {QuantMode::WeightsOnly,
                                 QuantMode::WeightsAndActivations}) {
        // Sequential references, computed single-threaded.
        setThreadCount(1);
        std::vector<Tensor> refs;
        for (const Tensor &in : inputs)
            refs.push_back(pipeline.forward(in, mode));

        for (const size_t t : {1u, 2u, 5u}) {
            setThreadCount(t);
            const auto outs = pipeline.forwardBatch(inputs, mode);
            ASSERT_EQ(outs.size(), inputs.size());
            for (size_t i = 0; i < outs.size(); ++i)
                expectBitIdentical(
                    refs[i], outs[i],
                    "mode=" +
                        std::to_string(static_cast<int>(mode)) +
                        " threads=" + std::to_string(t) +
                        " req=" + std::to_string(i));
        }
    }
    setThreadCount(original);
}

TEST_F(ServingFixture, ForwardBitIdenticalAcrossThreadsAndLanesBothModes)
{
    // For each QuantMode, forward passes are bit-identical across
    // thread counts {1, 2, hw} and lanes — the engine fixes
    // per-output-element arithmetic order, and everything above it
    // is already order-invariant.
    const Tensor in = model.makeInput(11, 919);
    const ThreadCountGuard thread_guard;
    const size_t hw = std::max<size_t>(
        1, std::thread::hardware_concurrency());

    for (const QuantMode mode :
         {QuantMode::WeightsOnly, QuantMode::WeightsAndActivations}) {
        setThreadCount(1);
        const Tensor ref = pipeline.forward(in, mode);
        for (const size_t t : {size_t{1}, size_t{2}, hw}) {
            setThreadCount(t);
            for (const Lane lane : {Lane{}, Lane::acquire()}) {
                expectBitIdentical(
                    ref, pipeline.forward(in, mode, lane),
                    "mode=" + std::to_string(static_cast<int>(mode)) +
                        " threads=" + std::to_string(t) +
                        " lane=" + std::to_string(lane.id()));
            }
            // Batched serving path.
            const auto outs = pipeline.forwardBatch({in, in}, mode);
            ASSERT_EQ(outs.size(), 2u);
            for (const Tensor &out : outs)
                expectBitIdentical(ref, out,
                                   "batched threads=" +
                                       std::to_string(t));
        }
    }
}

TEST_F(ServingFixture, CountersMatchAcrossForwardEntryPoints)
{
    // forward()/forwardBatch() and chained forwardStep() run the same
    // layer step, so two fresh pipelines serving the same sequences
    // through either entry point must land on the exact same
    // activation outlier fraction and GEMM pair-routing stats.
    std::vector<Tensor> batch;
    for (int i = 0; i < 2; ++i)
        batch.push_back(model.makeInput(12, 300 + i));
    const Tensor in = model.makeInput(8, 333);
    const QuantMode mode = QuantMode::WeightsAndActivations;

    auto run = [&](bool stepwise) {
        QuantizedTransformer p(model, quantizer);
        p.quantizeWeights();
        p.profileActivations(batch);
        if (stepwise) {
            const auto chain = [&](const Tensor &x,
                                   const std::vector<size_t> &starts) {
                Tensor y = x;
                for (size_t l = 0; l < p.stepCount(); ++l)
                    y = p.forwardStep(l, y, starts, mode);
                return y;
            };
            mapStackedBatch({in}, chain);
            mapStackedBatch(batch, chain);
        } else {
            p.forward(in, mode);
            p.forwardBatch(batch, mode);
        }
        return std::tuple<double, uint64_t, uint64_t>(
            p.activationOutlierFraction(),
            p.matmulStats().gaussianPairs.load(),
            p.matmulStats().outlierPairs.load());
    };
    const auto whole = run(false);
    const auto steps = run(true);
    EXPECT_DOUBLE_EQ(std::get<0>(steps), std::get<0>(whole));
    EXPECT_GT(std::get<0>(whole), 0.0);
    EXPECT_EQ(std::get<1>(steps), std::get<1>(whole));
    EXPECT_EQ(std::get<2>(steps), std::get<2>(whole));
}

TEST_F(ServingFixture, SingleSequenceBatchMatchesForward)
{
    const Tensor in = model.makeInput(9, 42);
    const auto outs = pipeline.forwardBatch(
        {in}, QuantMode::WeightsAndActivations);
    ASSERT_EQ(outs.size(), 1u);
    expectBitIdentical(
        pipeline.forward(in, QuantMode::WeightsAndActivations),
        outs[0], "single");
}

TEST_F(ServingFixture, BatchedStatsMatchSequentialStats)
{
    // The pair counters are atomics fed by concurrent head jobs;
    // batching must route exactly the same pairs as N sequential
    // forwards (determinism of the counters, not just the outputs).
    const auto inputs = raggedInputs();

    const uint64_t g0 = pipeline.matmulStats().gaussianPairs;
    const uint64_t o0 = pipeline.matmulStats().outlierPairs;
    for (const Tensor &in : inputs)
        pipeline.forward(in, QuantMode::WeightsAndActivations);
    const uint64_t g_seq =
        pipeline.matmulStats().gaussianPairs - g0;
    const uint64_t o_seq = pipeline.matmulStats().outlierPairs - o0;

    pipeline.forwardBatch(inputs, QuantMode::WeightsAndActivations);
    const uint64_t g_batch =
        pipeline.matmulStats().gaussianPairs - g0 - g_seq;
    const uint64_t o_batch =
        pipeline.matmulStats().outlierPairs - o0 - o_seq;

    EXPECT_EQ(g_batch, g_seq);
    EXPECT_EQ(o_batch, o_seq);
}

TEST_F(ServingFixture, FloatBatchedForwardBitIdentical)
{
    const auto inputs = raggedInputs();
    const auto outs = model.forwardBatch(inputs);
    ASSERT_EQ(outs.size(), inputs.size());
    for (size_t i = 0; i < inputs.size(); ++i)
        expectBitIdentical(model.forward(inputs[i]), outs[i],
                           "float req=" + std::to_string(i));
}

TEST_F(ServingFixture, EmptyBatchIsEmpty)
{
    EXPECT_TRUE(pipeline
                    .forwardBatch({}, QuantMode::WeightsAndActivations)
                    .empty());
}

// ---- scheduler ------------------------------------------------------

TEST_F(ServingFixture, SchedulerResultsBitIdenticalToDirectForward)
{
    const auto inputs = raggedInputs();
    std::vector<Tensor> refs;
    for (const Tensor &in : inputs)
        refs.push_back(
            pipeline.forward(in, QuantMode::WeightsAndActivations));

    BatchSchedulerConfig cfg;
    cfg.maxBatch = 3;
    cfg.flushTimeout = std::chrono::microseconds(5000);
    BatchScheduler sched(pipeline, QuantMode::WeightsAndActivations,
                         cfg);
    std::vector<std::future<Tensor>> futs;
    for (const Tensor &in : inputs)
        futs.push_back(sched.submit(in));
    for (size_t i = 0; i < futs.size(); ++i)
        expectBitIdentical(refs[i], futs[i].get(),
                           "sched req=" + std::to_string(i));

    const auto st = sched.stats();
    EXPECT_EQ(st.requests, inputs.size());
    EXPECT_GE(st.batches, 2u); // 5 requests, max 3 per batch
    EXPECT_EQ(st.batchedRows, 7u + 16u + 1u + 12u + 3u);
}

TEST_F(ServingFixture, SchedulerCoalescesUpToMaxBatch)
{
    BatchSchedulerConfig cfg;
    cfg.maxBatch = 3;
    // Generous timeout: the only way a batch dispatches quickly is
    // by filling up, so the exact counts below are robust even on a
    // heavily loaded CI runner.
    cfg.flushTimeout = std::chrono::seconds(2);
    BatchScheduler sched(pipeline, QuantMode::WeightsAndActivations,
                         cfg);

    std::vector<std::future<Tensor>> futs;
    for (int i = 0; i < 6; ++i)
        futs.push_back(sched.submit(model.makeInput(4, 800 + i)));
    for (auto &f : futs)
        f.get();

    const auto st = sched.stats();
    EXPECT_EQ(st.requests, 6u);
    EXPECT_EQ(st.batches, 2u);
    EXPECT_EQ(st.capacityFlushes, 2u);
    EXPECT_EQ(st.timeoutFlushes, 0u);
    for (const size_t s : sched.batchSizes())
        EXPECT_EQ(s, 3u);
}

TEST_F(ServingFixture, SchedulerTimeoutFlushesPartialBatch)
{
    BatchSchedulerConfig cfg;
    cfg.maxBatch = 8;
    // Long enough that both submits land inside the window even
    // when the test thread gets descheduled on a busy runner.
    cfg.flushTimeout = std::chrono::milliseconds(200);
    BatchScheduler sched(pipeline, QuantMode::WeightsAndActivations,
                         cfg);

    auto f1 = sched.submit(model.makeInput(4, 810));
    auto f2 = sched.submit(model.makeInput(4, 811));
    f1.get();
    f2.get();

    const auto st = sched.stats();
    EXPECT_EQ(st.batches, 1u);
    EXPECT_EQ(st.timeoutFlushes, 1u);
    EXPECT_EQ(st.capacityFlushes, 0u);
    ASSERT_EQ(sched.batchSizes().size(), 1u);
    EXPECT_EQ(sched.batchSizes()[0], 2u);
}

TEST_F(ServingFixture, SchedulerRespectsMaxTokens)
{
    BatchSchedulerConfig cfg;
    cfg.maxBatch = 8;
    cfg.maxTokens = 20; // requests are 8 rows: 2 per batch
    cfg.flushTimeout = std::chrono::milliseconds(100);
    BatchScheduler sched(pipeline, QuantMode::WeightsAndActivations,
                         cfg);

    std::vector<std::future<Tensor>> futs;
    for (int i = 0; i < 4; ++i)
        futs.push_back(sched.submit(model.makeInput(8, 820 + i)));
    for (auto &f : futs)
        f.get();

    for (const size_t s : sched.batchSizes())
        EXPECT_LE(s, 2u);
    EXPECT_GE(sched.stats().batches, 2u);
}

TEST_F(ServingFixture, SchedulerDrainFlushesImmediately)
{
    BatchSchedulerConfig cfg;
    cfg.maxBatch = 8;
    // Without drain() this would sit for a second before flushing.
    cfg.flushTimeout = std::chrono::seconds(1);
    BatchScheduler sched(pipeline, QuantMode::WeightsAndActivations,
                         cfg);

    const Tensor in = model.makeInput(5, 830);
    auto f = sched.submit(in);
    const auto t0 = std::chrono::steady_clock::now();
    sched.drain();
    const auto elapsed =
        std::chrono::duration<double>(
            std::chrono::steady_clock::now() - t0)
            .count();
    EXPECT_EQ(f.wait_for(std::chrono::seconds(0)),
              std::future_status::ready);
    EXPECT_LT(elapsed, 0.9); // did not wait out the flush timeout
    expectBitIdentical(
        pipeline.forward(in, QuantMode::WeightsAndActivations),
        f.get(), "drain");
}

TEST_F(ServingFixture, SchedulerDestructorFlushesQueue)
{
    std::future<Tensor> f;
    {
        BatchSchedulerConfig cfg;
        cfg.maxBatch = 8;
        cfg.flushTimeout = std::chrono::seconds(1);
        BatchScheduler sched(pipeline,
                             QuantMode::WeightsAndActivations, cfg);
        f = sched.submit(model.makeInput(6, 840));
        // Destructor must flush and complete the pending request.
    }
    EXPECT_EQ(f.wait_for(std::chrono::seconds(0)),
              std::future_status::ready);
    expectBitIdentical(
        pipeline.forward(model.makeInput(6, 840),
                         QuantMode::WeightsAndActivations),
        f.get(), "dtor");
}

TEST_F(ServingFixture, SchedulerWeightsOnlyMode)
{
    BatchSchedulerConfig cfg;
    cfg.maxBatch = 4;
    cfg.flushTimeout = std::chrono::milliseconds(10);
    BatchScheduler sched(pipeline, QuantMode::WeightsOnly, cfg);
    const Tensor in = model.makeInput(8, 850);
    auto f = sched.submit(in);
    expectBitIdentical(pipeline.forward(in, QuantMode::WeightsOnly),
                       f.get(), "weights-only");
}

TEST_F(ServingFixture, SchedulerLaneCountClampsAndReports)
{
    BatchSchedulerConfig cfg;
    cfg.laneCount = 0; // invalid: clamped to one dispatcher lane
    BatchScheduler sched(pipeline, QuantMode::WeightsAndActivations,
                         cfg);
    EXPECT_EQ(sched.laneCount(), 1u);
    ASSERT_EQ(sched.laneUsage().size(), 1u);
    EXPECT_NE(sched.laneUsage()[0].laneId, 0u); // private lane
}

TEST_F(ServingFixture, TwoLanesDispatchConcurrentBatches)
{
    BatchSchedulerConfig cfg;
    cfg.maxBatch = 1; // every request is its own micro-batch
    cfg.laneCount = 2;
    cfg.flushTimeout = std::chrono::microseconds(100);
    BatchScheduler sched(pipeline, QuantMode::WeightsAndActivations,
                         cfg);

    constexpr int kReqs = 24;
    std::vector<std::future<Tensor>> futs;
    std::vector<Tensor> ins;
    for (int i = 0; i < kReqs; ++i)
        ins.push_back(model.makeInput(2 + i % 3, 900 + i));
    for (const Tensor &in : ins)
        futs.push_back(sched.submit(in));
    for (int i = 0; i < kReqs; ++i)
        expectBitIdentical(
            pipeline.forward(ins[i],
                             QuantMode::WeightsAndActivations),
            futs[i].get(), "lane req=" + std::to_string(i));
    // Futures resolve before the dispatcher publishes its lane
    // accounting; drain() synchronizes with that publication.
    sched.drain();
    EXPECT_EQ(sched.stats().requests,
              static_cast<uint64_t>(kReqs));

    // Both dispatchers must be able to dispatch. A single wave can
    // land entirely on one lane when the other dispatcher thread
    // never gets scheduled mid-wave (single-core CI hosts — and the
    // fused encoder makes these tiny batches finish even faster),
    // so keep feeding bounded extra waves until both lanes have
    // dispatched; every response is still verified bit-identical.
    auto usage = sched.laneUsage();
    ASSERT_EQ(usage.size(), 2u);
    for (int round = 0;
         round < 50 && (usage[0].batches == 0 ||
                        usage[1].batches == 0);
         ++round) {
        std::vector<std::future<Tensor>> extra;
        for (int i = 0; i < 8; ++i)
            extra.push_back(sched.submit(ins[i]));
        for (int i = 0; i < 8; ++i)
            expectBitIdentical(
                pipeline.forward(ins[i],
                                 QuantMode::WeightsAndActivations),
                extra[i].get(),
                "extra wave req=" + std::to_string(i));
        sched.drain();
        usage = sched.laneUsage();
    }

    const auto st = sched.stats();
    EXPECT_NE(usage[0].laneId, usage[1].laneId);
    EXPECT_EQ(usage[0].batches + usage[1].batches, st.batches);
    EXPECT_EQ(usage[0].rows + usage[1].rows, st.batchedRows);
    EXPECT_GT(usage[0].batches, 0u);
    EXPECT_GT(usage[1].batches, 0u);
}

TEST_F(ServingFixture, MultiSchedulerMultiLaneStressBitIdentical)
{
    // The tentpole acceptance scenario: M concurrent schedulers x N
    // lanes each, hammered by racing clients, across pool sizes
    // (setThreadCount is the test hook for MOKEY_THREADS). Every
    // response must stay bit-identical to an unbatched sequential
    // forward of that request.
    constexpr size_t kSchedulers = 2;
    constexpr size_t kClients = 4;
    constexpr size_t kReqsPerClient = 3;

    // References computed single-threaded up front; the engine
    // guarantees bit-parity across thread counts and lanes.
    const size_t original = threadCount();
    setThreadCount(1);
    std::vector<Tensor> ins;
    std::vector<Tensor> refs;
    for (size_t c = 0; c < kClients; ++c) {
        for (size_t r = 0; r < kReqsPerClient; ++r) {
            ins.push_back(
                model.makeInput(1 + (c * kReqsPerClient + r) % 5,
                                1000 + c * 100 + r));
            refs.push_back(pipeline.forward(
                ins.back(), QuantMode::WeightsAndActivations));
        }
    }

    const size_t hw = std::max<size_t>(
        1, std::thread::hardware_concurrency());
    for (const size_t t : {size_t{1}, size_t{2}, hw}) {
        setThreadCount(t);
        BatchSchedulerConfig cfg;
        cfg.maxBatch = 3;
        cfg.laneCount = 2;
        cfg.flushTimeout = std::chrono::microseconds(500);
        std::vector<std::unique_ptr<BatchScheduler>> scheds;
        for (size_t s = 0; s < kSchedulers; ++s)
            scheds.push_back(std::make_unique<BatchScheduler>(
                pipeline, QuantMode::WeightsAndActivations, cfg));

        std::vector<std::thread> clients;
        std::vector<int> ok(kClients, 0);
        for (size_t c = 0; c < kClients; ++c) {
            clients.emplace_back([&, c] {
                bool good = true;
                for (size_t r = 0; r < kReqsPerClient; ++r) {
                    const size_t i = c * kReqsPerClient + r;
                    auto f =
                        scheds[c % kSchedulers]->submit(ins[i]);
                    const Tensor out = f.get();
                    good = good && out.rows() == refs[i].rows() &&
                        out.raw() == refs[i].raw();
                }
                ok[c] = good ? 1 : 0;
            });
        }
        for (auto &cl : clients)
            cl.join();
        for (size_t c = 0; c < kClients; ++c)
            EXPECT_EQ(ok[c], 1)
                << "client " << c << " threads=" << t;
        uint64_t reqs = 0;
        for (const auto &s : scheds)
            reqs += s->stats().requests;
        EXPECT_EQ(reqs, kClients * kReqsPerClient);
    }
    setThreadCount(original);
}

TEST_F(ServingFixture, ConcurrentSubmittersAllServed)
{
    BatchSchedulerConfig cfg;
    cfg.maxBatch = 4;
    cfg.flushTimeout = std::chrono::milliseconds(5);
    BatchScheduler sched(pipeline, QuantMode::WeightsAndActivations,
                         cfg);

    // Several client threads race submissions; every future must
    // resolve to its own request's exact result.
    std::vector<std::thread> clients;
    std::vector<int> ok(4, 0);
    for (int t = 0; t < 4; ++t) {
        clients.emplace_back([&, t] {
            const Tensor in =
                model.makeInput(3 + t, 860 + t);
            const Tensor ref = pipeline.forward(
                in, QuantMode::WeightsAndActivations);
            auto f = sched.submit(in);
            const Tensor out = f.get();
            if (out.rows() == ref.rows() &&
                out.raw() == ref.raw())
                ok[t] = 1;
        });
    }
    for (auto &c : clients)
        c.join();
    for (int t = 0; t < 4; ++t)
        EXPECT_EQ(ok[t], 1) << "client " << t;
    EXPECT_EQ(sched.stats().requests, 4u);
}

// ---- failure paths --------------------------------------------------
//
// The two production-fatal bugs this suite pins down: a throwing
// engine used to abandon the batch's promises and std::terminate the
// process, and a submit racing shutdown used to panic through
// MOKEY_ASSERT. Both must now degrade to per-request errors.

/** Functor engine: echoes inputs, throws while poisoned. */
struct PoisonableEcho
{
    std::atomic<bool> poison{false};
    std::atomic<uint64_t> calls{0};

    BatchForwardFn
    fn()
    {
        return [this](const std::vector<Tensor> &inputs, QuantMode,
                      Lane) -> std::vector<Tensor> {
            ++calls;
            if (poison.load())
                throw std::runtime_error("poisoned batch");
            return inputs;
        };
    }
};

TEST(SchedulerFailure, ThrowingEngineFailsEveryFutureInBatch)
{
    PoisonableEcho engine;
    engine.poison = true;
    BatchSchedulerConfig cfg;
    cfg.maxBatch = 3;
    cfg.flushTimeout = std::chrono::milliseconds(1);
    BatchScheduler sched(engine.fn(),
                         QuantMode::WeightsAndActivations, cfg);

    std::vector<std::future<Tensor>> futs;
    for (int i = 0; i < 3; ++i) {
        Tensor in(2, 4);
        in.raw()[0] = static_cast<float>(i);
        futs.push_back(sched.submit(std::move(in)));
    }
    for (auto &f : futs) {
        try {
            f.get();
            FAIL() << "future of a failed batch resolved";
        } catch (const std::runtime_error &e) {
            EXPECT_STREQ(e.what(), "poisoned batch");
        }
    }
    // drain() synchronizes with the dispatcher's post-batch counter
    // restore; it would hang forever if the failed batch leaked its
    // in-flight accounting.
    sched.drain();
    EXPECT_GE(sched.stats().failedBatches, 1u);
    EXPECT_EQ(sched.queueDepth(), 0u)
        << "failed batch leaked in-flight accounting";

    // The dispatcher survived: subsequent batches serve correctly
    // on the same scheduler.
    engine.poison = false;
    Tensor in(3, 4);
    for (size_t i = 0; i < in.size(); ++i)
        in.raw()[i] = 0.5f * static_cast<float>(i);
    Tensor out = sched.submit(in).get();
    ASSERT_EQ(out.rows(), in.rows());
    EXPECT_EQ(out.raw(), in.raw());
    sched.drain();
    EXPECT_EQ(sched.queueDepth(), 0u);
}

TEST(SchedulerFailure, AlternatingFailuresDoNotPoisonNeighbors)
{
    // Interleave failing and succeeding batches: each failure is
    // scoped to exactly its own batch.
    PoisonableEcho engine;
    BatchSchedulerConfig cfg;
    cfg.maxBatch = 1;
    cfg.flushTimeout = std::chrono::microseconds(100);
    BatchScheduler sched(engine.fn(),
                         QuantMode::WeightsAndActivations, cfg);
    for (int round = 0; round < 6; ++round) {
        engine.poison = (round % 2 == 0);
        Tensor in(1, 4);
        in.raw()[2] = static_cast<float>(round);
        auto fut = sched.submit(std::move(in));
        if (round % 2 == 0) {
            EXPECT_THROW(fut.get(), std::runtime_error)
                << "round " << round;
        } else {
            EXPECT_EQ(fut.get().raw()[2],
                      static_cast<float>(round))
                << "round " << round;
        }
    }
    sched.drain(); // synchronize with the dispatcher's counters
    const auto st = sched.stats();
    EXPECT_EQ(st.failedBatches, 3u);
    EXPECT_EQ(st.batches, 6u);
}

TEST(SchedulerFailure, WrongOutputCountFailsBatchGracefully)
{
    BatchScheduler sched(
        [](const std::vector<Tensor> &, QuantMode,
           Lane) -> std::vector<Tensor> {
            return {}; // lost every request's output
        },
        QuantMode::WeightsAndActivations, {});
    Tensor in(1, 4);
    auto fut = sched.submit(std::move(in));
    EXPECT_THROW(fut.get(), std::runtime_error);
    sched.drain(); // synchronize with the dispatcher's counters
    EXPECT_EQ(sched.stats().failedBatches, 1u);
}

TEST(SchedulerFailure, SubmitAfterStopRejectedGracefully)
{
    PoisonableEcho engine;
    BatchScheduler sched(engine.fn(),
                         QuantMode::WeightsAndActivations, {});
    sched.stop();

    // Future path: the error arrives through the future, the
    // process lives (this used to MOKEY_ASSERT-panic).
    auto fut = sched.submit(Tensor(1, 4));
    try {
        fut.get();
        FAIL() << "submit after stop resolved";
    } catch (const std::runtime_error &e) {
        EXPECT_NE(std::string(e.what()).find("stopped"),
                  std::string::npos);
    }

    // Callback path: rejected synchronously, callback never fires.
    std::atomic<bool> fired{false};
    const bool accepted = sched.submit(
        Tensor(1, 4),
        [&fired](Tensor, std::exception_ptr) { fired = true; });
    EXPECT_FALSE(accepted);
    EXPECT_FALSE(fired.load());

    EXPECT_EQ(sched.stats().rejected, 2u);
    EXPECT_EQ(engine.calls.load(), 0u);
    sched.stop(); // idempotent
}

TEST(SchedulerFailure, EmptyInputRejectedGracefully)
{
    PoisonableEcho engine;
    BatchScheduler sched(engine.fn(),
                         QuantMode::WeightsAndActivations, {});
    auto fut = sched.submit(Tensor{});
    EXPECT_THROW(fut.get(), std::runtime_error);
    EXPECT_EQ(sched.stats().rejected, 1u);
    sched.drain();
}

TEST(SchedulerFailure, CallbackSubmitDeliversResultAndError)
{
    PoisonableEcho engine;
    BatchSchedulerConfig cfg;
    cfg.flushTimeout = std::chrono::microseconds(100);
    BatchScheduler sched(engine.fn(),
                         QuantMode::WeightsAndActivations, cfg);

    Tensor in(2, 3);
    in.raw()[5] = 42.0f;
    std::promise<Tensor> okProm;
    ASSERT_TRUE(sched.submit(
        in, [&okProm](Tensor out, std::exception_ptr err) {
            ASSERT_EQ(err, nullptr);
            okProm.set_value(std::move(out));
        }));
    EXPECT_EQ(okProm.get_future().get().raw()[5], 42.0f);

    engine.poison = true;
    std::promise<std::exception_ptr> errProm;
    ASSERT_TRUE(sched.submit(
        in, [&errProm](Tensor, std::exception_ptr err) {
            errProm.set_value(err);
        }));
    const std::exception_ptr err = errProm.get_future().get();
    ASSERT_NE(err, nullptr);
    EXPECT_THROW(std::rethrow_exception(err), std::runtime_error);
}

TEST(SchedulerFailure, ThrowingCompletionCallbackDoesNotKillDispatcher)
{
    PoisonableEcho engine;
    BatchSchedulerConfig cfg;
    cfg.flushTimeout = std::chrono::microseconds(100);
    BatchScheduler sched(engine.fn(),
                         QuantMode::WeightsAndActivations, cfg);

    std::promise<void> fired;
    ASSERT_TRUE(sched.submit(
        Tensor(1, 2), [&fired](Tensor, std::exception_ptr) {
            fired.set_value();
            throw std::runtime_error("bad callback");
        }));
    fired.get_future().get();

    // Dispatcher survived the throwing callback: normal service
    // continues.
    Tensor in(1, 2);
    in.raw()[1] = 9.0f;
    EXPECT_EQ(sched.submit(in).get().raw()[1], 9.0f);
    sched.drain();
}

} // anonymous namespace
} // namespace mokey
