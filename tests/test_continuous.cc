/**
 * @file
 * Continuous-scheduler tests: iteration-level batching must be a
 * scheduling change only. Whatever join/leave schedule the step loop
 * ends up running — across engines, quantization modes, thread
 * counts, and work-stealing on or off — every response must be
 * bit-identical to a one-shot forward of that request, a poisoned
 * request must fail alone, and the two-class policy must meter
 * prefill work exactly as configured.
 */

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdlib>
#include <future>
#include <mutex>
#include <thread>
#include <vector>
#include <gtest/gtest.h>

#include "common/parallel.hh"
#include "model/config.hh"
#include "model/continuous_scheduler.hh"
#include "model/pipeline.hh"
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

/** Restores the work-stealing knob even when an assertion bails. */
struct StealGuard
{
    bool prior = laneStealing();
    ~StealGuard() { setLaneStealing(prior); }
};

class ContinuousFixture : public ::testing::Test
{
  protected:
    ContinuousFixture()
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

    /** Ragged serving mix: decode-sized and prefill-sized requests
     *  interleaved, so both classes are exercised. */
    std::vector<Tensor>
    raggedInputs() const
    {
        std::vector<Tensor> inputs;
        const size_t lens[] = {7, 1, 16, 2, 12, 1, 3, 9};
        for (size_t i = 0; i < 8; ++i)
            inputs.push_back(model.makeInput(lens[i], 700 + i));
        return inputs;
    }

    Transformer model;
    ExpDictionary exp;
    Quantizer quantizer;
    QuantizedTransformer pipeline;
};

TEST_F(ContinuousFixture, BitIdenticalAcrossModesAndThreads)
{
    const auto inputs = raggedInputs();
    const ThreadCountGuard thread_guard;
    const size_t hw = std::max<size_t>(
        1, std::thread::hardware_concurrency());

    for (const QuantMode mode :
         {QuantMode::WeightsOnly, QuantMode::WeightsAndActivations}) {
        // One-shot references, computed single-threaded.
        setThreadCount(1);
        std::vector<Tensor> refs;
        for (const Tensor &in : inputs)
            refs.push_back(pipeline.forward(in, mode));

        for (const size_t t : {size_t{1}, size_t{2}, hw}) {
            setThreadCount(t);
            // Small maxBatch + tight chunk budget force real
            // join/leave churn and prefill deferrals: requests enter
            // the running batch as slots free up and at different
            // layers.
            ContinuousSchedulerConfig cfg;
            cfg.maxBatch = 3;
            cfg.decodeMaxRows = 2;
            cfg.chunkTokens = 16;
            ContinuousScheduler sched(pipeline, mode, cfg);
            std::vector<std::future<Tensor>> futs;
            for (const Tensor &in : inputs)
                futs.push_back(sched.submit(Tensor(in)));
            for (size_t i = 0; i < futs.size(); ++i)
                expectBitIdentical(
                    refs[i], futs[i].get(),
                    "mode=" + std::to_string(static_cast<int>(mode)) +
                        " threads=" + std::to_string(t) +
                        " req=" + std::to_string(i));
            // Futures resolve before the step thread merges its
            // counters; drain() orders the snapshot.
            sched.drain();
            const auto st = sched.stats();
            EXPECT_EQ(st.completed, inputs.size());
            EXPECT_EQ(st.failedRequests, 0u);
        }
    }
}

TEST_F(ContinuousFixture, StaggeredJoinsStayBitIdentical)
{
    // Requests arriving while earlier ones are mid-pass join the
    // running batch at layer 0 — co-batched groups then mix layers
    // and classes — and every response still matches the one-shot
    // forward bit for bit, with stealing both off and on.
    const auto inputs = raggedInputs();
    const QuantMode mode = QuantMode::WeightsAndActivations;
    const ThreadCountGuard thread_guard;
    const StealGuard steal_guard;
    setThreadCount(1);
    std::vector<Tensor> refs;
    for (const Tensor &in : inputs)
        refs.push_back(pipeline.forward(in, mode));
    setThreadCount(4);

    for (const bool steal : {false, true}) {
        setLaneStealing(steal);
        ContinuousSchedulerConfig cfg;
        cfg.maxBatch = 4;
        cfg.decodeMaxRows = 2;
        cfg.chunkTokens = 12;
        ContinuousScheduler sched(pipeline, mode, cfg);
        std::vector<std::future<Tensor>> futs;
        for (size_t i = 0; i < inputs.size(); ++i) {
            futs.push_back(sched.submit(Tensor(inputs[i])));
            if (i % 3 == 2)
                std::this_thread::sleep_for(
                    std::chrono::milliseconds(2));
        }
        for (size_t i = 0; i < futs.size(); ++i)
            expectBitIdentical(refs[i], futs[i].get(),
                               "steal=" + std::to_string(steal) +
                                   " req=" + std::to_string(i));
    }
}

/** Step stub: adds 1 to every element per layer; throws on requests
 *  whose first element carries the poison marker. */
struct StubStep
{
    static constexpr float kPoison = 1e6f;

    std::atomic<uint64_t> calls{0};

    Tensor
    operator()(size_t, const Tensor &stacked,
               const std::vector<size_t> &starts, QuantMode, Lane)
    {
        ++calls;
        for (size_t s = 0; s + 1 < starts.size(); ++s)
            if (stacked.at(starts[s], 0) >= kPoison)
                throw std::runtime_error("poisoned request");
        Tensor out(stacked.rows(), stacked.cols());
        for (size_t i = 0; i < stacked.size(); ++i)
            out.raw()[i] = stacked.raw()[i] + 1.0f;
        return out;
    }
};

Tensor
constTensor(size_t rows, size_t cols, float v)
{
    Tensor t(rows, cols);
    for (size_t i = 0; i < t.size(); ++i)
        t.raw()[i] = v;
    return t;
}

TEST(ContinuousScheduling, PoisonedRequestFailsAloneMidStream)
{
    constexpr size_t kSteps = 3;
    constexpr float kBlock = 100.0f;
    StubStep stub;
    std::atomic<bool> release{false};
    ContinuousSchedulerConfig cfg;
    cfg.maxBatch = 8;
    cfg.decodeMaxRows = 2;
    ContinuousScheduler sched(
        [&stub, &release](size_t l, const Tensor &x,
                          const std::vector<size_t> &s, QuantMode m,
                          Lane ln) {
            // The blocker request parks the step loop until the
            // test has queued the whole wave, so the wave is
            // admitted together and stacks into one group.
            if (x.at(0, 0) >= kBlock &&
                x.at(0, 0) < StubStep::kPoison)
                while (!release.load())
                    std::this_thread::sleep_for(
                        std::chrono::microseconds(50));
            return stub(l, x, s, m, ln);
        },
        kSteps, QuantMode::WeightsAndActivations, cfg);

    auto blocker = sched.submit(constTensor(1, 4, kBlock));
    // Good requests around the poisoned one, same decode class and
    // (once admitted together) the same layer, so they stack into
    // one group and the group throw must be isolated by individual
    // retries.
    auto good0 = sched.submit(constTensor(2, 4, 1.0f));
    auto bad = sched.submit(constTensor(2, 4, StubStep::kPoison));
    auto good1 = sched.submit(constTensor(2, 4, 5.0f));
    release.store(true);

    EXPECT_EQ(blocker.get().raw()[0], kBlock + kSteps);
    const Tensor out0 = good0.get();
    EXPECT_EQ(out0.raw()[0], 1.0f + kSteps);
    EXPECT_THROW(bad.get(), std::runtime_error);
    const Tensor out1 = good1.get();
    EXPECT_EQ(out1.raw()[0], 5.0f + kSteps);

    // The scheduler keeps serving after the poison.
    auto after = sched.submit(constTensor(1, 4, 2.0f));
    EXPECT_EQ(after.get().raw()[0], 2.0f + kSteps);

    sched.drain();
    const auto st = sched.stats();
    EXPECT_EQ(st.completed, 4u);
    EXPECT_EQ(st.failedRequests, 1u);
    EXPECT_GE(st.isolationRetries, 2u)
        << "the group throw was not isolated by individual retries";
    EXPECT_EQ(sched.queueDepth(), 0u);
}

TEST(ContinuousScheduling, ChunkBudgetDefersPrefillButNeverStarves)
{
    constexpr size_t kSteps = 4;
    constexpr float kBlock = 100.0f;
    StubStep stub;
    std::atomic<bool> release{false};
    ContinuousSchedulerConfig cfg;
    cfg.maxBatch = 8;
    cfg.decodeMaxRows = 2;
    cfg.chunkTokens = 8; // one 8-row prefill per iteration
    ContinuousScheduler sched(
        [&stub, &release](size_t l, const Tensor &x,
                          const std::vector<size_t> &s, QuantMode m,
                          Lane ln) {
            if (x.at(0, 0) >= kBlock)
                while (!release.load())
                    std::this_thread::sleep_for(
                        std::chrono::microseconds(50));
            return stub(l, x, s, m, ln);
        },
        kSteps, QuantMode::WeightsAndActivations, cfg);

    // Two 8-row prefills compete for an 8-row budget; decodes ride
    // along with priority. The blocker keeps the step loop parked
    // until the whole mix is queued, so both prefills are
    // co-resident from the first scheduling decision on.
    auto blocker = sched.submit(constTensor(1, 4, kBlock));
    std::vector<std::future<Tensor>> futs;
    futs.push_back(sched.submit(constTensor(8, 4, 1.0f)));
    futs.push_back(sched.submit(constTensor(8, 4, 2.0f)));
    futs.push_back(sched.submit(constTensor(1, 4, 3.0f)));
    futs.push_back(sched.submit(constTensor(1, 4, 4.0f)));
    release.store(true);
    EXPECT_EQ(blocker.get().raw()[0], kBlock + kSteps);
    for (size_t i = 0; i < futs.size(); ++i) {
        const Tensor out = futs[i].get();
        EXPECT_EQ(out.raw()[0],
                  static_cast<float>(i + 1) + kSteps)
            << "req=" << i;
    }
    sched.drain();
    const auto st = sched.stats();
    EXPECT_EQ(st.completed, 5u);
    EXPECT_GE(st.prefillDeferrals, 1u)
        << "budget never held a prefill back";
    EXPECT_GE(st.decodeSteps, 1u);
    EXPECT_GE(st.prefillSteps, 2u * kSteps)
        << "deferred prefills must still advance every layer";
    EXPECT_EQ(st.failedRequests, 0u);
}

TEST(ContinuousScheduling, DecodePriorityOffMeltsClasses)
{
    constexpr size_t kSteps = 2;
    StubStep stub;
    ContinuousSchedulerConfig cfg;
    cfg.decodeMaxRows = 2;
    cfg.decodePriority = false;
    ContinuousScheduler sched(
        [&stub](size_t l, const Tensor &x,
                const std::vector<size_t> &s, QuantMode m, Lane ln) {
            return stub(l, x, s, m, ln);
        },
        kSteps, QuantMode::WeightsAndActivations, cfg);

    auto small = sched.submit(constTensor(1, 4, 1.0f));
    auto large = sched.submit(constTensor(16, 4, 2.0f));
    EXPECT_EQ(small.get().raw()[0], 1.0f + kSteps);
    EXPECT_EQ(large.get().raw()[0], 2.0f + kSteps);
    sched.drain();
    const auto st = sched.stats();
    EXPECT_EQ(st.decodeSteps, 0u)
        << "priority off must leave a single class";
    EXPECT_GE(st.prefillSteps, 1u);
}

TEST(ContinuousScheduling, RejectsStoppedAndEmptySubmits)
{
    StubStep stub;
    ContinuousScheduler sched(
        [&stub](size_t l, const Tensor &x,
                const std::vector<size_t> &s, QuantMode m, Lane ln) {
            return stub(l, x, s, m, ln);
        },
        2, QuantMode::WeightsAndActivations, {});

    auto empty = sched.submit(Tensor{});
    EXPECT_THROW(empty.get(), std::runtime_error);

    // Queued work still completes across stop() (shutdown flush).
    auto queued = sched.submit(constTensor(1, 4, 7.0f));
    sched.stop();
    EXPECT_EQ(queued.get().raw()[0], 9.0f);

    auto late = sched.submit(constTensor(1, 4, 1.0f));
    EXPECT_THROW(late.get(), std::runtime_error);
    EXPECT_FALSE(sched.submit(constTensor(1, 4, 1.0f),
                              [](Tensor, std::exception_ptr) {}));
    const auto st = sched.stats();
    EXPECT_EQ(st.rejected, 3u);
    EXPECT_EQ(st.completed, 1u);
}

TEST(ContinuousScheduling, EnvKnobsOverrideConfig)
{
    StubStep stub;
    const auto make = [&stub] {
        ContinuousSchedulerConfig cfg;
        cfg.chunkTokens = 128;
        cfg.decodePriority = true;
        return ContinuousScheduler(
            [&stub](size_t l, const Tensor &x,
                    const std::vector<size_t> &s, QuantMode m,
                    Lane ln) { return stub(l, x, s, m, ln); },
            2, QuantMode::WeightsAndActivations, cfg);
    };

    ::setenv("MOKEY_CHUNK_TOKENS", "48", 1);
    ::setenv("MOKEY_DECODE_PRIORITY", "off", 1);
    {
        const auto sched = make();
        EXPECT_EQ(sched.config().chunkTokens, 48u);
        EXPECT_FALSE(sched.config().decodePriority);
    }
    ::unsetenv("MOKEY_CHUNK_TOKENS");
    ::unsetenv("MOKEY_DECODE_PRIORITY");
    {
        const auto sched = make();
        EXPECT_EQ(sched.config().chunkTokens, 128u);
        EXPECT_TRUE(sched.config().decodePriority);
    }
}

TEST_F(ContinuousFixture, DeadlineParityStaggeredDeadlines)
{
    // The acceptance bar for the deadline layer: requests carrying
    // deadlines they comfortably meet must produce BIT-IDENTICAL
    // outputs to a run with no deadlines at all (the bookkeeping may
    // not perturb scheduling results), while requests whose deadline
    // already passed resolve to DeadlineExpired without burning a
    // full pass.
    const auto inputs = raggedInputs();
    const QuantMode mode = QuantMode::WeightsAndActivations;
    const ThreadCountGuard thread_guard;
    setThreadCount(1);
    std::vector<Tensor> refs;
    for (const Tensor &in : inputs)
        refs.push_back(pipeline.forward(in, mode));
    setThreadCount(4);

    ContinuousSchedulerConfig cfg;
    cfg.maxBatch = 3;
    cfg.decodeMaxRows = 2;
    cfg.chunkTokens = 16;
    ContinuousScheduler sched(pipeline, mode, cfg);

    const auto now = std::chrono::steady_clock::now();
    const Deadline generous = now + std::chrono::minutes(1);
    const Deadline passed = now - std::chrono::milliseconds(1);

    std::vector<std::future<Tensor>> futs;
    std::vector<std::future<Tensor>> doomed;
    for (size_t i = 0; i < inputs.size(); ++i) {
        futs.push_back(sched.submit(Tensor(inputs[i]), generous));
        if (i % 3 == 0)
            doomed.push_back(
                sched.submit(model.makeInput(4, 900 + i), passed));
    }
    for (size_t i = 0; i < futs.size(); ++i)
        expectBitIdentical(refs[i], futs[i].get(),
                           "deadline parity req=" +
                               std::to_string(i));
    for (auto &f : doomed)
        EXPECT_THROW(f.get(), DeadlineExpired);

    sched.drain();
    const auto st = sched.stats();
    EXPECT_EQ(st.completed, inputs.size());
    EXPECT_EQ(st.expiredRequests, doomed.size());
    EXPECT_EQ(st.failedRequests, 0u);
    EXPECT_EQ(sched.queueDepth(), 0u);
}

TEST(ContinuousDeadline, ExpiredQueuedRequestDroppedEvenWhenFull)
{
    // maxBatch 1: the blocker owns the only slot, so the expired
    // request can never be admitted — the join loop must drop it
    // from the QUEUE (the "even when the batch is full" path).
    constexpr size_t kSteps = 3;
    constexpr float kBlock = 100.0f;
    StubStep stub;
    std::atomic<bool> release{false};
    ContinuousSchedulerConfig cfg;
    cfg.maxBatch = 1;
    ContinuousScheduler sched(
        [&stub, &release](size_t l, const Tensor &x,
                          const std::vector<size_t> &s, QuantMode m,
                          Lane ln) {
            if (x.at(0, 0) >= kBlock)
                while (!release.load())
                    std::this_thread::sleep_for(
                        std::chrono::microseconds(50));
            return stub(l, x, s, m, ln);
        },
        kSteps, QuantMode::WeightsAndActivations, cfg);

    auto blocker = sched.submit(constTensor(1, 4, kBlock));
    auto expired = sched.submit(
        constTensor(1, 4, 1.0f),
        std::chrono::steady_clock::now() -
            std::chrono::milliseconds(1));
    release.store(true);

    EXPECT_EQ(blocker.get().raw()[0], kBlock + kSteps);
    EXPECT_THROW(expired.get(), DeadlineExpired);

    // The scheduler keeps serving after the expiry.
    auto after = sched.submit(constTensor(1, 4, 2.0f));
    EXPECT_EQ(after.get().raw()[0], 2.0f + kSteps);

    sched.drain();
    const auto st = sched.stats();
    EXPECT_EQ(st.expiredRequests, 1u);
    EXPECT_EQ(st.completed, 2u);
    EXPECT_EQ(st.failedRequests, 0u);
    EXPECT_EQ(sched.queueDepth(), 0u);
}

TEST(ContinuousDeadline, MidFlightExpiryFreesTheSlotEarly)
{
    // A request admitted with time on the clock whose deadline
    // passes BETWEEN layer steps must stop stepping right there:
    // strictly fewer step calls than a full pass, DeadlineExpired on
    // the future, and the batch slot freed for later work.
    constexpr size_t kSteps = 6;
    StubStep stub;
    ContinuousScheduler sched(
        [&stub](size_t l, const Tensor &x,
                const std::vector<size_t> &s, QuantMode m, Lane ln) {
            std::this_thread::sleep_for(
                std::chrono::milliseconds(20));
            return stub(l, x, s, m, ln);
        },
        kSteps, QuantMode::WeightsAndActivations, {});

    // 6 layers x 20 ms = 120 ms of engine time against a 50 ms
    // budget: expiry lands between rounds 2 and 3 on any machine
    // (each round costs >= 20 ms, so 6 rounds can never fit).
    auto doomed = sched.submit(
        constTensor(1, 4, 1.0f),
        std::chrono::steady_clock::now() +
            std::chrono::milliseconds(50));
    EXPECT_THROW(doomed.get(), DeadlineExpired);
    EXPECT_LT(stub.calls.load(), kSteps)
        << "an expired request burned its full pass anyway";

    auto after = sched.submit(constTensor(1, 4, 2.0f));
    EXPECT_EQ(after.get().raw()[0], 2.0f + kSteps);

    sched.drain();
    const auto st = sched.stats();
    EXPECT_EQ(st.expiredRequests, 1u);
    EXPECT_EQ(st.completed, 1u);
    EXPECT_EQ(st.failedRequests, 0u);
    EXPECT_EQ(sched.queueDepth(), 0u);
}

TEST(ContinuousDeadline, GenerousDeadlineNeverExpires)
{
    constexpr size_t kSteps = 2;
    StubStep stub;
    ContinuousScheduler sched(
        [&stub](size_t l, const Tensor &x,
                const std::vector<size_t> &s, QuantMode m, Lane ln) {
            return stub(l, x, s, m, ln);
        },
        kSteps, QuantMode::WeightsAndActivations, {});
    auto fut = sched.submit(constTensor(2, 4, 3.0f),
                            std::chrono::steady_clock::now() +
                                std::chrono::minutes(5));
    EXPECT_EQ(fut.get().raw()[0], 3.0f + kSteps);
    sched.drain();
    EXPECT_EQ(sched.stats().expiredRequests, 0u);
}

TEST_F(ContinuousFixture, ChaosStepFaultsIsolateAndBooksBalance)
{
    // With the forwardStep throw site hot, some requests fail with
    // the injected error and the rest must still come back
    // bit-identical to the one-shot references; the books balance
    // (completed == successes, failed+expired == failures) and the
    // scheduler keeps serving afterwards. Under a CI env sweep the
    // site mix is arbitrary, so only the survival invariants hold.
    const QuantMode mode = QuantMode::WeightsAndActivations;
    const auto inputs = raggedInputs();
    // References before arming: under an env sweep the injector is
    // already hot, so ride out injected throws with a retry loop.
    std::vector<Tensor> refs;
    for (const Tensor &in : inputs) {
        for (int tries = 0;; ++tries) {
            try {
                refs.push_back(pipeline.forward(in, mode));
                break;
            } catch (const std::runtime_error &) {
                ASSERT_LT(tries, 500) << "reference forward never "
                                         "survived the env faults";
            }
        }
    }

    const FaultArmGuard guard("step:0.15:77");

    ContinuousSchedulerConfig cfg;
    cfg.maxBatch = 4;
    cfg.decodeMaxRows = 2;
    ContinuousScheduler sched(pipeline, mode, cfg);
    std::vector<std::future<Tensor>> futs;
    for (const Tensor &in : inputs)
        futs.push_back(sched.submit(Tensor(in)));

    uint64_t ok = 0, failed = 0;
    for (size_t i = 0; i < futs.size(); ++i) {
        try {
            const Tensor out = futs[i].get();
            expectBitIdentical(refs[i], out,
                               "chaos req=" + std::to_string(i));
            ++ok;
        } catch (const std::runtime_error &) {
            ++failed;
        }
    }
    sched.drain();
    const auto st = sched.stats();
    EXPECT_EQ(ok + failed, inputs.size());
    EXPECT_EQ(st.completed, ok);
    EXPECT_EQ(st.failedRequests + st.expiredRequests, failed);

    // Still alive: a fresh submit eventually succeeds bit-exact
    // with faults still armed.
    for (int tries = 0;; ++tries) {
        try {
            expectBitIdentical(refs[0],
                               sched.submit(Tensor(inputs[0])).get(),
                               "chaos post-fault submit");
            break;
        } catch (const std::runtime_error &) {
            ASSERT_LT(tries, 200) << "scheduler never recovered";
        }
    }
}

TEST(ContinuousScheduling, DrainAndRecentLatencyTracking)
{
    constexpr size_t kSteps = 3;
    StubStep stub;
    ContinuousScheduler sched(
        [&stub](size_t l, const Tensor &x,
                const std::vector<size_t> &s, QuantMode m, Lane ln) {
            std::this_thread::sleep_for(
                std::chrono::microseconds(200));
            return stub(l, x, s, m, ln);
        },
        kSteps, QuantMode::WeightsAndActivations, {});

    EXPECT_EQ(sched.recentBatchSeconds(), 0.0);
    std::vector<std::future<Tensor>> futs;
    for (int i = 0; i < 6; ++i)
        futs.push_back(sched.submit(constTensor(2, 4, 1.0f + i)));
    sched.drain();
    EXPECT_EQ(sched.queueDepth(), 0u);
    for (size_t i = 0; i < futs.size(); ++i)
        EXPECT_EQ(futs[i].get().raw()[0], 1.0f + i + kSteps);
    // Full-pass estimate = per-iteration EWMA x layer count.
    EXPECT_GT(sched.recentBatchSeconds(), 0.0);
    EXPECT_GE(sched.recentBatchSeconds(),
              sched.recentStepSeconds());
}

} // namespace
} // namespace mokey
