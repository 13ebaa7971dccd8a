/**
 * @file
 * The per-layer half of mokey_bench: the layer-step tracer, the
 * request-span analysis, and the kernel and memory probes a traced
 * run adds. Everything here calls the library's public API only.
 */

#ifndef MOKEY_BENCH_MOKEY_BENCH_LAYERS_HH
#define MOKEY_BENCH_MOKEY_BENCH_LAYERS_HH

#include <cstdint>
#include <mutex>
#include <string>
#include <vector>

#include "model/continuous_scheduler.hh"
#include "model/pipeline.hh"
#include "net/inference_server.hh"

namespace mokey::mbench
{

/** Seconds since the process's bench epoch; client stamps and step
 *  spans share this clock. */
double now();

/** One metric as printed: name, value, unit. */
struct Metric
{
    std::string name;
    double value = 0.0;
    std::string unit;
};

/** One request the load generator sent. */
struct Sample
{
    size_t idx = 0;    ///< input pool entry
    double due = 0.0;  ///< when it was meant to be sent
    double send = 0.0; ///< when it was sent
    double recv = 0.0; ///< when its last response byte arrived
    bool ok = false;   ///< 200 and bit-identical to forward()
};

/** FNV-1a over the bytes of one float row: identifies a request's
 *  rows inside a stacked layer step. */
uint64_t rowHash(const float *row, size_t n);

/**
 * Records every layer step a traced server runs. fn() wraps
 * QuantizedTransformer::forwardStep exactly as ContinuousScheduler's
 * pipeline constructor does, so the served path is unchanged; each
 * call is stamped, and layer-0 inputs and last-layer outputs have the
 * first row of every stacked sequence hashed so requests can be
 * matched to their steps afterwards.
 */
class StepTracer
{
  public:
    struct Step
    {
        size_t layer = 0;
        double start = 0.0;
        double end = 0.0;
        size_t rows = 0;
        size_t longestSeq = 0; ///< rows of the longest stacked sequence
        /** Per stacked sequence: first input row (layer 0) or first
         *  output row (last layer); empty for other layers. */
        std::vector<uint64_t> inHashes, outHashes;
    };

    explicit StepTracer(const QuantizedTransformer &pipe) : pipe(pipe) {}

    StepTracer(const StepTracer &) = delete;
    StepTracer &operator=(const StepTracer &) = delete;

    /** The step function to hand InferenceServer; must not outlive
     *  this tracer. */
    StepForwardFn fn();

    /** Steps recorded so far, in start order. */
    std::vector<Step> steps() const;

  private:
    const QuantizedTransformer &pipe;
    mutable std::mutex mu;
    std::vector<Step> recs; ///< guarded by mu
};

/** What the traced serving phase observed. */
struct TracedPhase
{
    std::vector<Sample> samples;
    std::vector<StepTracer::Step> steps;
    /** Per pool entry: hash of the first input row and of the first
     *  row of its forward() output. */
    std::vector<uint64_t> inHash, outHash;
    ContinuousSchedulerStats sched;
    net::InferenceServerStats server;
    net::SocketServerStats socket;
};

/**
 * Request-span and layer-step metrics of @p phase. Sets @p consistent
 * to false when a request cannot be matched to its steps or its four
 * latency parts do not add up to its latency within 1%. Writes every
 * span to @p tracePath as JSON. Steps carrying a sequence longer than
 * @p shortMax rows are also summarized apart, as a note.
 */
std::vector<Metric> spanMetrics(const TracedPhase &phase,
                                const std::string &workload,
                                uint64_t seed, size_t shortMax,
                                const std::string &tracePath,
                                bool &consistent);

/**
 * Replay layer 0's six weight sites through indexMatmulTransBFused on
 * both engines, plus one activation encode, at @p rows stacked rows.
 * Weights are quantized here with Quantizer::buildDictionary/encode;
 * activations are the float model's own layer-0 activations encoded
 * against the pipeline's profiled dictionaries. Bytes moved are
 * computed from plane sizes. @p siteSeconds receives the six sites'
 * summed time on the engine serving would pick.
 */
std::vector<Metric> replayKernels(const Transformer &model,
                                  const QuantizedTransformer &pipe,
                                  const Quantizer &quantizer,
                                  size_t rows, double &siteSeconds);

/** Parallel STREAM-style triad over buffers larger than the LLC. */
double streamTriadGbps();

/** Median seconds of forward() and of forwardStep chained over every
 *  layer, on the same input of @p rows rows. */
struct StepPathTimes
{
    double forward = 0.0;
    double chain = 0.0;
};

StepPathTimes timeStepPath(const Transformer &model,
                           const QuantizedTransformer &pipe, size_t rows);

} // namespace mokey::mbench

#endif // MOKEY_BENCH_MOKEY_BENCH_LAYERS_HH
