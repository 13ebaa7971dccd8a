#include "layers.hh"

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <functional>
#include <map>
#include <stdexcept>
#include <unordered_map>

#include "bench_math.hh"
#include "common/parallel.hh"
#include "quant/index_matmul.hh"

namespace mokey::mbench
{

uint64_t
rowHash(const float *row, size_t n)
{
    uint64_t h = 1469598103934665603ull;
    const auto *p = reinterpret_cast<const unsigned char *>(row);
    for (size_t i = 0; i < n * sizeof(float); ++i) {
        h ^= p[i];
        h *= 1099511628211ull;
    }
    return h;
}

StepForwardFn
StepTracer::fn()
{
    return [this](size_t layer, const Tensor &stacked,
                  const std::vector<size_t> &starts, QuantMode mode,
                  Lane lane) {
        Step s;
        s.layer = layer;
        s.rows = stacked.rows();
        s.start = now();
        Tensor out = pipe.forwardStep(layer, stacked, starts, mode, lane);
        s.end = now();
        const size_t cols = stacked.cols();
        for (size_t b = 0; b + 1 < starts.size(); ++b) {
            s.longestSeq = std::max(s.longestSeq, starts[b + 1] - starts[b]);
            if (layer == 0)
                s.inHashes.push_back(rowHash(stacked.row(starts[b]), cols));
            if (layer + 1 == pipe.stepCount())
                s.outHashes.push_back(rowHash(out.row(starts[b]), cols));
        }
        std::lock_guard<std::mutex> lk(mu);
        recs.push_back(std::move(s));
        return out;
    };
}

std::vector<StepTracer::Step>
StepTracer::steps() const
{
    std::lock_guard<std::mutex> lk(mu);
    return recs;
}

namespace
{

double
ms(double seconds)
{
    return seconds * 1e3;
}

/** Step indexes containing each hash, ordered by time. */
using HashIndex = std::unordered_map<uint64_t, std::vector<size_t>>;

/** One span of the trace file. */
struct Span
{
    long reqId; ///< -1: not one request's (a layer step)
    const char *name;
    double start, end;
    long parent; ///< -1: none
    long layer;  ///< -1: not a layer step
    size_t rows;
};

bool
writeTrace(const std::string &path, const std::string &workload,
           uint64_t seed, const std::vector<Span> &spans)
{
    std::FILE *f = std::fopen(path.c_str(), "w");
    if (!f)
        return false;
    std::fprintf(f,
                 "{\"workload\": \"%s\", \"seed\": %llu, "
                 "\"time_unit\": \"us\", \"spans\": [\n",
                 workload.c_str(), static_cast<unsigned long long>(seed));
    const auto opt = [](long v, char *buf, size_t n) {
        if (v < 0)
            std::snprintf(buf, n, "null");
        else
            std::snprintf(buf, n, "%ld", v);
        return buf;
    };
    for (size_t i = 0; i < spans.size(); ++i) {
        const Span &s = spans[i];
        char req[32], par[32];
        std::fprintf(f,
                     "{\"id\": %zu, \"req_id\": %s, \"name\": \"%s\", "
                     "\"start\": %.3f, \"end\": %.3f, \"parent\": %s",
                     i, opt(s.reqId, req, sizeof req), s.name,
                     s.start * 1e6, s.end * 1e6,
                     opt(s.parent, par, sizeof par));
        if (s.layer >= 0)
            std::fprintf(f, ", \"layer\": %ld, \"rows\": %zu", s.layer,
                         s.rows);
        std::fprintf(f, "}%s\n", i + 1 < spans.size() ? "," : "");
    }
    std::fprintf(f, "]}\n");
    return std::fclose(f) == 0;
}

} // namespace

std::vector<Metric>
spanMetrics(const TracedPhase &phase, const std::string &workload,
            uint64_t seed, size_t shortMax, const std::string &tracePath,
            bool &consistent)
{
    const auto &steps = phase.steps;
    HashIndex firstSteps, lastSteps;
    for (size_t i = 0; i < steps.size(); ++i) {
        for (const uint64_t h : steps[i].inHashes)
            firstSteps[h].push_back(i);
        for (const uint64_t h : steps[i].outHashes)
            lastSteps[h].push_back(i);
    }

    std::vector<Span> spans;
    std::vector<double> lag, wait, span, ret;
    std::vector<Interval> inFlight;
    size_t unmatched = 0, inconsistent = 0;
    double begin = INFINITY, finish = -INFINITY;
    for (size_t r = 0; r < phase.samples.size(); ++r) {
        const Sample &s = phase.samples[r];
        begin = std::min(begin, s.due);
        finish = std::max(finish, s.recv);
        // First layer-0 step at or after the send, and last final-
        // layer step at or before the last byte; pool inputs in
        // flight at the same time are distinct, so the hashes are
        // unambiguous inside that window.
        const auto fi = firstSteps.find(phase.inHash[s.idx]);
        const auto li = lastSteps.find(phase.outHash[s.idx]);
        const StepTracer::Step *first = nullptr, *last = nullptr;
        if (fi != firstSteps.end())
            for (const size_t i : fi->second)
                if (steps[i].start >= s.send) {
                    first = &steps[i];
                    break;
                }
        if (li != lastSteps.end())
            for (auto it = li->second.rbegin(); it != li->second.rend();
                 ++it)
                if (steps[*it].end <= s.recv) {
                    last = &steps[*it];
                    break;
                }
        if (!first || !last) {
            ++unmatched;
            continue;
        }
        const RequestStamps st{s.due, s.send, first->start, last->end,
                               s.recv};
        const LatencyParts p = splitLatency(st);
        if (!partsConsistent(st, p, 0.01))
            ++inconsistent;
        lag.push_back(ms(p.sendLag));
        wait.push_back(ms(p.schedWait));
        span.push_back(ms(p.modelSpan));
        ret.push_back(ms(p.netReturn));
        inFlight.push_back({s.send, last->end});

        const long id = static_cast<long>(r);
        const long parent = static_cast<long>(spans.size());
        spans.push_back({id, "request", s.due, s.recv, -1, -1, 0});
        spans.push_back({id, "client.send_lag", s.due, s.send, parent,
                         -1, 0});
        spans.push_back({id, "sched.wait", s.send, first->start, parent,
                         -1, 0});
        spans.push_back({id, "model.span", first->start, last->end,
                         parent, -1, 0});
        spans.push_back({id, "net.return", last->end, s.recv, parent,
                         -1, 0});
    }

    std::vector<double> stepMs, stepRows, shortMs, longMs;
    std::vector<Interval> stepIv;
    double busy = 0.0;
    for (const auto &st : steps) {
        stepMs.push_back(ms(st.end - st.start));
        (st.longestSeq > shortMax ? longMs : shortMs).push_back(stepMs.back());
        stepRows.push_back(static_cast<double>(st.rows));
        stepIv.push_back({st.start, st.end});
        busy += st.end - st.start;
        spans.push_back({-1, "model.step", st.start, st.end, -1,
                         static_cast<long>(st.layer), st.rows});
    }
    std::vector<double> gapMs;
    for (const double g : busyGaps(stepIv, inFlight))
        gapMs.push_back(ms(g));

    consistent = unmatched == 0 && inconsistent == 0 &&
                 !phase.samples.empty() && !steps.empty();
    std::printf("# trace: %zu requests, %zu steps, %zu unmatched, %zu "
                "whose parts miss their latency by >1%%\n",
                phase.samples.size(), steps.size(), unmatched,
                inconsistent);
    std::printf("# steps of short requests only: %zu, p50 %.3f ms; steps "
                "with a longer one: %zu, p50 %.3f ms\n",
                shortMs.size(), percentile(shortMs, 50), longMs.size(),
                percentile(longMs, 50));
    if (writeTrace(tracePath, workload, seed, spans)) {
        std::printf("# trace: wrote %zu spans to %s\n", spans.size(),
                    tracePath.c_str());
    } else {
        std::printf("# trace: cannot write %s\n", tracePath.c_str());
        consistent = false;
    }

    const double completed =
        static_cast<double>(std::max<uint64_t>(phase.server.completed, 1));
    return {
        {"client.send_lag_ms.p99", percentile(lag, 99), "ms"},
        {"sched.wait_ms.p50", percentile(wait, 50), "ms"},
        {"sched.wait_ms.p99", percentile(wait, 99), "ms"},
        {"model.span_ms.p50", percentile(span, 50), "ms"},
        {"net.return_ms.p50", percentile(ret, 50), "ms"},
        {"net.return_ms.p99", percentile(ret, 99), "ms"},
        {"model.step_ms.p50", percentile(stepMs, 50), "ms"},
        {"model.step_ms.p99", percentile(stepMs, 99), "ms"},
        {"model.rows_per_step", mean(stepRows), "rows"},
        {"model.busy_frac", busy / std::max(finish - begin, 1e-9),
         "fraction"},
        {"sched.gap_ms.p50", percentile(gapMs, 50), "ms"},
        {"sched.steps_per_req",
         static_cast<double>(phase.sched.steps) / completed, "count"},
        {"sched.iterations_per_req",
         static_cast<double>(phase.sched.iterations) / completed,
         "count"},
        {"net.bytes_per_req",
         static_cast<double>(phase.socket.bytesIn +
                             phase.socket.bytesOut) /
             completed,
         "bytes"},
    };
}

namespace
{

/** Median seconds per call of @p fn: at least 5 calls and 50 ms. */
double
medianSeconds(const std::function<void()> &fn)
{
    fn(); // first-use work (plane builds, pool wake-up) stays out
    std::vector<double> t;
    double spent = 0.0;
    while ((t.size() < 5 || spent < 0.05) && t.size() < 200) {
        const double t0 = now();
        fn();
        t.push_back(now() - t0);
        spent += t.back();
    }
    return percentile(t, 50);
}

/** Bytes one fused GEMM streams under engine @p e: the operand planes
 *  it reads (8 B/element mag or 2 B/element index+theta), their
 *  outlier sidecars, and the float output it writes. */
double
gemmBytes(const QuantizedTensor &a, const QuantizedTensor &w,
          IndexEngine e)
{
    const double perElem = e == IndexEngine::Mag ? 8.0 : 2.0;
    const double sidecar = sizeof(CodePlanes::Outlier);
    const auto side = [&](const QuantizedTensor &t) {
        return perElem * static_cast<double>(t.size()) +
               sidecar * static_cast<double>(
                             t.planesFootprint().outlierEntries);
    };
    return side(a) + side(w) +
           4.0 * static_cast<double>(a.rows() * w.rows());
}

} // namespace

std::vector<Metric>
replayKernels(const Transformer &model, const QuantizedTransformer &pipe,
              const Quantizer &quantizer, size_t rows, double &siteSeconds)
{
    // Layer 0's real activations at the replay row count.
    std::map<std::string, Tensor> acts;
    model.forwardLayer(0, model.makeInput(rows, 4242),
                       [&](const TensorId &id, const Tensor &t) {
                           acts[id.tensor] = t;
                       });
    const EncoderWeights &w = model.weights()[0];
    struct Site
    {
        const char *name;
        const Tensor *weight;
        const char *act;
    };
    const Site sites[] = {{"wq", &w.wq, "x"},   {"wk", &w.wk, "x"},
                          {"wv", &w.wv, "x"},   {"wo", &w.wo, "ctx"},
                          {"w1", &w.w1, "mid_in"}, {"w2", &w.w2, "mid"}};

    std::vector<Metric> out;
    siteSeconds = 0.0;
    for (const Site &site : sites) {
        const Tensor &act = acts.at(site.act);
        const TensorDictionary &actDict =
            pipe.activationDict({0, site.act});
        const TensorDictionary wDict =
            quantizer.buildDictionary(*site.weight);
        const GemmConstants consts =
            gemmConstants(actDict, wDict, site.weight->cols());
        for (const IndexEngine e : {IndexEngine::Mag, IndexEngine::Count}) {
            // Fresh operands per engine, each holding only the planes
            // that engine streams — the residency serving pins.
            const QuantizedTensor qw = quantizer.encode(*site.weight, wDict);
            qw.pinPlanes(enginePlaneSet(e));
            const QuantizedTensor qa =
                quantizer.encodeToPlanes(act, actDict, enginePlaneSet(e));
            const double sec = medianSeconds([&] {
                indexMatmulTransBFused(qa, qw, e, nullptr, nullptr,
                                       PlaneSet::Bytes, true, &consts);
            });
            const std::string key = std::string("quant.site.") +
                                    site.name + "." +
                                    (e == IndexEngine::Mag ? "mag" : "count");
            out.push_back({key + ".us", sec * 1e6, "us"});
            out.push_back(
                {key + ".gbps", gemmBytes(qa, qw, e) / sec * 1e-9, "GB/s"});
            if (e == resolveIndexEngine(qa, qw))
                siteSeconds += sec;
        }
    }

    const Tensor &x = acts.at("x");
    const TensorDictionary &dx = pipe.activationDict({0, "x"});
    const PlaneSet prodSet = enginePlaneSet(indexEngine());
    const double encSec = medianSeconds(
        [&] { quantizer.encodeToPlanes(x, dx, prodSet); });
    out.push_back({"quant.encode.us", encSec * 1e6, "us"});
    return out;
}

double
streamTriadGbps()
{
    // 3 x 128 MiB: past the 300 MiB LLC of the reference host, so the
    // triad streams DRAM as the big weight planes do.
    const size_t n = size_t(16) << 20;
    std::vector<double> a(n, 0.0), b(n, 1.0), c(n, 2.0);
    const auto triad = [&] {
        parallelForRange(0, n, 1 << 16, [&](size_t lo, size_t hi) {
            for (size_t i = lo; i < hi; ++i)
                a[i] = b[i] + 3.0 * c[i];
        });
    };
    const double sec = medianSeconds(triad);
    if (a[n / 2] != 7.0)
        throw std::runtime_error("triad probe computed a wrong value");
    return 3.0 * sizeof(double) * static_cast<double>(n) / sec * 1e-9;
}

StepPathTimes
timeStepPath(const Transformer &model, const QuantizedTransformer &pipe,
             size_t rows)
{
    const Tensor in = model.makeInput(rows, 4343);
    const QuantMode mode = QuantMode::WeightsAndActivations;
    const std::vector<size_t> starts{0, rows};
    std::vector<double> fwd, chain;
    for (int rep = 0; rep < 3; ++rep) {
        double t0 = now();
        const Tensor a = pipe.forward(in, mode);
        fwd.push_back(now() - t0);
        t0 = now();
        Tensor b = in;
        for (size_t l = 0; l < pipe.stepCount(); ++l)
            b = pipe.forwardStep(l, b, starts, mode);
        chain.push_back(now() - t0);
        if (std::memcmp(a.data(), b.data(), a.size() * sizeof(float)) != 0)
            throw std::runtime_error(
                "chained forwardStep differs from forward()");
    }
    return {percentile(fwd, 50), percentile(chain, 50)};
}

} // namespace mokey::mbench
