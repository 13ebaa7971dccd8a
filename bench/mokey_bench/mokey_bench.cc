/**
 * @file
 * mokey_bench — the end-to-end benchmark of the Mokey inference
 * server (README.md next to this file explains the workloads and
 * metrics).
 *
 * One run serves one workload. It sets up the production
 * InferenceServer in-process with its default config, drives it over
 * loopback HTTP from four client threads on four keep-alive
 * connections, checks every response bit for bit against an
 * in-process forward() of the same input, and prints each metric by
 * name and unit. The last line of stdout is one JSON object:
 *   {"correct": .., "attempted": .., "failed": .., "metrics": {..}}
 * holding the end-to-end metrics, or with --trace the per-layer
 * metrics of a traced run, whose spans go to the named file.
 *
 *   mokey_bench --workload <name> --seed <n> --seconds <s>
 *               [--trace <file>] [--git-sha <sha>]
 *   mokey_bench --self-test
 *
 * Exit status: 0 when every output was correct, 1 when one was not,
 * 2 on bad usage or a refused environment.
 */

#include <atomic>
#include <cstdarg>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <memory>
#include <random>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "bench_math.hh"
#include "common/fault.hh"
#include "layers.hh"
#include "model/config.hh"
#include "net/http_client.hh"
#include "quant/exp_dictionary.hh"
#include "quant/golden_dictionary.hh"

extern char **environ;

namespace mokey::mbench
{

namespace
{

using Clock = std::chrono::steady_clock;
const Clock::time_point kEpoch = Clock::now();

/** Client threads, each with one keep-alive connection. */
constexpr size_t kClients = 4;

/** Fixed weights stand in for a checkpoint; only inputs follow --seed. */
constexpr uint64_t kModelSeed = 42;

/** setup_s is the median of at least kMinSetups set-ups per run, and
 *  of more, up to kMaxSetups, while they fit in kSetupSeconds. */
constexpr size_t kMinSetups = 3;
constexpr size_t kMaxSetups = 15;
constexpr double kSetupSeconds = 3.0;

/**
 * One traffic mix. Open-loop mixes send on a Poisson schedule at a
 * fixed absolute rate (never one derived from capacity measured in
 * the same run, which would hand a faster commit more load); closed
 * loops keep every client waiting on its previous reply.
 */
struct Workload
{
    const char *name;
    bool bert;         ///< bertBase(), else reduced(bertBase(), 8)
    bool openLoop;
    double rateRps;    ///< open loop: offered rate at the load point
    size_t pool;       ///< distinct inputs, reused in order
    size_t longRows;   ///< rows of a long request (0: none)
    size_t longPer;    ///< one pool entry in longPer is long
    size_t shortMax;   ///< short requests have 1..shortMax rows
    double sloP99Ms;   ///< open loop: short-request p99 limit
    size_t replayRows; ///< stacked rows for the kernel replay
};

// Load points sit at about a quarter (short-http, of ~2400 req/s) and
// a third (ragged-http, of ~750 req/s) of the closed-loop capacity
// measured on the 4-core reference host: at half capacity the
// open-loop latencies of repeated runs spread by 25-65%.
const Workload kWorkloads[] = {
    {"short-http", false, true, 600, 256, 0, 1, 4, 5.0, 8},
    {"ragged-http", false, true, 250, 256, 96, 8, 4, 10.0, 96},
    {"bert-prefill", true, false, 0, 4, 128, 1, 0, 0.0, 128},
    {"bert-short", true, false, 0, 32, 0, 1, 4, 0.0, 8},
};

uint64_t
mix(uint64_t a, uint64_t b)
{
    uint64_t z = a * 0x9E3779B97F4A7C15ull + b + 0x632BE59BD9B4E019ull;
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
    z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
    return z ^ (z >> 31);
}

void
sleepUntil(double t)
{
    std::this_thread::sleep_until(
        kEpoch + std::chrono::duration_cast<Clock::duration>(
                     std::chrono::duration<double>(t)));
}

/** A /proc/self/status field in MiB (VmRSS, VmHWM). */
double
statusMb(const char *key)
{
    std::ifstream f("/proc/self/status");
    std::string line;
    const size_t n = std::strlen(key);
    while (std::getline(f, line))
        if (line.compare(0, n, key) == 0)
            return std::strtod(line.c_str() + n, nullptr) / 1024.0;
    return 0.0;
}

/** The workload's inputs, request bodies and expected response bodies. */
struct Pool
{
    std::vector<Tensor> inputs;
    std::vector<std::string> bodies;
    std::vector<std::string> expected;
    std::vector<uint64_t> inHash, outHash;

    size_t size() const { return inputs.size(); }
};

/**
 * Pool inputs from @p seed: exact class shares (one long entry in
 * longPer, short lengths cycling 1..shortMax) in a seeded order, so a
 * seed changes which inputs arrive when, never the mix itself.
 */
Pool
makePool(const Transformer &model, const Workload &w, uint64_t seed)
{
    std::vector<size_t> lens;
    for (size_t i = 0; i < w.pool; ++i)
        lens.push_back(w.longRows && i % w.longPer == 0
                           ? w.longRows
                           : 1 + i % w.shortMax);
    std::mt19937_64 rng(mix(seed, 1));
    std::shuffle(lens.begin(), lens.end(), rng);
    Pool p;
    for (size_t i = 0; i < lens.size(); ++i) {
        p.inputs.push_back(model.makeInput(lens[i], mix(seed, 100 + i)));
        p.bodies.push_back(net::encodeTensorBody(p.inputs.back()));
        p.inHash.push_back(
            rowHash(p.inputs.back().row(0), p.inputs.back().cols()));
    }
    return p;
}

/**
 * Fill the expected bodies with forward() of every pool input, and
 * return err_vs_float: mean |quantized - float| / mean |float| against
 * the float model on the same inputs.
 */
double
computeReferences(const Transformer &model,
                  const QuantizedTransformer &pipe, Pool &p)
{
    double absErr = 0.0, absRef = 0.0;
    for (const Tensor &in : p.inputs) {
        const Tensor q = pipe.forward(in, QuantMode::WeightsAndActivations);
        const Tensor f = model.forward(in);
        for (size_t i = 0; i < q.size(); ++i) {
            absErr += std::fabs(double(q.data()[i]) - f.data()[i]);
            absRef += std::fabs(double(f.data()[i]));
        }
        p.expected.push_back(net::encodeTensorBody(q));
        p.outHash.push_back(rowHash(q.row(0), q.cols()));
    }
    return absErr / absRef;
}

/** Everything one set-up builds; members are torn down in reverse. */
struct Stack
{
    std::unique_ptr<Quantizer> quantizer;
    std::unique_ptr<QuantizedTransformer> pipe;
    std::unique_ptr<net::InferenceServer> server;

    void reset()
    {
        server.reset();
        pipe.reset();
        quantizer.reset();
    }
};

struct SetupTimes
{
    double dictFit = 0, quantize = 0, profile = 0, firstResponse = 0;

    double total() const
    {
        return dictFit + quantize + profile + firstResponse;
    }
};

/**
 * What a deployment pays before serving: fit the quantizer, quantize
 * the weights, profile activations, start the server and get its
 * first 200. Generating the synthetic float model stands in for
 * loading a checkpoint and is not counted.
 */
SetupTimes
setUp(const Transformer &model, const std::vector<Tensor> &profile,
      const std::string &warmBody, Stack &s)
{
    s.reset();
    SetupTimes t;
    double t0 = now();
    s.quantizer = std::make_unique<Quantizer>(
        ExpDictionary::fit(GoldenDictionary::generate({})));
    t.dictFit = now() - t0;

    t0 = now();
    s.pipe = std::make_unique<QuantizedTransformer>(model, *s.quantizer);
    s.pipe->quantizeWeights();
    t.quantize = now() - t0;

    t0 = now();
    s.pipe->profileActivations(profile);
    t.profile = now() - t0;

    t0 = now();
    s.server = std::make_unique<net::InferenceServer>(*s.pipe);
    s.server->start();
    net::HttpClient cli("127.0.0.1", s.server->port());
    const int status = cli.post("/v1/forward", warmBody).status;
    t.firstResponse = now() - t0;
    if (status != 200)
        throw std::runtime_error("first response was " +
                                 std::to_string(status));
    return t;
}

/** Send one pool entry on @p cli and judge the reply. */
void
exchange(net::HttpClient &cli, const Pool &pool, Sample &s)
{
    s.send = now();
    net::HttpResponse rsp;
    try {
        rsp = cli.post("/v1/forward", pool.bodies[s.idx]);
    } catch (const std::exception &) {
        rsp.status = 0; // transport error
    }
    s.recv = now();
    s.ok = rsp.status == 200 && rsp.body == pool.expected[s.idx];
}

/** Poisson arrival offsets (seconds) over @p seconds at @p rate. */
std::vector<double>
arrivals(double rate, double seconds, uint64_t seed)
{
    std::mt19937_64 rng(mix(seed, 2));
    std::exponential_distribution<double> gap(rate);
    std::vector<double> due;
    for (double t = gap(rng); t < seconds; t += gap(rng))
        due.push_back(t);
    return due;
}

/**
 * Open loop: request i is due at its arrival offset and carries pool
 * entry i mod pool size; whichever client is free sends it, and its
 * latency counts from when it was due.
 */
std::vector<Sample>
openLoop(uint16_t port, const Pool &pool, const std::vector<double> &due)
{
    std::vector<Sample> out(due.size());
    std::atomic<size_t> next{0};
    const double t0 = now() + 0.01;
    std::vector<std::thread> clients;
    for (size_t c = 0; c < kClients; ++c)
        clients.emplace_back([&] {
            net::HttpClient cli("127.0.0.1", port);
            for (size_t i = next++; i < out.size(); i = next++) {
                Sample &s = out[i];
                s.idx = i % pool.size();
                s.due = t0 + due[i];
                sleepUntil(s.due);
                exchange(cli, pool, s);
            }
        });
    for (auto &t : clients)
        t.join();
    return out;
}

/**
 * Closed loop for @p seconds: client c sends pool entries c, c+4,
 * c+8, ... back to back, so inputs in flight together are distinct.
 */
std::vector<Sample>
closedLoop(uint16_t port, const Pool &pool, double seconds)
{
    std::vector<std::vector<Sample>> per(kClients);
    const double end = now() + seconds;
    std::vector<std::thread> clients;
    for (size_t c = 0; c < kClients; ++c)
        clients.emplace_back([&, c] {
            net::HttpClient cli("127.0.0.1", port);
            for (size_t j = 0; now() < end; ++j) {
                Sample s;
                s.idx = (c + kClients * j) % pool.size();
                s.due = now();
                exchange(cli, pool, s);
                per[c].push_back(s);
            }
        });
    for (auto &t : clients)
        t.join();
    std::vector<Sample> out;
    for (auto &v : per)
        out.insert(out.end(), v.begin(), v.end());
    return out;
}

/** The phase latency is measured on: open loop at the load point, or
 *  the closed loop. */
std::vector<Sample>
latencyPhase(const Workload &w, uint16_t port, const Pool &pool,
             double seconds, uint64_t seed)
{
    return w.openLoop ? openLoop(port, pool, arrivals(w.rateRps, seconds, seed))
                      : closedLoop(port, pool, seconds);
}

std::vector<double>
latenciesMs(const std::vector<Sample> &v)
{
    std::vector<double> out;
    for (const Sample &s : v)
        out.push_back((s.recv - s.due) * 1e3);
    return out;
}

/** Rows served per second: rows of correct replies over the span from
 *  the first send to the last reply. */
double
rowsPerSecond(const std::vector<Sample> &v, const Pool &pool)
{
    double rows = 0.0, first = INFINITY, last = -INFINITY;
    for (const Sample &s : v) {
        first = std::min(first, s.send);
        last = std::max(last, s.recv);
        if (s.ok)
            rows += static_cast<double>(pool.inputs[s.idx].rows());
    }
    return rows / std::max(last - first, 1e-9);
}

size_t
failures(const std::vector<Sample> &v)
{
    size_t n = 0;
    for (const Sample &s : v)
        n += !s.ok;
    return n;
}

/**
 * Print each metric, then the result line the runner parses. A metric
 * that is not a finite number means its measurement failed: it is
 * written as 0 and the run is not correct. Returns the exit status.
 */
int
report(const std::vector<Metric> &metrics, bool correct, size_t attempted,
       size_t failed)
{
    std::string j;
    for (const Metric &m : metrics) {
        std::printf("  %-34s %14.6g %s\n", m.name.c_str(), m.value,
                    m.unit.c_str());
        correct = correct && std::isfinite(m.value);
        char num[64];
        std::snprintf(num, sizeof num, "%.17g",
                      std::isfinite(m.value) ? m.value : 0.0);
        j += (j.empty() ? "\"" : ", \"") + m.name + "\": {\"value\": " +
             num + ", \"unit\": \"" + m.unit + "\"}";
    }
    std::printf("{\"correct\": %s, \"attempted\": %zu, \"failed\": %zu, "
                "\"metrics\": {%s}}\n",
                correct ? "true" : "false", attempted, failed, j.c_str());
    std::fflush(stdout);
    return correct ? 0 : 1;
}

/** Human-readable facts that are not metrics of the result line. */
void
note(const char *fmt, ...) __attribute__((format(printf, 1, 2)));

void
note(const char *fmt, ...)
{
    va_list ap;
    va_start(ap, fmt);
    std::printf("# ");
    std::vprintf(fmt, ap);
    std::printf("\n");
    va_end(ap);
}

/** Per-class latencies of a mix, and the short class's SLO verdict
 *  at an open-loop load point. */
void
noteClasses(const Workload &w, const Pool &pool,
            const std::vector<Sample> &v)
{
    std::vector<double> shortMs, longMs;
    for (const Sample &s : v)
        (pool.inputs[s.idx].rows() == w.longRows ? longMs : shortMs)
            .push_back((s.recv - s.due) * 1e3);
    const double p99 = percentile(shortMs, 99);
    if (w.longRows && w.shortMax) {
        note("short requests: %zu, p50 %.3f ms, p99 %.3f ms",
             shortMs.size(), percentile(shortMs, 50), p99);
        note("long requests: %zu, p50 %.3f ms, p90 %.3f ms",
             longMs.size(), percentile(longMs, 50), percentile(longMs, 90));
    }
    if (w.openLoop)
        note("load point %.0f req/s: short-request p99 %.3f ms %s the "
             "%.1f ms SLO",
             w.rateRps, p99, p99 <= w.sloP99Ms ? "meets" : "MISSES",
             w.sloP99Ms);
}

struct Options
{
    const Workload *workload = nullptr;
    uint64_t seed = 1;
    double seconds = 0.0;
    std::string trace;
    std::string gitSha = "unknown";
};

int
usage(const char *msg)
{
    std::fprintf(stderr,
                 "mokey_bench: %s\nusage: mokey_bench --workload "
                 "<name> --seed <n> --seconds <s> [--trace <file>] "
                 "[--git-sha <sha>]\n       mokey_bench --self-test\n"
                 "workloads:",
                 msg);
    for (const Workload &w : kWorkloads)
        std::fprintf(stderr, " %s", w.name);
    std::fprintf(stderr, "\n");
    return 2;
}

/** Set-up, references and the workload's untraced or traced phases. */
int
runWorkload(const Options &o)
{
    const Workload &w = *o.workload;
    note("host: nproc=%u avx2=%d avx512f=%d compiler=\"%s\" git=%s",
         std::thread::hardware_concurrency(),
         __builtin_cpu_supports("avx2") ? 1 : 0,
         __builtin_cpu_supports("avx512f") ? 1 : 0, __VERSION__,
         o.gitSha.c_str());
    note("workload %s, seed %llu, %.1f s measured%s", w.name,
         static_cast<unsigned long long>(o.seed), o.seconds,
         o.trace.empty() ? "" : ", traced");

    const ModelConfig cfg = w.bert ? bertBase() : reduced(bertBase(), 8);
    const Transformer model(cfg, kModelSeed);
    Pool pool = makePool(model, w, o.seed);

    // Calibration data and the first request are part of the
    // deployment, not of the traffic: fixed, whatever the seed.
    std::vector<Tensor> profile;
    for (int i = 0; i < 8; ++i)
        profile.push_back(model.makeInput(32, 100 + i));
    const std::string warmBody =
        net::encodeTensorBody(model.makeInput(2, 7));
    const double rssModel = statusMb("VmRSS:");

    Stack stack;
    std::vector<SetupTimes> setups;
    for (double spent = 0.0;
         setups.size() < kMinSetups ||
         (setups.size() < kMaxSetups && spent < kSetupSeconds);) {
        setups.push_back(setUp(model, profile, warmBody, stack));
        spent += setups.back().total();
    }
    const double rssSetup = statusMb("VmRSS:");
    if (faultsArmed()) {
        std::fprintf(stderr, "mokey_bench: fault injection is armed\n");
        return 2;
    }
    const auto med = [&](double SetupTimes::*f) {
        std::vector<double> v;
        for (const SetupTimes &t : setups)
            v.push_back(t.*f);
        return percentile(v, 50);
    };
    std::vector<double> totals;
    for (const SetupTimes &t : setups)
        totals.push_back(t.total());

    const double tRefs = now();
    const double errVsFloat = computeReferences(model, *stack.pipe, pool);
    const double tReady = now();
    const QuantizedTransformer &pipe = *stack.pipe;
    note("model %s: %zu layers, hidden %zu; pool %zu inputs; ready after "
         "%.1f s, of which references %.1f s",
         cfg.name.c_str(), cfg.layers, cfg.hidden, pool.size(), tReady,
         tReady - tRefs);

    if (o.trace.empty()) {
        // Open-loop mixes spend a third of the time on a closed-loop
        // capacity phase; the closed-loop mixes measure both there.
        const uint16_t port = stack.server->port();
        std::vector<Sample> capacity, latency;
        if (w.openLoop) {
            capacity = closedLoop(port, pool, o.seconds / 3);
            latency = latencyPhase(w, port, pool, o.seconds * 2 / 3, o.seed);
        } else {
            latency = closedLoop(port, pool, o.seconds);
        }
        const auto lat = latenciesMs(latency);
        std::vector<double> lag;
        for (const Sample &s : latency)
            lag.push_back((s.send - s.due) * 1e3);
        note("latency phase: %zu requests (%s), send lag p99 %.3f ms",
             latency.size(), w.openLoop ? "open loop" : "closed loop",
             percentile(lag, 99));
        if (w.openLoop)
            note("capacity phase: %zu requests, closed loop", capacity.size());
        noteClasses(w, pool, latency);
        note("setup parts (median s of %zu set-ups): dict fit %.4f, "
             "quantize %.4f, profile %.4f, first response %.4f",
             setups.size(), med(&SetupTimes::dictFit),
             med(&SetupTimes::quantize),
             med(&SetupTimes::profile), med(&SetupTimes::firstResponse));
        const net::InferenceServerStats st = stack.server->stats();
        note("server: %llu completed, %llu shed, %llu failed, %llu expired",
             static_cast<unsigned long long>(st.completed),
             static_cast<unsigned long long>(st.shed),
             static_cast<unsigned long long>(st.failed),
             static_cast<unsigned long long>(st.expired));
        stack.reset();

        const size_t attempted = capacity.size() + latency.size();
        const size_t failed = failures(capacity) + failures(latency);
        return report({{"setup_s", percentile(totals, 50), "s"},
                       {"latency_p50_ms", percentile(lat, 50), "ms"},
                       {"latency_p90_ms", percentile(lat, 90), "ms"},
                       {"throughput_rows_s",
                        rowsPerSecond(w.openLoop ? capacity : latency, pool),
                        "rows/s"},
                       {"err_vs_float", errVsFloat, "fraction"},
                       {"peak_rss_mb", statusMb("VmHWM:"), "MiB"}},
                      failed == 0, attempted, failed);
    }

    // Traced run: the untraced production server first, then a server
    // whose layer steps go through the tracer, on the same schedule.
    const uint16_t port = stack.server->port();
    const std::vector<Sample> base =
        latencyPhase(w, port, pool, o.seconds / 2, o.seed);
    stack.server.reset();

    StepTracer tracer(pipe);
    TracedPhase phase;
    phase.inHash = pool.inHash;
    phase.outHash = pool.outHash;
    const uint64_t gauss0 = pipe.matmulStats().gaussianPairs.load();
    const uint64_t otl0 = pipe.matmulStats().outlierPairs.load();
    const uint64_t hits0 = gemmConstantsCacheHits();
    const uint64_t miss0 = gemmConstantsCacheMisses();
    {
        net::InferenceServer traced(tracer.fn(), pipe.stepCount(),
                                    cfg.hidden);
        traced.start();
        phase.samples = latencyPhase(w, traced.port(), pool,
                                     o.seconds / 2, o.seed);
        traced.drain();
        phase.sched = traced.continuousSchedulerStats();
        phase.server = traced.stats();
        phase.socket = traced.socketStats();
    }
    phase.steps = tracer.steps();
    const double gauss = double(pipe.matmulStats().gaussianPairs.load() - gauss0);
    const double otl = double(pipe.matmulStats().outlierPairs.load() - otl0);
    const double hits = double(gemmConstantsCacheHits() - hits0);
    const double miss = double(gemmConstantsCacheMisses() - miss0);

    bool consistent = false;
    std::vector<Metric> m =
        spanMetrics(phase, w.name, o.seed, w.shortMax, o.trace, consistent);
    note("sched: %llu prefill deferrals; server: %llu shed, %llu failed, "
         "%llu expired",
         static_cast<unsigned long long>(phase.sched.prefillDeferrals),
         static_cast<unsigned long long>(phase.server.shed),
         static_cast<unsigned long long>(phase.server.failed),
         static_cast<unsigned long long>(phase.server.expired));
    m.push_back({"quant.outlier_pair_frac", otl / std::max(gauss + otl, 1.0),
                 "fraction"});
    m.push_back({"quant.gemm_const_cache_hit_frac",
                 hits / std::max(hits + miss, 1.0), "fraction"});

    note("kernel replay at %zu rows; GB/s counts operand planes, "
         "outlier sidecars and the float output, computed from plane sizes",
         w.replayRows);
    double siteSeconds = 0.0;
    for (Metric &x : replayKernels(model, pipe, *stack.quantizer,
                                   w.replayRows, siteSeconds))
        m.push_back(std::move(x));
    const StepPathTimes path = timeStepPath(model, pipe, w.replayRows);
    m.push_back({"quant.sites_share",
                 siteSeconds / (path.chain / pipe.stepCount()), "fraction"});
    m.push_back({"mem.stream_gbps", streamTriadGbps(), "GB/s"});
    m.push_back({"model.step_chain_over_forward", path.chain / path.forward,
                 "ratio"});

    m.push_back({"setup.dict_fit_s", med(&SetupTimes::dictFit), "s"});
    m.push_back({"setup.quantize_weights_s", med(&SetupTimes::quantize), "s"});
    m.push_back({"setup.profile_s", med(&SetupTimes::profile), "s"});
    m.push_back({"setup.first_response_s", med(&SetupTimes::firstResponse),
                 "s"});
    m.push_back({"mem.rss_after_setup_mb", rssSetup, "MiB"});
    m.push_back({"mem.quant_state_mb", rssSetup - rssModel, "MiB"});

    double weights = 0.0;
    for (const EncoderWeights &ew : model.weights())
        for (const Tensor *t : {&ew.wq, &ew.wk, &ew.wv, &ew.wo, &ew.w1, &ew.w2})
            weights += static_cast<double>(t->size());
    note("weights: %.1f MiB as float32, %.1f MiB at 4 bits each",
         weights * 4 / (1 << 20), weights / 2 / (1 << 20));

    const double p50Base = percentile(latenciesMs(base), 50);
    const double p50Traced = percentile(latenciesMs(phase.samples), 50);
    m.push_back({"trace.overhead_frac", p50Traced / p50Base - 1.0, "fraction"});

    const size_t attempted = base.size() + phase.samples.size();
    const size_t failed = failures(base) + failures(phase.samples);
    stack.reset();
    return report(m, failed == 0 && consistent, attempted, failed);
}

/** Checks the metric arithmetic on inputs with known answers. */
int
selfTest()
{
    int bad = 0, n = 0;
    const auto check = [&](bool ok, const char *what) {
        ++n;
        if (!ok) {
            ++bad;
            std::printf("self-test FAILED: %s\n", what);
        }
    };
    const auto near = [](double a, double b) {
        return std::fabs(a - b) <= 1e-12 * std::max(1.0, std::fabs(b));
    };

    check(percentile({}, 50) == 0.0, "empty sample");
    check(percentile({5.0}, 99) == 5.0, "single sample");
    check(near(percentile({4, 1, 3, 2}, 50), 2.5), "median interpolates");
    std::vector<double> hundred;
    for (int i = 1; i <= 100; ++i)
        hundred.push_back(i);
    check(near(percentile(hundred, 99), 99.01), "p99 of 1..100");
    check(near(percentile(hundred, 0), 1.0), "p0 is the minimum");
    check(near(percentile(hundred, 100), 100.0), "p100 is the maximum");
    check(near(mean({1, 2, 3, 6}), 3.0), "mean");

    const RequestStamps ok{1.000, 1.001, 1.003, 1.009, 1.010};
    const LatencyParts p = splitLatency(ok);
    check(near(p.sendLag, 0.001) && near(p.schedWait, 0.002) &&
              near(p.modelSpan, 0.006) && near(p.netReturn, 0.001),
          "latency parts");
    check(partsConsistent(ok, p, 0.01), "ordered stamps add up");
    const RequestStamps early{1.000, 1.002, 1.001, 1.009, 1.010};
    check(!partsConsistent(early, splitLatency(early), 0.01),
          "a step before the send is rejected");
    const RequestStamps late{1.000, 1.001, 1.003, 1.011, 1.010};
    check(!partsConsistent(late, splitLatency(late), 0.01),
          "a step ending after the reply is rejected");
    LatencyParts off = p;
    off.modelSpan *= 1.5;
    check(!partsConsistent(ok, off, 0.01), "parts off by 30% are rejected");

    const std::vector<Interval> steps{{0, 1}, {2, 3}, {5, 6}};
    const auto g1 = busyGaps(steps, {{0.5, 6}});
    check(g1.size() == 2 && near(g1[0], 1) && near(g1[1], 2),
          "gaps while one request spans them");
    const auto g2 = busyGaps(steps, {{0.5, 3}});
    check(g2.size() == 1 && near(g2[0], 1),
          "no gap after the last request finished");
    const auto g3 = busyGaps(steps, {{1.5, 6}});
    check(g3.size() == 1 && near(g3[0], 2),
          "no gap before the first request was sent");
    check(busyGaps(steps, {}).empty(), "no gaps without requests");

    std::printf("self-test: %d of %d checks passed\n", n - bad, n);
    return bad == 0 ? 0 : 1;
}

int
run(int argc, char **argv)
{
    Options o;
    for (int i = 1; i < argc; ++i) {
        const std::string a = argv[i];
        if (a == "--self-test")
            return selfTest();
        if (i + 1 >= argc)
            return usage(("missing value for " + a).c_str());
        const std::string v = argv[++i];
        if (a == "--workload") {
            for (const Workload &w : kWorkloads)
                if (v == w.name)
                    o.workload = &w;
            if (!o.workload)
                return usage(("unknown workload " + v).c_str());
        } else if (a == "--seed") {
            o.seed = std::strtoull(v.c_str(), nullptr, 10);
        } else if (a == "--seconds") {
            o.seconds = std::strtod(v.c_str(), nullptr);
        } else if (a == "--trace") {
            o.trace = v;
        } else if (a == "--git-sha") {
            o.gitSha = v;
        } else {
            return usage(("unknown option " + a).c_str());
        }
    }
    if (!o.workload)
        return usage("--workload is required");
    if (!(o.seconds >= 1.0 && o.seconds <= 120.0))
        return usage("--seconds must be between 1 and 120");

    // The server must run as deployed: no process-wide knob may steer
    // it, and fault injection must never be armed.
    for (char **e = environ; *e; ++e)
        if (std::strncmp(*e, "MOKEY_", 6) == 0) {
            std::fprintf(stderr,
                         "mokey_bench: refusing to run with %s set\n", *e);
            return 2;
        }
    return runWorkload(o);
}

} // namespace

double
now()
{
    return std::chrono::duration<double>(Clock::now() - kEpoch).count();
}

} // namespace mokey::mbench

int
main(int argc, char **argv)
{
    try {
        return mokey::mbench::run(argc, argv);
    } catch (const std::exception &e) {
        std::fprintf(stderr, "mokey_bench: %s\n", e.what());
        return 1;
    }
}
