/**
 * @file
 * The arithmetic behind mokey_bench's metrics, kept free of I/O and
 * threads so `mokey_bench --self-test` can check it on synthetic
 * inputs: percentiles, the four-part split of one request's latency,
 * and the idle gaps between layer steps while work was waiting.
 */

#ifndef MOKEY_BENCH_MOKEY_BENCH_BENCH_MATH_HH
#define MOKEY_BENCH_MOKEY_BENCH_BENCH_MATH_HH

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <vector>

namespace mokey::mbench
{

/**
 * Percentile @p p (0..100) of @p v with linear interpolation between
 * closest ranks (numpy's default). 0 for an empty sample.
 */
inline double
percentile(std::vector<double> v, double p)
{
    if (v.empty())
        return 0.0;
    std::sort(v.begin(), v.end());
    const double idx = p / 100.0 * static_cast<double>(v.size() - 1);
    const size_t lo = static_cast<size_t>(std::floor(idx));
    const size_t hi = std::min(lo + 1, v.size() - 1);
    const double frac = idx - static_cast<double>(lo);
    return v[lo] + (v[hi] - v[lo]) * frac;
}

/** Arithmetic mean; 0 for an empty sample. */
inline double
mean(const std::vector<double> &v)
{
    double s = 0.0;
    for (const double x : v)
        s += x;
    return v.empty() ? 0.0 : s / static_cast<double>(v.size());
}

/**
 * Time stamps of one traced request on one clock (seconds). due is
 * when the load generator meant to send it, send when it did, recv
 * when the last response byte arrived; the two step stamps come from
 * the layer-step wrapper: the start of the request's first layer-0
 * step and the end of its last-layer step.
 */
struct RequestStamps
{
    double due = 0.0;
    double send = 0.0;
    double firstStepStart = 0.0;
    double lastStepEnd = 0.0;
    double recv = 0.0;
};

/** One request's latency (recv - due) split at the traced boundaries. */
struct LatencyParts
{
    double sendLag = 0.0;   ///< due -> send: the load generator ran late
    double schedWait = 0.0; ///< send -> first step: net in, admission, queue
    double modelSpan = 0.0; ///< first step start -> last step end
    double netReturn = 0.0; ///< last step end -> last response byte

    double sum() const
    {
        return sendLag + schedWait + modelSpan + netReturn;
    }
};

inline LatencyParts
splitLatency(const RequestStamps &s)
{
    LatencyParts p;
    p.sendLag = s.send - s.due;
    p.schedWait = s.firstStepStart - s.send;
    p.modelSpan = s.lastStepEnd - s.firstStepStart;
    p.netReturn = s.recv - s.lastStepEnd;
    return p;
}

/**
 * True when every part is non-negative and the parts add up to the
 * request's latency within the relative tolerance @p tol. The parts
 * telescope, so a failure means the stamps are out of causal order:
 * a request was matched to another request's steps.
 */
inline bool
partsConsistent(const RequestStamps &s, const LatencyParts &p,
                double tol)
{
    const double latency = s.recv - s.due;
    if (p.sendLag < 0 || p.schedWait < 0 || p.modelSpan < 0 ||
        p.netReturn < 0 || latency <= 0)
        return false;
    return std::fabs(p.sum() - latency) <= tol * latency;
}

/** A half-open time interval [start, end] in seconds. */
struct Interval
{
    double start = 0.0;
    double end = 0.0;
};

/**
 * Idle gaps between consecutive layer steps during which work was
 * waiting: the gap between step i's end and step i+1's start counts
 * when some request was sent by step i's end and had not finished its
 * last step by step i+1's start. @p steps must be sorted by start
 * (one scheduler thread runs them in order); @p inFlight holds each
 * request's [send, last step end].
 */
inline std::vector<double>
busyGaps(const std::vector<Interval> &steps,
         std::vector<Interval> inFlight)
{
    std::sort(inFlight.begin(), inFlight.end(),
              [](const Interval &a, const Interval &b) {
                  return a.start < b.start;
              });
    std::vector<double> gaps;
    size_t next = 0;
    double latestEnd = -INFINITY; // over requests sent so far
    for (size_t i = 0; i + 1 < steps.size(); ++i) {
        const double a = steps[i].end;
        const double b = steps[i + 1].start;
        while (next < inFlight.size() && inFlight[next].start <= a)
            latestEnd = std::max(latestEnd, inFlight[next++].end);
        if (latestEnd >= b && b >= a)
            gaps.push_back(b - a);
    }
    return gaps;
}

} // namespace mokey::mbench

#endif // MOKEY_BENCH_MOKEY_BENCH_BENCH_MATH_HH
