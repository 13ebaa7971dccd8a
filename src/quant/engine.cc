#include "quant/engine.hh"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <string>
#include <vector>

#include "common/env.hh"
#include "common/logging.hh"
#include "common/simd.hh"

namespace mokey
{

namespace
{

IndexEngine
engineFromEnv()
{
    const std::string s = lowercasedEnv("MOKEY_ENGINE");
    if (s.empty())
        return IndexEngine::Mag;
    if (s == "mag")
        return IndexEngine::Mag;
    if (s == "count" || s == "counting")
        return IndexEngine::Count;
    if (s == "auto")
        return IndexEngine::Auto;
    fatal("MOKEY_ENGINE must be 'mag', 'count' or 'auto', got '%s'",
          s.c_str());
}

std::atomic<IndexEngine> &
engineSlot()
{
    static std::atomic<IndexEngine> slot{engineFromEnv()};
    return slot;
}

std::atomic<bool> &
calibrateSlot()
{
    static std::atomic<bool> slot{envFlag("MOKEY_CALIBRATE", false)};
    return slot;
}

/** 0 = unresolved; re-resolved lazily after setAutoMagBudgetBytes(0)
 * or a calibration flip. */
std::atomic<size_t> &
budgetSlot()
{
    static std::atomic<size_t> slot{0};
    return slot;
}

/** Best-of-reps ns for one sumD sweep over @p buf. */
double
probeSweepNs(const std::vector<double> &buf)
{
    using clock = std::chrono::steady_clock;
    double best = 1e300;
    double sink = 0.0;
    for (int rep = 0; rep < 4; ++rep) {
        const auto t0 = clock::now();
        sink += sumD(buf.data(), buf.size());
        const auto t1 = clock::now();
        const double ns =
            std::chrono::duration<double, std::nano>(t1 - t0)
                .count();
        best = std::min(best, ns);
    }
    // Keep the sweeps alive past the optimizer.
    if (sink == 0.12345)
        inform("calibration probe sink %f", sink);
    return best;
}

} // anonymous namespace

IndexEngine
indexEngine()
{
    return engineSlot().load(std::memory_order_relaxed);
}

void
setIndexEngine(IndexEngine engine)
{
    engineSlot().store(engine, std::memory_order_relaxed);
}

const char *
indexEngineName(IndexEngine engine)
{
    switch (engine) {
    case IndexEngine::Mag:
        return "mag";
    case IndexEngine::Count:
        return "count";
    case IndexEngine::Auto:
        return "auto";
    }
    return "?";
}

PlaneSet
enginePlaneSet(IndexEngine engine)
{
    return engine == IndexEngine::Mag ? PlaneSet::Mag
                                      : PlaneSet::Bytes;
}

bool
engineCalibration()
{
    return calibrateSlot().load(std::memory_order_relaxed);
}

void
setEngineCalibration(bool on)
{
    const bool was =
        calibrateSlot().exchange(on, std::memory_order_relaxed);
    // The budget depends on the flag: force a lazy re-resolve so a
    // test flipping calibration does not keep a stale choice.
    if (was != on)
        budgetSlot().store(0, std::memory_order_relaxed);
}

size_t
calibrateMagBudget()
{
    // Cached per process: the cliff is a property of the host, and
    // re-probing mid-run would let timing noise flip engine choices.
    static const size_t cached = [] {
        // Streamed-read bandwidth at growing working sets. The
        // smallest size is comfortably cache-resident on anything
        // this library targets; the budget becomes the largest size
        // whose bandwidth holds >= 60% of that reference — i.e. the
        // last size before the DRAM cliff.
        constexpr size_t kProbeMiB[] = {2, 6, 12, 24, 48};
        constexpr double kKeepFraction = 0.60;
        double ref_gbps = 0.0;
        size_t pick = kProbeMiB[0] << 20;
        for (const size_t mib : kProbeMiB) {
            const size_t doubles = (mib << 20) / sizeof(double);
            std::vector<double> buf(doubles, 1.0);
            const double ns = probeSweepNs(buf);
            const double gbps =
                static_cast<double>(mib << 20) / ns; // B/ns == GB/s
            if (ref_gbps == 0.0)
                ref_gbps = gbps;
            if (gbps >= kKeepFraction * ref_gbps)
                pick = mib << 20;
            else
                break;
        }
        const size_t clamped = std::min<size_t>(
            std::max<size_t>(pick, 4u << 20), 64u << 20);
        inform("engine calibration: mag budget %zu MiB",
               clamped >> 20);
        return clamped;
    }();
    return cached;
}

size_t
autoMagBudgetBytes()
{
    const size_t v = budgetSlot().load(std::memory_order_relaxed);
    if (v != 0)
        return v;
    const size_t resolved = engineCalibration()
        ? calibrateMagBudget()
        : kAutoMagBudgetBytes;
    budgetSlot().store(resolved, std::memory_order_relaxed);
    return resolved;
}

void
setAutoMagBudgetBytes(size_t bytes)
{
    budgetSlot().store(bytes, std::memory_order_relaxed);
}

IndexEngine
autoEngineChoice(size_t aRows, size_t wRows, size_t k,
                 const PlanesFootprint &weight, size_t budget)
{
    if (budget == 0)
        budget = autoMagBudgetBytes();
    const size_t mag_stream_bytes =
        (aRows + wRows) * k * kMagElemBytes;
    if (mag_stream_bytes > budget)
        return IndexEngine::Count;
    if (weight.resident && weight.magResident)
        return IndexEngine::Mag;
    return IndexEngine::Count;
}

IndexEngine
resolveIndexEngine(const QuantizedTensor &a, const QuantizedTensor &wt)
{
    const IndexEngine e = indexEngine();
    if (e != IndexEngine::Auto)
        return e;
    return autoEngineChoice(a.rows(), wt.rows(), a.cols(),
                            wt.planesFootprint());
}

PlaneSet
weightPlaneSet(IndexEngine engine, size_t wRows, size_t k)
{
    if (engine != IndexEngine::Auto)
        return enginePlaneSet(engine);
    // Pin mag only when this weight's own plane leaves room for an
    // activation-side stream of similar K inside the budget;
    // otherwise serving GEMMs will route to counting anyway, so the
    // byte planes are the right residents.
    return wRows * k * kMagElemBytes * 2 <= autoMagBudgetBytes()
        ? PlaneSet::Mag
        : PlaneSet::Bytes;
}

} // namespace mokey
