/**
 * @file
 * google-benchmark microbenchmarks for the hot kernels: float GEMM,
 * index-domain GEMM, fixed-point GEMM, encode, pack/unpack, and the
 * golden-dictionary clustering.
 *
 * main() additionally times the engine kernels against replicas of
 * the *seed* scalar kernels and writes BENCH_micro_kernels.json
 * (kernel, shape, ns/op, GB/s, speedup), so the perf trajectory of
 * the index-domain engine is tracked from this PR onward.
 */

#include <benchmark/benchmark.h>

#include <cstdlib>

#include "bench/bench_util.hh"
#include "common/parallel.hh"
#include "common/rng.hh"
#include "quant/fixed_pipeline.hh"
#include "quant/index_matmul.hh"
#include "quant/memory_codec.hh"
#include "quant/quantizer.hh"
#include "tensor/ops.hh"

namespace
{

using namespace mokey;

struct Setup
{
    Setup()
        : exp(1.179, -0.977, 8), quantizer(exp)
    {
        Rng rng(31337);
        a = Tensor(64, 256, rng.gaussianVector(64 * 256, 0.0, 1.0));
        w = Tensor(64, 256,
                   rng.gaussianVector(64 * 256, 0.0, 0.05));
        da = quantizer.buildDictionary(a);
        dw = quantizer.buildDictionary(w);
        qa = quantizer.encode(a, da);
        qw = quantizer.encode(w, dw);
    }

    ExpDictionary exp;
    Quantizer quantizer;
    Tensor a, w;
    TensorDictionary da{}, dw{};
    QuantizedTensor qa, qw;
};

Setup &
setup()
{
    static Setup s;
    return s;
}

/**
 * Replica of the seed matmulTransB: single-threaded single-lane
 * double accumulation. The library kernel evolves; this baseline
 * stays frozen so speedups stay comparable across PRs.
 */
Tensor
seedMatmulTransB(const Tensor &a, const Tensor &b)
{
    Tensor c(a.rows(), b.rows());
    const size_t m = a.rows(), k = a.cols(), n = b.rows();
    for (size_t i = 0; i < m; ++i) {
        const float *arow = a.row(i);
        for (size_t j = 0; j < n; ++j) {
            const float *brow = b.row(j);
            double acc = 0.0;
            for (size_t p = 0; p < k; ++p)
                acc += static_cast<double>(arow[p]) * brow[p];
            c.at(i, j) = static_cast<float>(acc);
        }
    }
    return c;
}

void
BM_FloatGemm(benchmark::State &state)
{
    auto &s = setup();
    for (auto _ : state)
        benchmark::DoNotOptimize(matmulTransB(s.a, s.w));
}
BENCHMARK(BM_FloatGemm)->Unit(benchmark::kMillisecond);

void
BM_FloatGemmSeed(benchmark::State &state)
{
    auto &s = setup();
    for (auto _ : state)
        benchmark::DoNotOptimize(seedMatmulTransB(s.a, s.w));
}
BENCHMARK(BM_FloatGemmSeed)->Unit(benchmark::kMillisecond);

void
BM_IndexGemm(benchmark::State &state)
{
    auto &s = setup();
    for (auto _ : state)
        benchmark::DoNotOptimize(indexMatmulTransB(s.qa, s.qw));
}
BENCHMARK(BM_IndexGemm)->Unit(benchmark::kMillisecond);

void
BM_IndexGemmCounting(benchmark::State &state)
{
    auto &s = setup();
    for (auto _ : state)
        benchmark::DoNotOptimize(
            indexMatmulTransBCounting(s.qa, s.qw));
}
BENCHMARK(BM_IndexGemmCounting)->Unit(benchmark::kMillisecond);

void
BM_IndexGemmReference(benchmark::State &state)
{
    auto &s = setup();
    for (auto _ : state)
        benchmark::DoNotOptimize(
            indexMatmulTransBReference(s.qa, s.qw));
}
BENCHMARK(BM_IndexGemmReference)->Unit(benchmark::kMillisecond);

void
BM_FixedGemm(benchmark::State &state)
{
    auto &s = setup();
    const FixedFormat fmt{16, 8};
    for (auto _ : state)
        benchmark::DoNotOptimize(
            fixedIndexMatmulTransB(s.qa, s.qw, fmt));
}
BENCHMARK(BM_FixedGemm)->Unit(benchmark::kMillisecond);

void
BM_Encode(benchmark::State &state)
{
    auto &s = setup();
    for (auto _ : state)
        benchmark::DoNotOptimize(s.quantizer.encode(s.a, s.da));
}
BENCHMARK(BM_Encode)->Unit(benchmark::kMicrosecond);

void
BM_EncodeFused(benchmark::State &state)
{
    auto &s = setup();
    for (auto _ : state)
        benchmark::DoNotOptimize(
            s.quantizer.encodeToPlanes(s.a, s.da));
}
BENCHMARK(BM_EncodeFused)->Unit(benchmark::kMicrosecond);

void
BM_PackUnpack(benchmark::State &state)
{
    auto &s = setup();
    for (auto _ : state) {
        const auto packed = packTensor(s.qa);
        benchmark::DoNotOptimize(
            unpackTensor(packed, s.qa.dictionary()));
    }
}
BENCHMARK(BM_PackUnpack)->Unit(benchmark::kMicrosecond);

void
BM_GoldenDictionaryClustering(benchmark::State &state)
{
    Rng rng(99);
    const auto samples = rng.gaussianVector(
        static_cast<size_t>(state.range(0)), 0.0, 1.0);
    for (auto _ : state)
        benchmark::DoNotOptimize(agglomerative1d(samples, 16));
}
BENCHMARK(BM_GoldenDictionaryClustering)
    ->Arg(10000)
    ->Arg(50000)
    ->Unit(benchmark::kMillisecond);

/**
 * Frozen replica of the seed activation-quantization path: a scalar
 * per-element nearest-centroid encode into a full QCode tensor
 * (pass 1), then the complete derivePlanes walk building the
 * index/theta/mag planes and the outlier sidecars from those codes
 * (passes 2-3). This is exactly what the serving path paid per
 * activation tensor before the fused encoder; it stays frozen here
 * so act_encode_fused speedups remain comparable across PRs.
 */
void
seedEncodeToPlanes(const Tensor &t, const TensorDictionary &dict,
                   const Quantizer &quantizer)
{
    const size_t rows = t.rows(), cols = t.cols();
    std::vector<QCode> codes(rows * cols);
    for (size_t r = 0; r < rows; ++r) {
        const float *src = t.row(r);
        QCode *dst = codes.data() + r * cols;
        for (size_t c = 0; c < cols; ++c)
            dst[c] = quantizer.encodeValue(src[c], dict);
    }
    // The derivePlanes pass the engines forced before every GEMM.
    std::vector<uint8_t> index(rows * cols);
    std::vector<int8_t> theta(rows * cols);
    std::vector<double> mag(rows * cols);
    std::vector<std::pair<uint32_t, double>> outliers;
    std::vector<uint32_t> row_start(rows + 1, 0);
    for (size_t r = 0; r < rows; ++r) {
        const QCode *src = codes.data() + r * cols;
        for (size_t c = 0; c < cols; ++c) {
            const QCode q = src[c];
            const size_t i = r * cols + c;
            if (q.isOutlier()) {
                index[i] = 0;
                theta[i] = 0;
                mag[i] = 0.0;
                outliers.emplace_back(
                    static_cast<uint32_t>(c),
                    dict.outlierValue(q.outlierIndex()));
            } else {
                index[i] = q.index();
                theta[i] = static_cast<int8_t>(q.theta());
                mag[i] =
                    q.theta() * dict.exp().magnitude(q.index());
            }
        }
        row_start[r + 1] = static_cast<uint32_t>(outliers.size());
    }
    benchmark::DoNotOptimize(mag.data());
    benchmark::DoNotOptimize(outliers.data());
}

/**
 * The tentpole claim of the fused activation path: encoding straight
 * into planes in one SIMD walk beats the seed's three passes (scalar
 * encode, code materialization, derivePlanes) by >= 3x single
 * threaded. Activation-shaped tensor (a BERT-base hidden GEMM input
 * slab) with a realistic outlier tail. GB/s counts the float source
 * read plus the plane writes: 1 + 1 + kMagElemBytes per element for
 * the fused encoder, and the seed's own 10 B (its mag plane is the
 * old 8 B double), which additionally pays the 1 B/element code store
 * + reload.
 */
void
writeActEncodeReport(bench::BenchJson &json)
{
    constexpr size_t kRows = 128, kCols = 768;
    Rng rng(515151);
    ExpDictionary exp(1.179, -0.977, 8);
    Quantizer quantizer(exp);
    std::vector<float> v =
        rng.gaussianVector(kRows * kCols, 0.0, 1.0);
    for (size_t i = 0; i < v.size() / 64; ++i)
        v[rng.uniformInt(v.size())] =
            static_cast<float>(rng.gaussian(0.0, 6.0));
    Tensor t(kRows, kCols, v);
    const auto dict = quantizer.buildDictionary(t);

    // The seed replica is strictly serial, so pin the pool to one
    // thread for the fused side too: the recorded (and CI-gated)
    // ratio must measure the kernel, not the host's core count.
    const size_t prior_threads = threadCount();
    setThreadCount(1);
    const double seed_ns = bench::timeKernelNs(
        [&] { seedEncodeToPlanes(t, dict, quantizer); });
    const double fused_ns = bench::timeKernelNs([&] {
        benchmark::DoNotOptimize(
            quantizer.encodeToPlanes(t, dict, PlaneSet::All));
    });
    setThreadCount(prior_threads);

    const double n = static_cast<double>(kRows * kCols);
    const double seed_bytes = n * (4.0 + 2.0 * 1.0 + 10.0);
    const double fused_bytes = n * (4.0 + 2.0 + kMagElemBytes);
    json.add({"act_encode_seed", kRows, kCols, 0, seed_ns,
              seed_bytes / seed_ns, 0.0});
    json.add({"act_encode_fused", kRows, kCols, 0, fused_ns,
              fused_bytes / fused_ns, seed_ns / fused_ns});
    std::printf("act encode %zux%zu: fused %.2fx vs seed three-pass "
                "(threads=%zu)\n",
                kRows, kCols, seed_ns / fused_ns, threadCount());
}

/**
 * Time engine vs seed kernels on GEMM shapes from the transformer
 * workloads and flush BENCH_micro_kernels.json. GB/s counts operand
 * reads plus result writes at their in-memory width: 4 B floats for
 * the float path, 1 B codes for the seed index path, and the planes
 * the two index engines actually stream — kMagElemBytes (2 B) per
 * element int16 grid planes for index_gemm_mag, 2 B/element byte
 * planes for index_gemm_count. After the two small shapes come
 * BERT-base's three weight-site shapes (n, k) = (768, 768) for
 * wq/wk/wv/wo, (3072, 768) for w1 and (768, 3072) for w2, each at a
 * 4-row decode step and a 128-row prefill step.
 */
void
writeSpeedupReport()
{
    bench::BenchJson json("micro_kernels");

    struct GemmShape
    {
        size_t m, n, k;
    };
    for (const GemmShape shape :
         {GemmShape{64, 64, 256}, GemmShape{128, 128, 768},
          GemmShape{4, 768, 768}, GemmShape{4, 3072, 768},
          GemmShape{4, 768, 3072}, GemmShape{128, 768, 768},
          GemmShape{128, 3072, 768}, GemmShape{128, 768, 3072}}) {
        const size_t m = shape.m, n = shape.n, k = shape.k;
        Rng rng(31337 + m);
        ExpDictionary exp(1.179, -0.977, 8);
        Quantizer quantizer(exp);
        Tensor a(m, k, rng.gaussianVector(m * k, 0.0, 1.0));
        Tensor w(n, k, rng.gaussianVector(n * k, 0.0, 0.05));
        const auto qa =
            quantizer.encode(a, quantizer.buildDictionary(a));
        const auto qw =
            quantizer.encode(w, quantizer.buildDictionary(w));

        const double fbytes =
            static_cast<double>(m * k + n * k + m * n) * 4.0;
        const double ibytes =
            static_cast<double>(m * k + n * k) * 1.0 +
            static_cast<double>(m * n) * 4.0;
        const double mag_bytes =
            static_cast<double>((m * k + n * k) * kMagElemBytes) +
            static_cast<double>(m * n) * 4.0;
        const double count_bytes =
            static_cast<double>(m * k + n * k) * 2.0 +
            static_cast<double>(m * n) * 4.0;

        const double seed_f = bench::timeKernelNs(
            [&] { seedMatmulTransB(a, w); });
        const double fast_f = bench::timeKernelNs(
            [&] { matmulTransB(a, w); });
        const double seed_i = bench::timeKernelNs(
            [&] { indexMatmulTransBReference(qa, qw); });
        const double fast_i = bench::timeKernelNs(
            [&] { indexMatmulTransB(qa, qw); });
        const double fast_c = bench::timeKernelNs(
            [&] { indexMatmulTransBCounting(qa, qw); });

        json.add({"float_gemm_seed", m, n, k, seed_f,
                  fbytes / seed_f, 0.0});
        json.add({"float_gemm_engine", m, n, k, fast_f,
                  fbytes / fast_f, seed_f / fast_f});
        json.add({"index_gemm_seed", m, n, k, seed_i,
                  ibytes / seed_i, 0.0});
        json.add({"index_gemm_mag", m, n, k, fast_i,
                  mag_bytes / fast_i, seed_i / fast_i});
        json.add({"index_gemm_count", m, n, k, fast_c,
                  count_bytes / fast_c, seed_i / fast_c});

        std::printf("shape %zux%zux%zu: float %.2fx, index mag "
                    "%.2fx, index count %.2fx (threads=%zu)\n",
                    m, n, k, seed_f / fast_f, seed_i / fast_i,
                    seed_i / fast_c, threadCount());
    }
    writeActEncodeReport(json);
    json.write();
}

} // anonymous namespace

int
main(int argc, char **argv)
{
    benchmark::Initialize(&argc, argv);
    if (benchmark::ReportUnrecognizedArguments(argc, argv))
        return 1;
    // The seed-vs-engine report costs a couple of seconds and
    // rewrites BENCH_micro_kernels.json in the CWD; developers
    // iterating on one benchmark can turn it off.
    if (std::getenv("MOKEY_NO_SPEEDUP_REPORT") == nullptr)
        writeSpeedupReport();
    benchmark::RunSpecifiedBenchmarks();
    benchmark::Shutdown();
    return 0;
}
