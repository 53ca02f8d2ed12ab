/**
 * @file
 * Micro-benchmarks of the Monte-Carlo memory-sampling walk.
 *
 * Guards the two hot loops behind the adaptive-sampling layer:
 *
 *   - MemSystem::tickSample — the interleaved multi-stream cache walk
 *     (the cost a reused tick skips entirely), measured per sampled
 *     access at paper-typical per-tick sample sizes;
 *   - AddressStream::next — the address generator inside that walk
 *     (conditional wrap, no modulo on the emitted line);
 *   - AddressStream::nextRuns — the batched kernel's generation phase,
 *     per line over the stream shapes that actually run: every kernel
 *     of the co-runner catalog and every render phase of the page
 *     corpus (burst probabilities 0.10-0.90), in per-tick-sized calls.
 *
 * Prints machine-readable MEMSAMPLE_WALK_NS_PER_SAMPLE,
 * MEMSAMPLE_STREAM_NEXT_NS and MEMSAMPLE_NEXTRUNS_NS lines that
 * scripts/run_benches.sh records in BENCH_parallel.json. Needs no
 * trained models.
 */

#include <benchmark/benchmark.h>

#include <chrono>
#include <iostream>
#include <memory>
#include <vector>

#include "browser/page_corpus.hh"
#include "browser/render_cost.hh"
#include "mem/address_stream.hh"
#include "mem/mem_system.hh"
#include "obs/trace.hh"
#include "workloads/kernel.hh"

using namespace dora;

namespace
{

/** Streams shaped like the paper's co-run mix: one browser-like stream
 *  plus Low/Medium/High Rodinia-class kernels sharing the L2. */
struct WalkFixture
{
    MemSystem mem{MemSystemConfig{}};
    std::vector<std::unique_ptr<AddressStream>> streams;
    std::vector<MemSampleRequest> requests;
    std::vector<MemSampleResult> results;

    explicit WalkFixture(uint32_t samples_per_core)
    {
        const struct
        {
            uint64_t wsBytes;
            double hot;
        } shapes[4] = {
            {1ull << 20, 0.900},        // browser render phase
            {512ull * 1024, 0.960},     // Low-class kernel (kmeans)
            {2816ull * 1024, 0.948},    // Medium-class kernel (bfs)
            {8ull << 20, 0.915},        // High-class kernel (backprop)
        };
        uint64_t base = 0;
        for (uint32_t c = 0; c < 4; ++c) {
            AddressStreamSpec spec;
            spec.workingSetBytes = shapes[c].wsBytes;
            spec.hotFraction = shapes[c].hot;
            streams.push_back(std::make_unique<AddressStream>(
                spec, base, Rng(0x1234 + c)));
            base += 2 * (spec.workingSetBytes / 64);
            MemSampleRequest req;
            req.core = c;
            req.stream = streams.back().get();
            req.samples = samples_per_core;
            requests.push_back(req);
        }
    }
};

void
BM_TickSampleWalk(benchmark::State &state)
{
    const uint32_t samples = static_cast<uint32_t>(state.range(0));
    WalkFixture f(samples);
    for (auto _ : state) {
        f.mem.tickSample(f.requests, f.results);
        benchmark::DoNotOptimize(f.results.data());
    }
    state.SetItemsProcessed(state.iterations() * 4 * samples);
}
BENCHMARK(BM_TickSampleWalk)->Arg(256)->Arg(2048)->Arg(8192);

void
BM_AddressStreamNext(benchmark::State &state)
{
    AddressStreamSpec spec;
    spec.workingSetBytes = 2816ull * 1024;
    spec.hotFraction = 0.948;
    AddressStream stream(spec, 0, Rng(0x5678));
    for (auto _ : state)
        benchmark::DoNotOptimize(stream.next());
}
BENCHMARK(BM_AddressStreamNext);

/** Stream shapes of every co-runner kernel and page render phase. */
std::vector<AddressStreamSpec>
shippedStreamSpecs()
{
    std::vector<AddressStreamSpec> specs;
    for (const KernelSpec &k : KernelCatalog::all())
        specs.push_back(k.stream);
    const RenderCostModel render;
    for (const WebPage &page : PageCorpus::all())
        for (const RenderPhase &phase : render.phases(page))
            specs.push_back(phase.stream);
    return specs;
}

/** ns per line of nextRuns() over the shipped shapes, equal weight. */
double
nextRunsNsPerLine()
{
    constexpr uint32_t kCall = 256;  // a typical per-core tick sample
    constexpr int kCalls = 256;
    std::vector<uint64_t> out(kCall);
    uint64_t sink = 0;
    double ns = 0.0;
    uint64_t lines = 0;
    uint64_t seed = 0x9abc;
    for (const AddressStreamSpec &spec : shippedStreamSpecs()) {
        AddressStream stream(spec, 0, Rng(seed++));
        const auto t0 = std::chrono::steady_clock::now();
        for (int i = 0; i < kCalls; ++i) {
            stream.nextRuns(out.data(), kCall);
            sink ^= out[i % kCall];
        }
        const auto t1 = std::chrono::steady_clock::now();
        ns += std::chrono::duration<double, std::nano>(t1 - t0).count();
        lines += static_cast<uint64_t>(kCalls) * kCall;
    }
    benchmark::DoNotOptimize(sink);
    return ns / static_cast<double>(lines);
}

/** Machine-readable summary for scripts/run_benches.sh. */
void
printSummary()
{
    constexpr uint32_t kSamples = 2048;
    constexpr int kRepeats = 200;
    WalkFixture f(kSamples);
    // Warm the modeled caches so the steady-state path is measured.
    for (int i = 0; i < 50; ++i)
        f.mem.tickSample(f.requests, f.results);
    auto t0 = std::chrono::steady_clock::now();
    for (int i = 0; i < kRepeats; ++i)
        f.mem.tickSample(f.requests, f.results);
    auto t1 = std::chrono::steady_clock::now();
    const double walk_ns =
        std::chrono::duration<double, std::nano>(t1 - t0).count() /
        (static_cast<double>(kRepeats) * 4 * kSamples);

    AddressStreamSpec spec;
    spec.workingSetBytes = 2816ull * 1024;
    spec.hotFraction = 0.948;
    AddressStream stream(spec, 0, Rng(0x5678));
    constexpr int kDraws = 2000000;
    uint64_t sink = 0;
    t0 = std::chrono::steady_clock::now();
    for (int i = 0; i < kDraws; ++i)
        sink ^= stream.next();
    t1 = std::chrono::steady_clock::now();
    benchmark::DoNotOptimize(sink);
    const double next_ns =
        std::chrono::duration<double, std::nano>(t1 - t0).count() /
        kDraws;

    std::cout << "MEMSAMPLE_WALK_NS_PER_SAMPLE " << walk_ns << "\n"
              << "MEMSAMPLE_STREAM_NEXT_NS " << next_ns << "\n"
              << "MEMSAMPLE_NEXTRUNS_NS " << nextRunsNsPerLine() << "\n";
}

} // namespace

int
main(int argc, char **argv)
{
    ObsGuard obs(argc, argv);
    benchmark::Initialize(&argc, argv);
    benchmark::RunSpecifiedBenchmarks();
    benchmark::Shutdown();
    printSummary();
    return 0;
}
