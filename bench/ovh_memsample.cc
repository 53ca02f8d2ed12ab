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
 * Needs no trained models.
 */

#include <benchmark/benchmark.h>

#include <memory>
#include <vector>

#include "browser/page_corpus.hh"
#include "browser/render_cost.hh"
#include "common/cli.hh"
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

/**
 * nextRuns() over the shipped shapes, equal weight: each iteration is
 * one per-tick-sized call on the next shape in turn, and the reported
 * rate is in lines.
 */
void
BM_AddressStreamNextRuns(benchmark::State &state)
{
    constexpr uint32_t kCall = 256;  // a typical per-core tick sample
    const std::vector<AddressStreamSpec> specs = shippedStreamSpecs();
    std::vector<AddressStream> streams;
    streams.reserve(specs.size());
    uint64_t seed = 0x9abc;
    for (const AddressStreamSpec &spec : specs)
        streams.emplace_back(spec, 0, Rng(seed++));
    std::vector<uint64_t> out(kCall);
    size_t next = 0;
    for (auto _ : state) {
        streams[next].nextRuns(out.data(), kCall);
        benchmark::DoNotOptimize(out.data());
        next = next + 1 == streams.size() ? 0 : next + 1;
    }
    state.SetItemsProcessed(state.iterations() * kCall);
}
BENCHMARK(BM_AddressStreamNextRuns);

} // namespace

int
main(int argc, char **argv)
{
    ObsGuard obs(argc, argv);
    benchmark::Initialize(&argc, argv);
    cliRejectUnknownArgs(argc, argv, "ovh_memsample", {"--trace"},
                         {"--exact-ticks"});
    benchmark::RunSpecifiedBenchmarks();
    benchmark::Shutdown();
    return 0;
}
