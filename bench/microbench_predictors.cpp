/**
 * @file
 * google-benchmark microbenchmarks: throughput of every registered
 * predictor over one materialized trace, and the synthetic workload
 * generator's record throughput. These are engineering benchmarks for
 * the simulator itself, not paper reproductions.
 *
 * The predictor list is the registry, so a newly registered predictor
 * is measured with no edit here. Per predictor (at its default
 * budget):
 *  - <name>/tracked:   simulateReplay with collision tracking, the
 *                      path experiment results take
 *  - <name>/untracked: the same with trackCollisions off, which only
 *                      the devirtualized kernels honour (registered
 *                      for kernel-capable predictors only)
 * Both run the default dispatch: batched kernels where the predictor
 * has them, record-at-a-time kernels or the virtual loop otherwise.
 * Items processed are simulated branches.
 */

#include <benchmark/benchmark.h>

#include <string>

#include "core/engine.hh"
#include "predictor/registry.hh"
#include "trace/branch_record.hh"
#include "trace/replay_buffer.hh"
#include "workload/specint.hh"

namespace
{

using namespace bpsim;

/** One materialized gcc/ref trace shared by the benchmarks. */
const ReplayBuffer &
trace()
{
    static const ReplayBuffer buffer = [] {
        SyntheticProgram program =
            makeSpecProgram(SpecProgram::Gcc, InputSet::Ref);
        return ReplayBuffer::materialize(program, Count{1} << 18);
    }();
    return buffer;
}

void
predictorThroughput(benchmark::State &state, const PredictorInfo *info,
                    bool track)
{
    auto predictor = info->make(info->defaultBytes);
    SimOptions options;
    options.trackCollisions = track;
    for (auto _ : state) {
        const SimStats stats = simulateReplay(*predictor, trace(), options);
        benchmark::DoNotOptimize(stats.mispredictions);
    }
    state.SetItemsProcessed(
        static_cast<std::int64_t>(state.iterations() * trace().size()));
}

void
workloadThroughput(benchmark::State &state)
{
    SyntheticProgram program =
        makeSpecProgram(SpecProgram::Gcc, InputSet::Ref);
    BranchRecord record;
    for (auto _ : state) {
        program.next(record);
        benchmark::DoNotOptimize(record.pc);
    }
    state.SetItemsProcessed(
        static_cast<std::int64_t>(state.iterations()));
}

} // namespace

int
main(int argc, char **argv)
{
    for (const PredictorInfo *info : PredictorRegistry::instance().all()) {
        benchmark::RegisterBenchmark(
            (info->name + "/tracked").c_str(), predictorThroughput, info,
            true)
            ->Unit(benchmark::kMillisecond);
        if (info->kernelCapable) {
            benchmark::RegisterBenchmark(
                (info->name + "/untracked").c_str(), predictorThroughput,
                info, false)
                ->Unit(benchmark::kMillisecond);
        }
    }
    benchmark::RegisterBenchmark("workload/gcc", workloadThroughput);

    benchmark::Initialize(&argc, argv);
    if (benchmark::ReportUnrecognizedArguments(argc, argv))
        return 1;
    benchmark::RunSpecifiedBenchmarks();
    benchmark::Shutdown();
    return 0;
}
