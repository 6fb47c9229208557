/**
 * @file
 * Tests for the replay buffer and the parallel experiment-matrix
 * runner: replayed streams must be byte-identical to regenerated
 * ones, and matrix results must not depend on the thread count.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <unordered_map>
#include <vector>

#include <unistd.h>

#include "core/runner.hh"
#include "scenario/scenario.hh"
#include "trace/memory_trace.hh"
#include "trace/replay_buffer.hh"
#include "trace/trace_io.hh"
#include "workload/kernels.hh"
#include "workload/specint.hh"

namespace bpsim
{
namespace
{

/** Small phase budgets keep the whole file fast. */
constexpr Count testProfileBranches = 60'000;
constexpr Count testEvalBranches = 120'000;

ExperimentConfig
testConfig(PredictorKind kind, StaticScheme scheme)
{
    ExperimentConfig config;
    config.kind = kind;
    config.sizeBytes = 2048;
    config.scheme = scheme;
    config.profileBranches = testProfileBranches;
    config.evalBranches = testEvalBranches;
    return config;
}

RunnerOptions
threadOptions(unsigned threads)
{
    RunnerOptions options;
    options.threads = threads;
    return options;
}

void
expectSameStats(const SimStats &a, const SimStats &b)
{
    EXPECT_EQ(a.branches, b.branches);
    EXPECT_EQ(a.instructions, b.instructions);
    EXPECT_EQ(a.mispredictions, b.mispredictions);
    EXPECT_EQ(a.staticPredicted, b.staticPredicted);
    EXPECT_EQ(a.staticMispredictions, b.staticMispredictions);
    EXPECT_EQ(a.collisions.lookups, b.collisions.lookups);
    EXPECT_EQ(a.collisions.collisions, b.collisions.collisions);
    EXPECT_EQ(a.collisions.constructive, b.collisions.constructive);
    EXPECT_EQ(a.collisions.destructive, b.collisions.destructive);
}

TEST(ReplayBufferTest, RoundTripsRecords)
{
    MemoryTrace trace;
    trace.append({0x100, true, 7});
    trace.append({0x200, false, 1});
    trace.append({0x300, true, 0x7fffffff});
    // Drain the trace first so materialize()'s reset is exercised.
    BranchRecord sink;
    while (trace.next(sink)) {
    }

    const ReplayBuffer buffer = ReplayBuffer::materialize(trace, 100);
    EXPECT_EQ(buffer.size(), 3u);
    EXPECT_EQ(buffer.instructionCount(),
              Count{7} + 1 + 0x7fffffff);
    // Three records over three distinct sites: both record columns
    // plus one site-table PC per site.
    EXPECT_EQ(buffer.siteCount(), 3u);
    EXPECT_EQ(buffer.memoryBytes(),
              3 * ReplayBuffer::bytesPerBranch + 3 * sizeof(Addr));

    ReplayBuffer::Cursor cursor = buffer.cursor();
    BranchRecord record;
    ASSERT_TRUE(cursor.next(record));
    EXPECT_EQ(record, (BranchRecord{0x100, true, 7}));
    ASSERT_TRUE(cursor.next(record));
    EXPECT_EQ(record, (BranchRecord{0x200, false, 1}));
    ASSERT_TRUE(cursor.next(record));
    EXPECT_EQ(record, (BranchRecord{0x300, true, 0x7fffffff}));
    EXPECT_FALSE(cursor.next(record));

    cursor.reset();
    ASSERT_TRUE(cursor.next(record));
    EXPECT_EQ(record.pc, 0x100u);
}

TEST(ReplayBufferTest, LimitBoundsCapture)
{
    MemoryTrace trace;
    for (int i = 0; i < 50; ++i)
        trace.append({0x100, true, 1});
    const ReplayBuffer buffer = ReplayBuffer::materialize(trace, 20);
    EXPECT_EQ(buffer.size(), 20u);
}

TEST(ReplayBufferTest, MatchesRegeneratedProgramStream)
{
    for (const auto id : allSpecPrograms()) {
        SyntheticProgram program = makeSpecProgram(id, InputSet::Ref);
        const ReplayBuffer buffer =
            ReplayBuffer::materialize(program, 50'000);
        ASSERT_EQ(buffer.size(), 50'000u);

        program.reset();
        ReplayBuffer::Cursor cursor = buffer.cursor();
        BranchRecord live;
        BranchRecord replayed;
        for (Count i = 0; i < buffer.size(); ++i) {
            ASSERT_TRUE(program.next(live));
            ASSERT_TRUE(cursor.next(replayed));
            ASSERT_EQ(live, replayed)
                << specProgramName(id) << " record " << i;
        }
    }
}

/**
 * The site-indexed layout against an independent enumeration: site
 * ids are the first-occurrence numbering of the source's PCs, the
 * site table inverts them, and get() returns every record unchanged.
 * @p source is drained afresh (reset) for the reference pass.
 */
void
expectSiteIndexedCapture(BranchStream &source, Count records,
                         const std::string &what)
{
    const ReplayBuffer buffer = ReplayBuffer::materialize(source, records);
    ASSERT_EQ(buffer.size(), records) << what;

    source.reset();
    std::vector<BranchRecord> expected;
    std::unordered_map<Addr, std::uint32_t> first_seen;
    std::vector<std::uint32_t> expected_ids;
    BranchRecord record;
    while (expected.size() < records && source.next(record)) {
        expected.push_back(record);
        const auto fresh = static_cast<std::uint32_t>(first_seen.size());
        expected_ids.push_back(
            first_seen.try_emplace(record.pc, fresh).first->second);
    }
    ASSERT_EQ(expected.size(), records) << what;
    EXPECT_EQ(buffer.siteCount(), first_seen.size()) << what;

    const SiteIndex view = SiteIndex::build(buffer);
    EXPECT_EQ(view.siteData(), buffer.siteData()) << what;
    EXPECT_EQ(view.siteCount(), buffer.siteCount()) << what;
    EXPECT_EQ(view.size(), buffer.size()) << what;

    const ReplayBuffer copy = buffer;
    BranchRecord replayed;
    BranchRecord copied;
    for (Count i = 0; i < records; ++i) {
        const std::uint32_t site = buffer.siteData()[i];
        ASSERT_EQ(site, expected_ids[i]) << what << " record " << i;
        ASSERT_EQ(buffer.sitePc(site), expected[i].pc)
            << what << " record " << i;
        buffer.get(i, replayed);
        ASSERT_EQ(replayed, expected[i]) << what << " record " << i;
        copy.get(i, copied);
        ASSERT_EQ(copied, expected[i]) << what << " record " << i;
    }
}

TEST(ReplayBufferTest, SiteIdsFollowFirstOccurrenceOnEverySource)
{
    constexpr Count records = 40'000;

    // A program numbers its own sites (loop controls included).
    SyntheticProgram program =
        makeSpecProgram(SpecProgram::Gcc, InputSet::Ref);
    ASSERT_GT(program.siteCount(), 0u);
    expectSiteIndexedCapture(program, records, "program");

    // So does every kernel program, whatever order its PCs take.
    for (const Kernel kernel : allKernels()) {
        SyntheticProgram loop_kernel = makeKernel(kernel);
        expectSiteIndexedCapture(loop_kernel, 5'000,
                                 "kernel " + kernelName(kernel));
    }

    // A scenario numbers member sites after a per-member base.
    std::vector<SyntheticProgram> members;
    members.push_back(makeSpecProgram(SpecProgram::Go, InputSet::Ref));
    members.push_back(
        makeSpecProgram(SpecProgram::Compress, InputSet::Ref));
    members.push_back(makeSpecProgram(SpecProgram::Gcc, InputSet::Ref));
    ScenarioSpec spec;
    spec.kind = ScenarioKind::Smt;
    ScenarioWorkload scenario(spec, std::move(members));
    ASSERT_GT(scenario.siteCount(), 0u);
    expectSiteIndexedCapture(scenario, records, "smt scenario");

    // A stored trace carries no numbering: its PCs are hashed.
    const std::string path =
        ::testing::TempDir() + "replay_sites_" +
        std::to_string(::getpid()) + ".trace";
    {
        program.reset();
        BoundedStream bounded(program, records);
        TraceWriter writer(path);
        ASSERT_EQ(writer.writeAll(bounded), records);
    }
    TraceReader reader(path);
    EXPECT_EQ(reader.siteCount(), 0u);
    expectSiteIndexedCapture(reader, records, "trace file");
    std::remove(path.c_str());
}

TEST(RunnerTest, ReplayedExperimentIdenticalToRegenerated)
{
    // The replay path must produce byte-identical SimStats for every
    // SPEC program, including a profiling phase (Static95 exercises
    // selection) and the dynamic baseline.
    for (const auto id : allSpecPrograms()) {
        for (const auto scheme :
             {StaticScheme::None, StaticScheme::Static95}) {
            const ExperimentConfig config =
                testConfig(PredictorKind::Gshare, scheme);

            SyntheticProgram serial =
                makeSpecProgram(id, InputSet::Ref);
            const ExperimentResult regenerated =
                runExperiment(serial, config);

            SyntheticProgram source =
                makeSpecProgram(id, InputSet::Ref);
            const ReplayBuffer buffer = ReplayBuffer::materialize(
                source, std::max(config.profileBranches,
                                 config.evalBranches));
            ReplayBuffer::Cursor profile_stream = buffer.cursor();
            ReplayBuffer::Cursor eval_stream = buffer.cursor();
            const ExperimentResult replayed = runExperimentStreams(
                profile_stream, eval_stream, config);

            expectSameStats(regenerated.stats, replayed.stats);
            EXPECT_EQ(regenerated.hintCount, replayed.hintCount);
        }
    }
}

TEST(RunnerTest, CrossInputFilterIdenticalToRegenerated)
{
    // The stability-filter path reads the eval-input buffer twice
    // (bias profile + evaluation); it must match the serial path too.
    ExperimentConfig config =
        testConfig(PredictorKind::Gshare, StaticScheme::Static95);
    config.profileInput = InputSet::Train;
    config.filterUnstable = true;

    SyntheticProgram serial =
        makeSpecProgram(SpecProgram::Perl, InputSet::Ref);
    const ExperimentResult regenerated =
        runExperiment(serial, config);

    ExperimentRunner runner(threadOptions(1));
    const std::size_t program = runner.addProgram(
        makeSpecProgram(SpecProgram::Perl, InputSet::Ref));
    runner.addCell(program, config);
    const MatrixResult result = runner.run();

    expectSameStats(regenerated.stats,
                    result.cells[0].result.stats);
    EXPECT_EQ(regenerated.hintCount, result.cells[0].result.hintCount);
}

/** The thread-count/cache test matrix: 2 programs x 2 kinds x
 * {none, static_95, static_acc} = 12 cells, 8 with a profiling
 * phase sharing 4 unique profile runs. */
MatrixResult
runTestMatrix(unsigned threads, bool profile_cache)
{
    RunnerOptions options;
    options.threads = threads;
    options.profileCache = profile_cache;
    ExperimentRunner runner(options);
    for (const auto id : {SpecProgram::Go, SpecProgram::Compress}) {
        const std::size_t program =
            runner.addProgram(makeSpecProgram(id, InputSet::Ref));
        for (const auto kind :
             {PredictorKind::Gshare, PredictorKind::Bimodal}) {
            for (const auto scheme :
                 {StaticScheme::None, StaticScheme::Static95,
                  StaticScheme::StaticAcc}) {
                runner.addCell(program, testConfig(kind, scheme));
            }
        }
    }
    return runner.run();
}

TEST(RunnerTest, ResultsIdenticalAtAnyThreadCount)
{
    const MatrixResult one = runTestMatrix(1, true);
    const MatrixResult two = runTestMatrix(2, true);
    const MatrixResult eight = runTestMatrix(8, true);
    EXPECT_EQ(one.threads, 1u);
    EXPECT_EQ(two.threads, 2u);
    EXPECT_EQ(eight.threads, 8u);
    ASSERT_EQ(one.cells.size(), 12u);
    ASSERT_EQ(two.cells.size(), one.cells.size());
    ASSERT_EQ(eight.cells.size(), one.cells.size());

    for (std::size_t i = 0; i < one.cells.size(); ++i) {
        expectSameStats(one.cells[i].result.stats,
                        two.cells[i].result.stats);
        expectSameStats(one.cells[i].result.stats,
                        eight.cells[i].result.stats);
        EXPECT_EQ(one.cells[i].result.hintCount,
                  two.cells[i].result.hintCount);
        EXPECT_EQ(one.cells[i].result.hintCount,
                  eight.cells[i].result.hintCount);
        EXPECT_EQ(one.cells[i].profileCached,
                  two.cells[i].profileCached);
        EXPECT_EQ(one.cells[i].usedKernel, eight.cells[i].usedKernel);
    }

    // Cache accounting is a function of the matrix, not the pool: 4
    // unique (program, kind) profile runs serve the 8 scheme cells.
    for (const MatrixResult *result : {&one, &two, &eight}) {
        EXPECT_EQ(result->profileCacheMisses, 4u);
        EXPECT_EQ(result->profileCacheHits, 4u);
        EXPECT_EQ(result->kernelCells, result->cells.size());
        EXPECT_EQ(result->totalBranches, one.totalBranches);
        EXPECT_EQ(result->actualBranches, one.actualBranches);
        EXPECT_LT(result->actualBranches, result->totalBranches);
    }
}

TEST(RunnerTest, ProfileCacheOffIsBitIdentical)
{
    const MatrixResult cached = runTestMatrix(2, true);
    const MatrixResult uncached = runTestMatrix(2, false);
    ASSERT_EQ(cached.cells.size(), uncached.cells.size());

    EXPECT_EQ(uncached.profileCacheHits, 0u);
    EXPECT_EQ(uncached.profileCacheMisses, 0u);
    EXPECT_EQ(uncached.totalBranches, cached.totalBranches);
    // Without sharing, every scheme cell re-runs its own profile.
    EXPECT_EQ(uncached.actualBranches, uncached.totalBranches);

    for (std::size_t i = 0; i < cached.cells.size(); ++i) {
        expectSameStats(cached.cells[i].result.stats,
                        uncached.cells[i].result.stats);
        EXPECT_EQ(cached.cells[i].result.hintCount,
                  uncached.cells[i].result.hintCount);
        EXPECT_EQ(cached.cells[i].result.simulatedBranches,
                  uncached.cells[i].result.simulatedBranches);
        EXPECT_FALSE(uncached.cells[i].profileCached);
    }
}

TEST(RunnerTest, CellMetadataAndTiming)
{
    ExperimentRunner runner(threadOptions(2));
    const std::size_t program = runner.addProgram(
        makeSpecProgram(SpecProgram::Compress, InputSet::Ref));
    runner.addCell(program, testConfig(PredictorKind::Gshare,
                                       StaticScheme::Static95));
    const MatrixResult result = runner.run();

    EXPECT_EQ(runner.cell(0).label,
              "compress/gshare:2048/static_95");
    EXPECT_GT(result.cells[0].result.simulatedBranches,
              testEvalBranches);
    EXPECT_GT(result.cells[0].wallSeconds, 0.0);
    EXPECT_GT(result.totalBranches, 0u);
    EXPECT_GT(result.replayBytes, 0u);
    EXPECT_GE(result.wallSeconds, result.runSeconds);
}

TEST(TaskPoolTest, RunsEveryTaskExactlyOnce)
{
    TaskPool pool(4);
    EXPECT_EQ(pool.threadCount(), 4u);

    constexpr std::size_t n = 100;
    std::vector<std::atomic<int>> hits(n);
    pool.parallelFor(n, [&](std::size_t i) {
        hits[i].fetch_add(1);
    });
    for (std::size_t i = 0; i < n; ++i)
        EXPECT_EQ(hits[i].load(), 1) << "task " << i;
}

TEST(ThreadCountTest, ResolutionOrder)
{
    EXPECT_EQ(resolveThreadCount(3), 3u);

    ASSERT_EQ(setenv("BPSIM_THREADS", "5", 1), 0);
    EXPECT_EQ(resolveThreadCount(0), 5u);
    EXPECT_EQ(resolveThreadCount(2), 2u);
    ASSERT_EQ(unsetenv("BPSIM_THREADS"), 0);

    EXPECT_GE(resolveThreadCount(0), 1u);
}

TEST(ThreadCountTest, GarbageEnvFallsBackToHardware)
{
    // A bad shell export must degrade (warning + hardware fallback),
    // never kill the run or silently misbehave.
    const unsigned fallback = resolveThreadCount(0);
    for (const char *garbage : {"banana", "-4", "0", "", "8x", "1e3"}) {
        ASSERT_EQ(setenv("BPSIM_THREADS", garbage, 1), 0);
        EXPECT_EQ(resolveThreadCount(0), fallback)
            << "BPSIM_THREADS='" << garbage << "'";
    }
    ASSERT_EQ(unsetenv("BPSIM_THREADS"), 0);
}

TEST(ThreadCountTest, AbsurdValuesAreClamped)
{
    ASSERT_EQ(setenv("BPSIM_THREADS", "100000", 1), 0);
    EXPECT_EQ(resolveThreadCount(0), maxResolvedThreads);
    ASSERT_EQ(unsetenv("BPSIM_THREADS"), 0);

    EXPECT_EQ(resolveThreadCount(maxResolvedThreads + 1),
              maxResolvedThreads);
    EXPECT_EQ(resolveThreadCount(maxResolvedThreads),
              maxResolvedThreads);
}

TEST(ThreadCountTest, ArgsIntegration)
{
    ArgParser args("test");
    addThreadsOption(args);
    const char *argv[] = {"test", "--threads", "7"};
    args.parse(3, const_cast<char **>(argv));
    EXPECT_EQ(threadsFromArgs(args), 7u);
}

} // namespace
} // namespace bpsim
