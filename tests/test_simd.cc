/**
 * @file
 * Runtime SIMD dispatch suite: the BPSIM_SIMD environment override
 * and --simd/--no-simd resolution rules of core/simd.hh, and the
 * differential bit-identity contract of the batched kernels — a run
 * under any dispatch level must produce exactly the reference path's
 * MatrixResult in every deterministic field, at any thread count,
 * fused or per-cell, and across a checkpoint/resume boundary.
 *
 * Tests mutate the process environment (BPSIM_SIMD), so every test
 * runs under a fixture whose SetUp/TearDown clear it.
 */

#include <gtest/gtest.h>

#include <cstdlib>
#include <memory>
#include <string>
#include <type_traits>
#include <utility>
#include <vector>

#include "core/batch_kernels.hh"
#include "core/runner.hh"
#include "core/simd.hh"
#include "obs/run_journal.hh"
#include "predictor/factory.hh"
#include "predictor/registry.hh"
#include "scenario/scenario.hh"
#include "support/error.hh"
#include "support/fault.hh"
#include "workload/specint.hh"

namespace bpsim
{
namespace
{

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

/** 2 programs x 3 kinds x 2 schemes = 12 cells; the kind spread
 * covers the pc-indexed, history-serialized and multi-table batch
 * kernel shapes. */
void
addTestCells(ExperimentRunner &runner)
{
    for (const auto id : {SpecProgram::Go, SpecProgram::Compress}) {
        const std::size_t program =
            runner.addProgram(makeSpecProgram(id, InputSet::Ref));
        for (const auto kind :
             {PredictorKind::Bimodal, PredictorKind::Gshare,
              PredictorKind::TwoBcGskew}) {
            for (const auto scheme :
                 {StaticScheme::None, StaticScheme::Static95}) {
                runner.addCell(program, testConfig(kind, scheme));
            }
        }
    }
}

RunnerOptions
matrixOptions(unsigned threads, bool fused, bool simd)
{
    RunnerOptions options;
    options.threads = threads;
    options.fused = fused;
    options.simd = simd;
    return options;
}

MatrixResult
runMatrix(const RunnerOptions &options)
{
    ExperimentRunner runner(options);
    addTestCells(runner);
    return runner.run();
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

/** Deterministic-field identity; path flags (usedSimd) are checked
 * separately since they legitimately differ across dispatch levels. */
void
expectSameMatrix(const MatrixResult &got, const MatrixResult &ref)
{
    ASSERT_EQ(got.cells.size(), ref.cells.size());
    for (std::size_t i = 0; i < got.cells.size(); ++i) {
        ASSERT_TRUE(got.cells[i].ok()) << "cell " << i;
        expectSameStats(got.cells[i].result.stats,
                        ref.cells[i].result.stats);
        EXPECT_EQ(got.cells[i].result.hintCount,
                  ref.cells[i].result.hintCount);
        EXPECT_EQ(got.cells[i].result.simulatedBranches,
                  ref.cells[i].result.simulatedBranches);
        EXPECT_EQ(got.cells[i].usedKernel, ref.cells[i].usedKernel);
    }
    EXPECT_EQ(got.failedCells, ref.failedCells);
    EXPECT_EQ(got.totalBranches, ref.totalBranches);
    EXPECT_EQ(got.actualBranches, ref.actualBranches);
    EXPECT_EQ(got.kernelCells, ref.kernelCells);
}

class SimdTest : public ::testing::Test
{
  protected:
    void SetUp() override { ::unsetenv("BPSIM_SIMD"); }
    void
    TearDown() override
    {
        ::unsetenv("BPSIM_SIMD");
        FaultInjector::instance().disarm();
    }
};

/** Reference: batch kernels off, one thread, per-cell execution. */
const MatrixResult &
reference()
{
    static const MatrixResult result = [] {
        ::unsetenv("BPSIM_SIMD");
        return runMatrix(matrixOptions(1, false, false));
    }();
    return result;
}

TEST_F(SimdTest, ResolveHonoursTheEnabledFlag)
{
    EXPECT_EQ(resolveSimdLevel(false), SimdLevel::Off);
    EXPECT_EQ(resolveSimdLevel(true), detectSimdLevel());
    // The detected level is a real kernel set, never Off.
    EXPECT_NE(detectSimdLevel(), SimdLevel::Off);
}

TEST_F(SimdTest, EnvOffAndScalarOverrideTheFlag)
{
    ::setenv("BPSIM_SIMD", "off", 1);
    EXPECT_EQ(resolveSimdLevel(true), SimdLevel::Off);
    EXPECT_EQ(resolveSimdLevel(false), SimdLevel::Off);

    ::setenv("BPSIM_SIMD", "scalar", 1);
    EXPECT_EQ(resolveSimdLevel(true), SimdLevel::Scalar);
    // The override also wins over --no-simd: it names a level, not a
    // preference.
    EXPECT_EQ(resolveSimdLevel(false), SimdLevel::Scalar);
}

TEST_F(SimdTest, UnsupportedForcedLevelFallsBackToScalar)
{
    const SimdLevel detected = detectSimdLevel();

    ::setenv("BPSIM_SIMD", "avx2", 1);
    EXPECT_EQ(resolveSimdLevel(true), detected == SimdLevel::Avx2
                                          ? SimdLevel::Avx2
                                          : SimdLevel::Scalar);

    ::setenv("BPSIM_SIMD", "neon", 1);
    EXPECT_EQ(resolveSimdLevel(true), detected == SimdLevel::Neon
                                          ? SimdLevel::Neon
                                          : SimdLevel::Scalar);
}

TEST_F(SimdTest, UnknownEnvValueIsIgnored)
{
    ::setenv("BPSIM_SIMD", "quantum", 1);
    EXPECT_EQ(resolveSimdLevel(true), detectSimdLevel());
    EXPECT_EQ(resolveSimdLevel(false), SimdLevel::Off);
}

TEST_F(SimdTest, LevelNamesAndWidthsAreConsistent)
{
    EXPECT_STREQ(simdLevelName(SimdLevel::Off), "off");
    EXPECT_STREQ(simdLevelName(SimdLevel::Scalar), "scalar");
    EXPECT_STREQ(simdLevelName(SimdLevel::Avx2), "avx2");
    EXPECT_STREQ(simdLevelName(SimdLevel::Neon), "neon");
    EXPECT_EQ(simdWidth(SimdLevel::Off), 1u);
    EXPECT_EQ(simdWidth(SimdLevel::Scalar), 1u);
    EXPECT_EQ(simdWidth(SimdLevel::Avx2), 8u);
    EXPECT_EQ(simdWidth(SimdLevel::Neon), 4u);
}

TEST_F(SimdTest, BitIdenticalAcrossDispatchAtAnyThreadCount)
{
    const MatrixResult &ref = reference();
    EXPECT_EQ(ref.dispatch, "off");
    EXPECT_EQ(ref.simdCells, 0u);

    for (const unsigned threads : {1u, 2u, 4u}) {
        for (const bool fused : {false, true}) {
            const MatrixResult got =
                runMatrix(matrixOptions(threads, fused, true));
            expectSameMatrix(got, ref);
            EXPECT_EQ(got.dispatch,
                      simdLevelName(detectSimdLevel()))
                << threads << " threads, fused=" << fused;
            // Fused passes batch every shape (plain, profiling and
            // hinted sims, via the shared site index); the per-cell
            // path batches only the plain dynamic cells — hinted
            // and profiling runs keep the record-at-a-time kernels
            // there, so exactly the scheme-none half batches.
            EXPECT_EQ(got.simdCells,
                      fused ? got.kernelCells : got.kernelCells / 2)
                << threads << " threads, fused=" << fused;
        }
    }
}

/**
 * The tagged family and agree against the record-at-a-time reference
 * (SIMD off, one thread, per cell): tage and perceptron through their
 * batch kernels, agree through its devirtualized kernel, over plain
 * programs and an SMT scenario (per-context stats and the
 * victim x aggressor alias matrix included), with static hints under
 * all three shift policies. Separate cell set so the kernelCells/2
 * arithmetic in the batched-kind tests above is untouched.
 */
struct TaggedCell
{
    std::string predictor;
    bool scenario = false;
    StaticScheme scheme = StaticScheme::None;
};

std::vector<TaggedCell> taggedCells;

MatrixResult
runTaggedMatrix(const RunnerOptions &options)
{
    ExperimentRunner runner(options);
    taggedCells.clear();
    std::vector<std::pair<std::size_t, bool>> workloads;
    for (const auto id : {SpecProgram::Go, SpecProgram::Compress}) {
        workloads.emplace_back(
            runner.addProgram(makeSpecProgram(id, InputSet::Ref)), false);
    }
    std::vector<SyntheticProgram> members;
    members.push_back(makeSpecProgram(SpecProgram::Go, InputSet::Ref));
    members.push_back(
        makeSpecProgram(SpecProgram::Compress, InputSet::Ref));
    ScenarioSpec smt;
    smt.kind = ScenarioKind::Smt;
    workloads.emplace_back(
        runner.addWorkload(
            std::make_unique<ScenarioWorkload>(smt, std::move(members))),
        true);

    for (const auto &[workload, scenario] : workloads) {
        for (const char *predictor : {"tage", "perceptron", "agree"}) {
            for (const auto scheme :
                 {StaticScheme::None, StaticScheme::Static95,
                  StaticScheme::StaticAcc}) {
                for (const auto shift :
                     {ShiftPolicy::NoShift, ShiftPolicy::ShiftOutcome,
                      ShiftPolicy::ShiftPrediction}) {
                    // Without hints the policy has nothing to act on.
                    if (scheme == StaticScheme::None &&
                        shift != ShiftPolicy::NoShift)
                        continue;
                    ExperimentConfig config;
                    config.predictor = predictor;
                    config.sizeBytes = 2048;
                    config.scheme = scheme;
                    config.shift = shift;
                    config.profileBranches = testProfileBranches / 2;
                    config.evalBranches = testEvalBranches / 2;
                    if (scenario)
                        config.scenarioContexts = 2;
                    runner.addCell(workload, config);
                    taggedCells.push_back({predictor, scenario, scheme});
                }
            }
        }
    }
    return runner.run();
}

void
expectSameAttribution(const MatrixResult &got, const MatrixResult &ref)
{
    ASSERT_EQ(got.cells.size(), ref.cells.size());
    for (std::size_t i = 0; i < got.cells.size(); ++i) {
        const ExperimentResult &a = got.cells[i].result;
        const ExperimentResult &b = ref.cells[i].result;
        ASSERT_EQ(a.contextStats.size(), b.contextStats.size())
            << "cell " << i;
        for (std::size_t c = 0; c < a.contextStats.size(); ++c) {
            EXPECT_EQ(a.contextStats[c].branches,
                      b.contextStats[c].branches);
            EXPECT_EQ(a.contextStats[c].instructions,
                      b.contextStats[c].instructions);
            EXPECT_EQ(a.contextStats[c].mispredictions,
                      b.contextStats[c].mispredictions)
                << "cell " << i << " context " << c;
            EXPECT_EQ(a.contextStats[c].staticPredicted,
                      b.contextStats[c].staticPredicted);
            EXPECT_EQ(a.contextStats[c].collisions,
                      b.contextStats[c].collisions)
                << "cell " << i << " context " << c;
        }
        ASSERT_EQ(a.aliasMatrix.size(), b.aliasMatrix.size())
            << "cell " << i;
        for (std::size_t k = 0; k < a.aliasMatrix.size(); ++k) {
            EXPECT_EQ(a.aliasMatrix[k].collisions,
                      b.aliasMatrix[k].collisions)
                << "cell " << i << " pair " << k;
            EXPECT_EQ(a.aliasMatrix[k].constructive,
                      b.aliasMatrix[k].constructive)
                << "cell " << i << " pair " << k;
            EXPECT_EQ(a.aliasMatrix[k].destructive,
                      b.aliasMatrix[k].destructive)
                << "cell " << i << " pair " << k;
        }
    }
}

TEST_F(SimdTest, TaggedFamilyBatchesBitIdenticallyToReference)
{
    const MatrixResult ref =
        runTaggedMatrix(matrixOptions(1, false, false));
    EXPECT_EQ(ref.simdCells, 0u);
    EXPECT_EQ(ref.kernelCells, ref.cells.size());
    for (std::size_t i = 0; i < ref.cells.size(); ++i) {
        ASSERT_TRUE(ref.cells[i].ok()) << "cell " << i;
        // The scenario cells carry a non-trivial alias matrix.
        EXPECT_EQ(ref.cells[i].result.aliasMatrix.empty(),
                  !taggedCells[i].scenario);
    }

    // Fused passes batch every tage and perceptron cell, scenario
    // cells included; per-cell runs batch only the plain dynamic
    // (scheme-none, non-scenario) ones. Agree has no batch kernel.
    std::size_t fused_batched = 0;
    std::size_t per_cell_batched = 0;
    for (const TaggedCell &cell : taggedCells) {
        if (cell.predictor == "agree")
            continue;
        ++fused_batched;
        if (!cell.scenario && cell.scheme == StaticScheme::None)
            ++per_cell_batched;
    }

    for (const unsigned threads : {1u, 2u, 4u}) {
        for (const bool fused : {false, true}) {
            const MatrixResult got = runTaggedMatrix(
                matrixOptions(threads, fused, true));
            expectSameMatrix(got, ref);
            expectSameAttribution(got, ref);
            EXPECT_EQ(got.simdCells,
                      fused ? fused_batched : per_cell_batched)
                << threads << " threads, fused=" << fused;
        }
    }
}

TEST_F(SimdTest, RegistryCapabilityFlagsMatchTheKernelDispatch)
{
    // `bpsim_cli list` prints kernelCapable/batchCapable from the
    // registry; they must say what the dispatch actually does.
    for (const PredictorInfo *info :
         PredictorRegistry::instance().all()) {
        auto predictor = info->make(info->defaultBytes);
        bool batch = false;
        const bool kernel =
            visitPredictor(*predictor, [&](auto &concrete) {
                using P = std::decay_t<decltype(concrete)>;
                batch = static_cast<bool>(
                    batchKernelsFor<P>(SimdLevel::Scalar));
            });
        EXPECT_EQ(kernel, info->kernelCapable) << info->name;
        EXPECT_EQ(batch, info->batchCapable) << info->name;
    }
}

TEST_F(SimdTest, EnvOffForcesTheReferencePathDespiteTheFlag)
{
    ::setenv("BPSIM_SIMD", "off", 1);
    const MatrixResult got = runMatrix(matrixOptions(2, true, true));
    expectSameMatrix(got, reference());
    EXPECT_EQ(got.dispatch, "off");
    EXPECT_EQ(got.simdCells, 0u);
}

TEST_F(SimdTest, EnvScalarForcesThePortableBatchKernels)
{
    ::setenv("BPSIM_SIMD", "scalar", 1);
    const MatrixResult got = runMatrix(matrixOptions(2, true, true));
    expectSameMatrix(got, reference());
    EXPECT_EQ(got.dispatch, "scalar");
    EXPECT_EQ(got.simdLanes, 1u);
    EXPECT_EQ(got.simdCells, got.kernelCells);
}

TEST_F(SimdTest, PerCellConfigNarrowsTheRunnerDefault)
{
    ExperimentRunner runner(matrixOptions(1, false, true));
    const std::size_t program = runner.addProgram(
        makeSpecProgram(SpecProgram::Go, InputSet::Ref));
    ExperimentConfig batched =
        testConfig(PredictorKind::Gshare, StaticScheme::None);
    ExperimentConfig narrowed = batched;
    narrowed.simd = false;
    runner.addCell(program, batched, "go/batched");
    runner.addCell(program, narrowed, "go/narrowed");
    const MatrixResult got = runner.run();

    ASSERT_EQ(got.cells.size(), 2u);
    ASSERT_TRUE(got.cells[0].ok());
    ASSERT_TRUE(got.cells[1].ok());
    EXPECT_TRUE(got.cells[0].usedSimd);
    EXPECT_FALSE(got.cells[1].usedSimd);
    EXPECT_EQ(got.cells[0].usedKernel, got.cells[1].usedKernel);
    expectSameStats(got.cells[0].result.stats,
                    got.cells[1].result.stats);
}

TEST_F(SimdTest, CheckpointRoundTripsAcrossDispatchLevels)
{
    const std::string path =
        ::testing::TempDir() + "simd_checkpoint.jsonl";
    std::remove(path.c_str());

    RunnerOptions first = matrixOptions(2, true, true);
    first.checkpointPath = path;
    const MatrixResult executed = runMatrix(first);
    for (const CellResult &cell : executed.cells)
        ASSERT_TRUE(cell.ok());

    // Resume under the opposite dispatch level: the fingerprint
    // ignores the simd flag, so every cell restores, and the
    // persisted path flags survive verbatim.
    RunnerOptions second = matrixOptions(1, false, false);
    second.checkpointPath = path;
    second.resume = true;
    const MatrixResult restored = runMatrix(second);

    EXPECT_EQ(restored.restoredCells, restored.cells.size());
    expectSameMatrix(restored, reference());
    EXPECT_EQ(restored.simdCells, executed.simdCells);
    for (std::size_t i = 0; i < restored.cells.size(); ++i) {
        EXPECT_TRUE(restored.cells[i].restored) << "cell " << i;
        EXPECT_EQ(restored.cells[i].usedSimd,
                  executed.cells[i].usedSimd)
            << "cell " << i;
    }
    std::remove(path.c_str());
}

TEST_F(SimdTest, FaultUnderBatchDispatchKillsOnlyTheTargetedCell)
{
    const MatrixResult &ref = reference();
    // go's gshare static_95 cell: a batched gang member in the fused
    // pass. Its death must not perturb its gang-mates' batched state.
    constexpr const char *target = "go/gshare:2048/static_95";
    constexpr std::size_t target_index = 3;
    FaultInjector::instance().arm(fault_points::cell, 1,
                                  ErrorCode::CellFailed, 1, target);
    const MatrixResult got = runMatrix(matrixOptions(2, true, true));

    EXPECT_EQ(got.failedCells, 1u);
    ASSERT_FALSE(got.cells[target_index].ok());
    EXPECT_EQ(got.cells[target_index].error->code(),
              ErrorCode::CellFailed);
    for (std::size_t i = 0; i < got.cells.size(); ++i) {
        if (i == target_index)
            continue;
        ASSERT_TRUE(got.cells[i].ok()) << "cell " << i;
        expectSameStats(got.cells[i].result.stats,
                        ref.cells[i].result.stats);
        EXPECT_EQ(got.cells[i].result.hintCount,
                  ref.cells[i].result.hintCount);
    }
}

TEST_F(SimdTest, JournalRecordsDispatchAndSimdCells)
{
    obs::RunJournal journal("simd journal");
    RunnerOptions options = matrixOptions(2, true, true);
    options.journal = &journal;
    const MatrixResult got = runMatrix(options);
    expectSameMatrix(got, reference());

    const obs::JournalSummary summary = journal.summary();
    EXPECT_EQ(summary.dispatch, got.dispatch);
    EXPECT_EQ(summary.simdWidth, got.simdLanes);
    EXPECT_EQ(summary.simdCells, got.simdCells);
    EXPECT_EQ(summary.kernelCells, got.kernelCells);
}

} // namespace
} // namespace bpsim
