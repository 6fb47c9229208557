/**
 * @file
 * Property tests for the tagged-geometric predictor family: TAGE's
 * allocation/useful-bit/provider mechanics, the folded-history (CSR)
 * invariant, the hashed perceptron's threshold-gated training and
 * weight saturation bounds, and checkpoint fingerprints for
 * registry-constructed predictors.
 *
 * Streams are generated from a fixed-seed xorshift so every property
 * is checked over a deterministic but adversarial outcome sequence.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <string>

#include "core/checkpoint.hh"
#include "core/runner.hh"
#include "predictor/context_alias.hh"
#include "predictor/long_history.hh"
#include "predictor/perceptron.hh"
#include "predictor/tage.hh"
#include "workload/specint.hh"
#include "workload/synthetic_program.hh"

namespace bpsim
{
namespace
{

/** Deterministic stream source (xorshift64). */
class Stream
{
  public:
    explicit Stream(std::uint64_t seed) : state(seed) {}

    std::uint64_t
    next()
    {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        return state;
    }

    bool bit() { return (next() & 1) != 0; }

    /** A plausible branch pc from a small pool of sites. */
    Addr
    pc()
    {
        return 0x4000 + (next() % 97) * instructionBytes;
    }

  private:
    std::uint64_t state;
};

/**
 * One protocol step: predict, update with the stream outcome, push
 * history. Returns whether the prediction was correct.
 */
template <typename P>
bool
step(P &predictor, Addr pc, bool taken)
{
    const bool predicted = predictor.predict(pc);
    predictor.update(pc, taken);
    predictor.updateHistory(taken);
    return predicted == taken;
}

TEST(FoldedHistoryTest, IncrementalFoldMatchesRecompute)
{
    // Window/fold widths covering every shape TAGE instantiates:
    // dividing, non-dividing, fold == window, single-bit folds.
    const struct
    {
        BitCount window, fold;
    } shapes[] = {{10, 7}, {20, 8}, {40, 11}, {80, 11},
                  {80, 8},  {64, 8}, {10, 10}, {7, 1}};

    for (const auto &shape : shapes) {
        LongHistory history(128);
        FoldedHistory fold(shape.window, shape.fold);
        Stream stream(0xf01dedu + shape.window * 131 + shape.fold);
        for (int i = 0; i < 4096; ++i) {
            const bool in = stream.bit();
            const bool out = history.bit(shape.window - 1);
            history.push(in);
            fold.update(in, out);
            ASSERT_EQ(fold.value(), fold.recompute(history))
                << "window=" << shape.window
                << " fold=" << shape.fold << " step=" << i;
        }
    }
}

TEST(TageTest, FoldsTrackTheLongHistoryThroughTheProtocol)
{
    Tage tage(2048);
    Stream stream(0x7a6e);
    for (int i = 0; i < 20'000; ++i)
        step(tage, stream.pc(), stream.bit());

    for (unsigned b = 0; b < Tage::numBanks; ++b) {
        const FoldedHistory &fold = tage.bankIndexFold(b);
        EXPECT_EQ(fold.windowBits(), tage.bankHistoryBits(b));
        EXPECT_EQ(fold.value(), fold.recompute(tage.longHistory()))
            << "bank " << b;
    }
}

TEST(TageTest, AllocatesOnlyOnMisprediction)
{
    Tage tage(2048);
    Stream stream(0xa110c);
    Count last_allocations = 0;
    bool any_allocation = false;
    for (int i = 0; i < 30'000; ++i) {
        const bool correct = step(tage, stream.pc(), stream.bit());
        const Count now = tage.allocationCount();
        if (correct) {
            ASSERT_EQ(now, last_allocations)
                << "allocation on a correct prediction, step " << i;
        }
        ASSERT_LE(now, last_allocations + 1);
        any_allocation = any_allocation || now != last_allocations;
        last_allocations = now;
    }
    EXPECT_TRUE(any_allocation)
        << "random stream never triggered an allocation";
}

TEST(TageTest, ProviderIsTheLongestTagMatch)
{
    Tage tage(2048);
    Stream stream(0x9807);
    bool any_provider = false;
    for (int i = 0; i < 30'000; ++i) {
        const Addr pc = stream.pc();
        tage.predict(pc);

        const int provider = tage.lastProvider();
        for (unsigned b = 0; b < Tage::numBanks; ++b) {
            // Latched hit flags mirror the stored tags...
            ASSERT_EQ(tage.lastBankHit(b),
                      tage.tagAt(b, tage.lastBankIndex(b)) ==
                          tage.lastBankTag(b))
                << "bank " << b << " step " << i;
            // ...and nothing above the provider matched.
            if (provider >= 0 &&
                b > static_cast<unsigned>(provider)) {
                ASSERT_FALSE(tage.lastBankHit(b))
                    << "bank " << b << " outranks provider "
                    << provider << " at step " << i;
            }
        }
        if (provider >= 0) {
            ASSERT_TRUE(tage.lastBankHit(
                static_cast<unsigned>(provider)));
            any_provider = true;
        }

        const bool taken = stream.bit();
        tage.update(pc, taken);
        tage.updateHistory(taken);
    }
    EXPECT_TRUE(any_provider)
        << "no tagged bank ever provided a prediction";
}

/** Sum of every useful counter across every bank, checking the
 * saturation bound as it goes. */
Count
usefulSum(const Tage &tage)
{
    Count sum = 0;
    for (unsigned b = 0; b < Tage::numBanks; ++b) {
        for (std::size_t i = 0; i < tage.bankEntries(b); ++i) {
            EXPECT_LE(tage.usefulAt(b, i), Tage::usefulMax);
            sum += tage.usefulAt(b, i);
        }
    }
    return sum;
}

TEST(TageTest, UsefulCountersSaturateAndAgePeriodically)
{
    // Same stream, aging effectively off vs. every 1024 updates.
    Tage frozen(2048, Count{1} << 40);
    Tage aged(2048, 1024);
    Stream stream_a(0xa9e5), stream_b(0xa9e5);
    for (int i = 0; i < 30'000; ++i) {
        const Addr pc = stream_a.pc();
        const bool taken = stream_a.bit();
        step(frozen, pc, taken);
        step(aged, stream_b.pc(), stream_b.bit());
    }

    EXPECT_EQ(frozen.agingPasses(), 0u);
    EXPECT_GE(aged.agingPasses(), 29u); // 30'000 / 1024
    // The bound holds everywhere; some entry actually reached it.
    std::uint8_t max_useful = 0;
    for (unsigned b = 0; b < Tage::numBanks; ++b)
        for (std::size_t i = 0; i < frozen.bankEntries(b); ++i)
            max_useful = std::max(max_useful, frozen.usefulAt(b, i));
    EXPECT_EQ(max_useful, Tage::usefulMax);
    // Periodic halving keeps the aged copy's counters strictly
    // leaner than the frozen one's over the same stream.
    EXPECT_LT(usefulSum(aged), usefulSum(frozen));
}

TEST(PerceptronTest, IncrementalIndicesMatchTheFromScratchFormula)
{
    // The hoisted salts, the once-per-predict PC fold and the
    // incrementally folded history slices must reproduce the textbook
    // index foldBits(pc) ^ foldBits(history slice) ^ salt, for every
    // table, at index widths below, inside and above the slice
    // lengths, over narrow and wide (context-rebased) PCs.
    for (const std::size_t bytes : {16u, 64u, 512u, 2048u, 65536u}) {
        HashedPerceptron perceptron(bytes);
        const BitCount bits = floorLog2(perceptron.tableEntries());
        Stream stream(0x1d3a + bytes);
        for (int i = 0; i < 20'000; ++i) {
            const Addr pc =
                (i % 3) == 0
                    ? contextPcBase(stream.next() % 4) + (Addr{1} << 32) +
                          (stream.next() % 4096) * instructionBytes
                    : stream.pc();
            const bool taken = stream.bit();
            perceptron.predict(pc);
            const std::uint64_t history = perceptron.historyValue();
            for (unsigned t = 0; t < HashedPerceptron::numTables; ++t) {
                const std::uint64_t slice =
                    history & mask(HashedPerceptron::featureBits[t]);
                const std::uint64_t salt =
                    t == 0 ? 0 : foldBits(mix64(t), bits);
                const std::uint64_t expected =
                    (foldBits(pc / instructionBytes, bits) ^
                     foldBits(slice, bits) ^ salt) &
                    mask(bits);
                ASSERT_EQ(perceptron.lastIndex(t), expected)
                    << bytes << " bytes, table " << t << ", step "
                    << i;
            }
            perceptron.update(pc, taken);
            perceptron.updateHistory(taken);
        }
    }
}

TEST(PerceptronTest, WeightsStayInSaturationBounds)
{
    HashedPerceptron perceptron(512);
    Stream stream(0x3e1);
    for (int i = 0; i < 50'000; ++i)
        step(perceptron, stream.pc(), stream.bit());

    for (unsigned t = 0; t < HashedPerceptron::numTables; ++t) {
        for (std::size_t i = 0; i < perceptron.tableEntries(); ++i) {
            ASSERT_GE(perceptron.weightAt(t, i), -128)
                << "table " << t << " entry " << i;
            ASSERT_LE(perceptron.weightAt(t, i), 127)
                << "table " << t << " entry " << i;
        }
    }
}

TEST(PerceptronTest, TrainingIsThresholdGated)
{
    HashedPerceptron perceptron(2048);
    Stream stream(0x7177);
    int confident_correct = 0;
    for (int i = 0; i < 30'000; ++i) {
        const Addr pc = stream.pc();
        const bool taken = stream.bit();
        const bool predicted = perceptron.predict(pc);
        const int sum_before = perceptron.lastSum();
        perceptron.update(pc, taken);

        // Re-predicting the same pc before any history push reuses
        // the same table indices, so the sum moves iff update()
        // trained the selected weights.
        perceptron.predict(pc);
        const int sum_after = perceptron.lastSum();
        const int magnitude =
            sum_before < 0 ? -sum_before : sum_before;
        if (predicted == taken &&
            magnitude > perceptron.threshold()) {
            ASSERT_EQ(sum_after, sum_before)
                << "trained a confident correct prediction, step "
                << i;
            ++confident_correct;
        } else if (taken) {
            ASSERT_GT(sum_after, sum_before) << "step " << i;
        } else {
            ASSERT_LT(sum_after, sum_before) << "step " << i;
        }

        perceptron.updateHistory(taken);
    }
    EXPECT_GT(confident_correct, 0);
}

ExperimentConfig
taggedConfig(const std::string &predictor, StaticScheme scheme)
{
    ExperimentConfig config;
    config.predictor = predictor;
    config.sizeBytes = 2048;
    config.scheme = scheme;
    config.profileBranches = 30'000;
    config.evalBranches = 60'000;
    return config;
}

TEST(TaggedCheckpointTest, RegistryPredictorsFingerprint)
{
    const SyntheticProgram program =
        makeSpecProgram(SpecProgram::Go, InputSet::Ref);

    const std::string tage_fp = cellFingerprint(
        program, taggedConfig("tage", StaticScheme::Static95));
    const std::string perceptron_fp = cellFingerprint(
        program, taggedConfig("perceptron", StaticScheme::Static95));
    ASSERT_FALSE(tage_fp.empty());
    ASSERT_FALSE(perceptron_fp.empty());
    EXPECT_NE(tage_fp, perceptron_fp);

    // Determinism across calls.
    EXPECT_EQ(cellFingerprint(
                  program,
                  taggedConfig("tage", StaticScheme::Static95)),
              tage_fp);

    // Naming a paper predictor through the registry field yields the
    // same fingerprint as the enum route: identity is centralized.
    ExperimentConfig by_kind;
    by_kind.kind = PredictorKind::Gshare;
    by_kind.sizeBytes = 2048;
    by_kind.scheme = StaticScheme::Static95;
    by_kind.profileBranches = 30'000;
    by_kind.evalBranches = 60'000;
    EXPECT_EQ(cellFingerprint(program, by_kind),
              cellFingerprint(
                  program,
                  taggedConfig("gshare", StaticScheme::Static95)));
}

TEST(TaggedCheckpointTest, ResumeRestoresTaggedFamilyCells)
{
    const std::string path =
        ::testing::TempDir() + "tagged_checkpoint.jsonl";
    std::remove(path.c_str());

    const auto run = [&](bool resume) {
        RunnerOptions options;
        options.threads = 2;
        options.checkpointPath = path;
        options.resume = resume;
        ExperimentRunner runner(options);
        const std::size_t program = runner.addProgram(
            makeSpecProgram(SpecProgram::Go, InputSet::Ref));
        for (const char *predictor : {"tage", "perceptron"}) {
            for (const auto scheme :
                 {StaticScheme::None, StaticScheme::Static95}) {
                runner.addCell(program,
                               taggedConfig(predictor, scheme));
            }
        }
        return runner.run();
    };

    const MatrixResult executed = run(false);
    for (const CellResult &cell : executed.cells)
        ASSERT_TRUE(cell.ok());
    EXPECT_EQ(executed.restoredCells, 0u);

    const MatrixResult restored = run(true);
    ASSERT_EQ(restored.cells.size(), executed.cells.size());
    EXPECT_EQ(restored.restoredCells, restored.cells.size());
    for (std::size_t i = 0; i < restored.cells.size(); ++i) {
        ASSERT_TRUE(restored.cells[i].ok()) << "cell " << i;
        EXPECT_TRUE(restored.cells[i].restored) << "cell " << i;
        EXPECT_EQ(restored.cells[i].result.stats.mispredictions,
                  executed.cells[i].result.stats.mispredictions)
            << "cell " << i;
        EXPECT_EQ(restored.cells[i].result.hintCount,
                  executed.cells[i].result.hintCount)
            << "cell " << i;
    }
    std::remove(path.c_str());
}

} // namespace
} // namespace bpsim
