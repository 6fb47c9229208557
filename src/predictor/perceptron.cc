#include "predictor/perceptron.hh"

#include <algorithm>

#include "predictor/registry.hh"

namespace bpsim
{

namespace
{

/** Largest power of two <= @p value (min 2 so index widths stay >= 1). */
std::size_t
floorPow2Entries(std::size_t value)
{
    if (value < 2)
        return 2;
    return std::size_t{1} << floorLog2(value);
}

} // namespace

HashedPerceptron::HistoryFolds::HistoryFolds(BitCount index_bits)
{
    for (unsigned t = 1; t < numTables; ++t) {
        folds.configure(t, featureBits[t],
                        std::min<BitCount>(index_bits, featureBits[t]));
    }
}

HashedPerceptron::HashedPerceptron(std::size_t size_bytes)
    : indexBits(floorLog2(floorPow2Entries(size_bytes / numTables))),
      indexMask(mask(indexBits)), folds(indexBits),
      // Jiménez's fitted threshold, with the table count standing in
      // for the history length a monolithic perceptron would use.
      trainingThreshold(2 * static_cast<int>(numTables) + 6)
{
    bpsim_assert(size_bytes >= 16, "perceptron budget too small");
    tables.reserve(numTables);
    for (unsigned t = 0; t < numTables; ++t) {
        tables.emplace_back(std::size_t{1} << indexBits, BitCount{8},
                            static_cast<std::uint8_t>(weightBias));
        if (t > 0)
            salts[t] = foldBits(mix64(t), indexBits);
    }
}

bool
HashedPerceptron::predict(Addr pc)
{
    return predictStep<true>(pc);
}

void
HashedPerceptron::update(Addr pc, bool taken)
{
    updateStep<true>(pc, taken);
}

void
HashedPerceptron::updateHistory(bool taken)
{
    historyStep(taken);
}

void
HashedPerceptron::reset()
{
    for (CounterTable &table : tables)
        table.reset();
    folds.clear();
    last = LookupState{};
}

std::size_t
HashedPerceptron::sizeBytes() const
{
    std::size_t bytes = 0;
    for (const CounterTable &table : tables)
        bytes += table.sizeBytes();
    return bytes;
}

CollisionStats
HashedPerceptron::collisionStats() const
{
    CollisionStats stats;
    for (const CounterTable &table : tables)
        stats += table.stats();
    return stats;
}

void
HashedPerceptron::clearCollisionStats()
{
    for (CounterTable &table : tables)
        table.clearStats();
}

Count
HashedPerceptron::lastPredictCollisions() const
{
    return pendingStep();
}

int
HashedPerceptron::weightAt(unsigned t, std::size_t idx) const
{
    bpsim_assert(t < numTables, "table out of range");
    return static_cast<int>(tables[t].at(idx).value()) - weightBias;
}

BPSIM_REGISTER_PREDICTOR(
    perceptron,
    PredictorInfo{
        .name = "perceptron",
        .description = "hashed perceptron: 8 weight tables over "
                       "history slices 0..64, threshold training",
        .make =
            [](std::size_t bytes) {
                return std::make_unique<HashedPerceptron>(bytes);
            },
        .paperKind = false,
        .kernelCapable = true,
        .batchCapable = true,
    })

} // namespace bpsim
