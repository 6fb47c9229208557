#include "predictor/agree.hh"

#include "predictor/registry.hh"
#include "predictor/table_size.hh"

namespace bpsim
{

Agree::Agree(std::size_t size_bytes, BitCount counter_bits)
    : table(entriesForBudget(size_bytes, counter_bits), counter_bits,
            // Power-on state: strongly "agree".
            static_cast<std::uint8_t>((1u << counter_bits) - 1)),
      history(table.indexBits())
{
}

bool
Agree::predict(Addr pc)
{
    return predictStep<true>(pc);
}

void
Agree::update(Addr pc, bool taken)
{
    updateStep<true>(pc, taken);
}

void
Agree::updateHistory(bool taken)
{
    historyStep(taken);
}

void
Agree::reset()
{
    table.reset();
    history.clear();
    biasBits.clear();
}

std::size_t
Agree::sizeBytes() const
{
    return table.sizeBytes();
}

CollisionStats
Agree::collisionStats() const
{
    return table.stats();
}

void
Agree::clearCollisionStats()
{
    table.clearStats();
}

Count
Agree::lastPredictCollisions() const
{
    return pendingStep();
}

BPSIM_REGISTER_PREDICTOR(
    agree,
    PredictorInfo{
        .name = "agree",
        .description = "agree predictor over a gshare table (extension)",
        .make =
            [](std::size_t bytes) {
                return std::make_unique<Agree>(bytes);
            },
        .paperKind = false,
        .kernelCapable = true,
    })

} // namespace bpsim
