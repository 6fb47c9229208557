/**
 * @file
 * Hashed perceptron predictor (Jiménez & Lin's perceptron with
 * Tarjan & Skadron's hashed-weight organization).
 *
 * Eight weight tables, each indexed by a hash of the branch address
 * and a different-length slice of the global history (0..64 bits;
 * length 0 is the bias table). The prediction is the sign of the sum
 * of the selected weights; training adjusts every selected weight by
 * +/-1 toward the outcome when the prediction was wrong or the sum's
 * magnitude was below the training threshold.
 *
 * Weights live in 8-bit CounterTables using a biased representation
 * (stored value - 128 = signed weight), so the existing
 * structure-of-arrays storage and §5 collision instrumentation apply
 * unchanged: a tag mismatch on a weight lookup is exactly the
 * cross-branch weight sharing whose constructive/destructive split
 * the experiment reports.
 */

#ifndef BPSIM_PREDICTOR_PERCEPTRON_HH
#define BPSIM_PREDICTOR_PERCEPTRON_HH

#include <array>
#include <cstddef>
#include <cstdint>
#include <vector>

#include "predictor/counter_table.hh"
#include "predictor/long_history.hh"
#include "predictor/predictor.hh"
#include "support/bits.hh"

namespace bpsim
{

/**
 * Hashed perceptron. The inline *Step methods are the non-virtual
 * per-branch protocol used by the devirtualized replay kernels; the
 * virtual interface forwards to them.
 */
class HashedPerceptron : public BranchPredictor
{
  public:
    /** Weight tables (one history-slice feature each). */
    static constexpr unsigned numTables = 8;

    /** History bits feeding each table's index hash. */
    static constexpr std::array<BitCount, numTables> featureBits = {
        0, 2, 4, 8, 16, 32, 48, 64};

    /** Stored weight value representing zero (bias encoding). */
    static constexpr int weightBias = 128;

    /** @param size_bytes hardware budget (one byte per weight). */
    explicit HashedPerceptron(std::size_t size_bytes);

    bool predict(Addr pc) override;
    void update(Addr pc, bool taken) override;
    void updateHistory(bool taken) override;
    void reset() override;
    std::size_t sizeBytes() const override;
    std::string name() const override { return "perceptron"; }
    CollisionStats collisionStats() const override;
    void clearCollisionStats() override;
    Count lastPredictCollisions() const override;

    void
    attachAliasSink(ContextAliasSink *sink) override
    {
        for (CounterTable &table : tables)
            table.setAliasSink(sink);
    }

    /**
     * Global history plus each table's fold of its history slice,
     * advanced together one outcome at a time (folded-history CSRs,
     * see long_history.hh, so an index costs no per-lookup fold). The
     * batch kernels evolve a copy of it as their history shadow.
     */
    class HistoryFolds
    {
      public:
        /** @param index_bits the tables' (shared) index width. */
        explicit HistoryFolds(BitCount index_bits);

        /** Shift in one outcome and advance every slice fold. */
        BPSIM_ALWAYS_INLINE void
        push(bool taken)
        {
            // Table t's window loses the outcome featureBits[t] - 1
            // branches back (the bias table's lane is never
            // configured, so its out bit is ignored).
            std::array<std::uint64_t, numTables> out_bits;
#pragma GCC unroll 8
            for (unsigned t = 0; t < numTables; ++t) {
                const unsigned oldest =
                    featureBits[t] == 0 ? 0 : featureBits[t] - 1;
                out_bits[t] = (history >> oldest) & 1;
            }
            history = (history << 1) | (taken ? 1 : 0);
            folds.update(taken, out_bits);
        }

        /** Table @p t's history-slice fold (0 for the bias table). */
        std::uint64_t fold(unsigned t) const { return folds.value(t); }

        /** The raw 64-outcome global history register. */
        std::uint64_t value() const { return history; }

        void
        clear()
        {
            history = 0;
            folds.clear();
        }

      private:
        std::uint64_t history = 0;
        FoldedHistoryBank<numTables> folds;
    };

    /** Table indices of one lookup, latched from predict to update. */
    using Indices = std::array<std::size_t, numTables>;

    /** Non-virtual predict(): sign of the selected-weight sum. */
    template <bool Track>
    bool
    predictStep(Addr pc)
    {
        indicesFor(foldBits(pc / instructionBytes, indexBits), folds,
                   last.idx);
        int sum = 0;
        for (unsigned t = 0; t < numTables; ++t) {
            sum += static_cast<int>(
                       tables[t].lookup<Track>(last.idx[t], pc).value()) -
                   weightBias;
        }
        last.sum = sum;
        last.finalPred = sum >= 0;
        return last.finalPred;
    }

    /**
     * Table indices for a branch whose PC index folds to @p pc_fold
     * (at the tables' index width) under history @p history: the PC
     * fold, the table's history-slice fold and the table's salt,
     * XORed and masked.
     */
    void
    indicesFor(std::uint64_t pc_fold, const HistoryFolds &history,
               Indices &out) const
    {
#pragma GCC unroll 8
        for (unsigned t = 0; t < numTables; ++t)
            out[t] = (pc_fold ^ history.fold(t) ^ salts[t]) & indexMask;
    }

    /** Non-virtual update(): perceptron training rule. */
    template <bool Track>
    void
    updateStep(Addr pc, bool taken)
    {
        (void)pc;
        const bool correct = last.finalPred == taken;

        if constexpr (Track) {
            for (CounterTable &table : tables)
                table.classify(correct);
        }

        const int magnitude = last.sum < 0 ? -last.sum : last.sum;
        if (!correct || magnitude <= trainingThreshold) {
            for (unsigned t = 0; t < numTables; ++t)
                tables[t].entry(last.idx[t]).train(taken);
        }
    }

    /** Non-virtual updateHistory(). */
    void historyStep(bool taken) { folds.push(taken); }

    /** Non-virtual lastPredictCollisions(). */
    Count
    pendingStep() const
    {
        Count pending = 0;
        for (const CounterTable &table : tables)
            pending += table.pending();
        return pending;
    }

    /**
     * @name Introspection for the property tests
     */
    ///@{
    /** Entries per weight table. */
    std::size_t tableEntries() const { return tables[0].entries(); }

    /** Training threshold theta. */
    int threshold() const { return trainingThreshold; }

    /** Weight sum latched by the last predict. */
    int lastSum() const { return last.sum; }

    /** Signed weight of table @p t, entry @p idx. */
    int weightAt(unsigned t, std::size_t idx) const;

    /** Index into table @p t latched by the last predict. */
    std::size_t lastIndex(unsigned t) const { return last.idx[t]; }

    /** The global history register (LSB = most recent outcome). */
    std::uint64_t historyValue() const { return folds.value(); }
    ///@}

  private:
    template <typename> friend struct BatchTraits;

    std::vector<CounterTable> tables;
    BitCount indexBits;
    std::size_t indexMask;
    HistoryFolds folds;
    int trainingThreshold;

    // Per-table index salt: mix64 of the table number decorrelates
    // tables that share a history slice width with their neighbors
    // (table 0 keeps the plain PC index so the bias table is a true
    // per-branch bias).
    std::array<std::uint64_t, numTables> salts{};

    // Lookup state latched by predict() for update().
    struct LookupState
    {
        Indices idx{};
        int sum = 0;
        bool finalPred = false;
    } last;
};

} // namespace bpsim

#endif // BPSIM_PREDICTOR_PERCEPTRON_HH
