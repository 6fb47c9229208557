/**
 * @file
 * TAGE-style tagged-geometric predictor (Seznec & Michaud's PPM-like
 * layout; exemplar constants per SNIPPETS.md §3).
 *
 * A bimodal base table backs four partially tagged banks indexed by
 * geometrically growing history lengths (10/20/40/80). Each bank
 * entry carries a 3-bit prediction counter, an 8-bit tag and a 2-bit
 * useful counter. The prediction provider is the longest-history bank
 * whose tag matches, falling back to the base; the alternate
 * prediction is the next-longest match. On a misprediction a new
 * entry is allocated in a longer bank whose useful counter is zero
 * (decaying the useful counters of the candidates when none is free),
 * and useful counters age periodically so stale entries can be
 * reclaimed — the tag+useful mechanism is TAGE's own answer to the
 * destructive aliasing this paper attacks with static hints, which is
 * exactly why the scheme matrix gets re-run over it.
 */

#ifndef BPSIM_PREDICTOR_TAGE_HH
#define BPSIM_PREDICTOR_TAGE_HH

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
 * Tagged-geometric predictor. The inline *Step methods are the
 * non-virtual per-branch protocol used by the devirtualized replay
 * kernels; the virtual interface forwards to them.
 */
class Tage : public BranchPredictor
{
  public:
    /** Tagged banks backing the bimodal base. */
    static constexpr unsigned numBanks = 4;

    /** Geometric history lengths, shortest bank first. */
    static constexpr std::array<BitCount, numBanks> historyLengths = {
        10, 20, 40, 80};

    /** Tag width per bank entry. */
    static constexpr BitCount tagBits = 8;

    /** Prediction counter widths (SNIPPETS.md §3: PRED_MAX 7). */
    static constexpr BitCount predBits = 3;

    /** Useful-counter width (saturates at 3). */
    static constexpr std::uint8_t usefulMax = 3;

    /**
     * @param size_bytes hardware budget, split evenly between the
     *                   base table and the tagged banks
     * @param age_period updates between useful-counter aging passes
     *                   (halving); tests shrink it to make aging
     *                   observable
     */
    explicit Tage(std::size_t size_bytes,
                  Count age_period = Count{1} << 18);

    bool predict(Addr pc) override;
    void update(Addr pc, bool taken) override;
    void updateHistory(bool taken) override;
    void reset() override;
    std::size_t sizeBytes() const override;
    std::string name() const override { return "tage"; }
    CollisionStats collisionStats() const override;
    void clearCollisionStats() override;
    Count lastPredictCollisions() const override;

    void
    attachAliasSink(ContextAliasSink *sink) override
    {
        base.setAliasSink(sink);
        for (Bank &bank : banks)
            bank.pred.setAliasSink(sink);
    }

    /**
     * The long history plus every bank's folded images of it (index
     * and the two tag folds), advanced together one outcome at a
     * time. The batch kernels evolve a copy of it as their history
     * shadow.
     */
    struct HistoryFolds
    {
        /** @param index_bits the banks' (shared) index width. */
        explicit HistoryFolds(BitCount index_bits);

        /** Fold lanes: bank b's index fold is lane b, its two tag
         * folds lanes numBanks + b and 2 * numBanks + b. */
        static constexpr std::size_t lanes = 3 * numBanks;

        /** Shift in one outcome and advance every fold. */
        BPSIM_ALWAYS_INLINE void
        push(bool taken)
        {
            // The register is historyLengths.back() long, so every
            // bank's oldest bit is in range.
            std::array<std::uint64_t, lanes> out_bits;
#pragma GCC unroll 4
            for (unsigned b = 0; b < numBanks; ++b) {
                const std::uint64_t out =
                    history.bitAt(historyLengths[b] - 1) ? 1 : 0;
                out_bits[b] = out;
                out_bits[numBanks + b] = out;
                out_bits[2 * numBanks + b] = out;
            }
            history.push(taken);
            folds.update(taken, out_bits);
        }

        std::uint64_t idx(unsigned b) const { return folds.value(b); }
        std::uint64_t
        tag1(unsigned b) const
        {
            return folds.value(numBanks + b);
        }
        std::uint64_t
        tag2(unsigned b) const
        {
            return folds.value(2 * numBanks + b);
        }

        void
        clear()
        {
            history.clear();
            folds.clear();
        }

        LongHistory history{historyLengths.back()};
        FoldedHistoryBank<lanes> folds;
    };

    /** Table coordinates of one lookup: the base index and each
     * bank's index and tag. */
    struct Coords
    {
        std::size_t baseIdx = 0;
        std::array<std::size_t, numBanks> idx{};
        std::array<std::uint8_t, numBanks> tag{};
    };

    /** Non-virtual predict(); see class comment. */
    template <bool Track>
    bool
    predictStep(Addr pc)
    {
        const std::uint64_t pc_index = pc / instructionBytes;
        coordsFor(pc_index & base.indexMask(),
                  foldBits(pc_index, bankIndexBits),
                  foldBits(pc_index, tagBits), folds, last.at);
        last.basePred = base.lookup<Track>(last.at.baseIdx, pc).taken();

        last.provider = -1;
        last.altPred = last.basePred;
        for (unsigned b = 0; b < numBanks; ++b) {
            Bank &bank = banks[b];
            const std::size_t idx = last.at.idx[b];
            last.hit[b] = bank.tags[idx] == last.at.tag[b];
            last.pred[b] = bank.pred.lookup<Track>(idx, pc).taken();
        }
        for (int b = numBanks - 1; b >= 0; --b) {
            if (last.hit[b]) {
                last.provider = b;
                break;
            }
        }
        if (last.provider >= 0) {
            for (int b = last.provider - 1; b >= 0; --b) {
                if (last.hit[b]) {
                    last.altPred = last.pred[b];
                    break;
                }
            }
            last.finalPred = last.pred[last.provider];
        } else {
            last.finalPred = last.basePred;
        }
        return last.finalPred;
    }

    /**
     * Coordinates of a branch under history @p history, given its
     * PC-derived parts: @p base_idx (masked PC index) and the PC
     * index folded to the bank index width (@p pc_idx_fold) and to
     * the tag width (@p pc_tag_fold).
     */
    void
    coordsFor(std::size_t base_idx, std::uint64_t pc_idx_fold,
              std::uint64_t pc_tag_fold, const HistoryFolds &history,
              Coords &out) const
    {
        out.baseIdx = base_idx;
#pragma GCC unroll 4
        for (unsigned b = 0; b < numBanks; ++b) {
            out.idx[b] = (pc_idx_fold ^ history.idx(b)) & bankIndexMask;
            out.tag[b] = static_cast<std::uint8_t>(
                (pc_tag_fold ^ history.tag1(b) ^ (history.tag2(b) << 1)) &
                mask(tagBits));
        }
    }

    /** Non-virtual update(): provider training, useful-bit update,
     * allocation-on-misprediction, periodic aging. */
    template <bool Track>
    void
    updateStep(Addr pc, bool taken)
    {
        (void)pc;
        const bool correct = last.finalPred == taken;

        if constexpr (Track) {
            base.classify(correct);
            for (Bank &bank : banks)
                bank.pred.classify(correct);
        }

        if (last.provider >= 0) {
            Bank &provider = banks[last.provider];
            const std::size_t idx = last.at.idx[last.provider];

            // The useful counter tracks "provider beat the alternate":
            // it only moves when they disagreed, toward whichever was
            // right.
            if (last.pred[last.provider] != last.altPred) {
                std::uint8_t &useful = provider.useful[idx];
                if (last.pred[last.provider] == taken)
                    useful += useful < usefulMax ? 1 : 0;
                else
                    useful -= useful > 0 ? 1 : 0;
            }
            provider.pred.entry(idx).train(taken);
        } else {
            base.entry(last.at.baseIdx).train(taken);
        }

        // Allocate a longer-history entry on a misprediction (the
        // only time allocation happens — pinned by test_tagged.cc).
        if (!correct && last.provider < static_cast<int>(numBanks) - 1)
            allocate(last.provider, last.at, taken);

        countUpdate();
    }

    /** Non-virtual updateHistory(): shift the long history and
     * advance every folded image of it. */
    void historyStep(bool taken) { folds.push(taken); }

    /** Non-virtual lastPredictCollisions(). */
    Count
    pendingStep() const
    {
        Count pending = base.pending();
        for (const Bank &bank : banks)
            pending += bank.pred.pending();
        return pending;
    }

    /**
     * @name Introspection for the property tests
     */
    ///@{
    /** Base-table entries. */
    std::size_t baseEntries() const { return base.entries(); }

    /** Entries in tagged bank @p b. */
    std::size_t bankEntries(unsigned b) const;

    /** History length of bank @p b. */
    BitCount bankHistoryBits(unsigned b) const;

    /** Provider bank of the last predict (-1 = bimodal base). */
    int lastProvider() const { return last.provider; }

    /** Index/tag/hit latched for bank @p b by the last predict. */
    std::size_t lastBankIndex(unsigned b) const;
    std::uint8_t lastBankTag(unsigned b) const;
    bool lastBankHit(unsigned b) const;

    /** Stored tag / useful counter of bank @p b, entry @p idx. */
    std::uint8_t tagAt(unsigned b, std::size_t idx) const;
    std::uint8_t usefulAt(unsigned b, std::size_t idx) const;

    /** Entries allocated / aging passes run so far. */
    Count allocationCount() const { return allocations; }
    Count agingPasses() const { return agingEvents; }

    /** The incremental index fold of bank @p b (round-trip tests
     * compare it against FoldedHistory::recompute). */
    FoldedHistory bankIndexFold(unsigned b) const;

    /** The long history register (for fold round-trip tests). */
    const LongHistory &longHistory() const { return folds.history; }
    ///@}

  private:
    template <typename> friend struct BatchTraits;

    struct Bank
    {
        CounterTable pred;
        std::vector<std::uint8_t> tags;
        std::vector<std::uint8_t> useful;

        Bank(std::size_t entries, std::uint8_t initial)
            : pred(entries, predBits, initial), tags(entries, 0),
              useful(entries, 0)
        {
        }
    };

    /** Steal an entry in a bank longer than @p provider at the
     * coordinates @p at: the first candidate with a zero useful
     * counter gets it (initialized to the weak counter of the
     * outcome); when every candidate is protected, their useful
     * counters decay instead. */
    void allocate(int provider, const Coords &at, bool taken);

    /** Count one update; every agePeriod updates, age the useful
     * counters. */
    void
    countUpdate()
    {
        if (++updatesSinceAging >= agePeriod)
            ageUseful();
    }

    /** Halve every useful counter (periodic aging). */
    void ageUseful();

    CounterTable base;
    std::vector<Bank> banks;
    BitCount bankIndexBits;
    std::size_t bankIndexMask;
    HistoryFolds folds;

    Count agePeriod;
    Count updatesSinceAging = 0;
    Count allocations = 0;
    Count agingEvents = 0;

    // Lookup state latched by predict() for update().
    struct LookupState
    {
        Coords at;
        std::array<bool, numBanks> hit{};
        std::array<bool, numBanks> pred{};
        bool basePred = false;
        bool altPred = false;
        bool finalPred = false;
        int provider = -1;
    } last;
};

} // namespace bpsim

#endif // BPSIM_PREDICTOR_TAGE_HH
