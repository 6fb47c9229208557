/**
 * @file
 * Batched replay kernel implementation, compiled once per
 * instruction-set target.
 *
 * This header is NOT a normal include: it has no include guard and
 * must be included by exactly one translation unit per target, with
 * BPSIM_BATCH_NS defined to that target's namespace (kernels_scalar,
 * kernels_avx2). Everything except the entry points lives in an
 * anonymous namespace, so the per-target copies cannot collide even
 * though they are compiled with different instruction-set flags.
 *
 * Kernel shape (see core/batch_kernels.hh for the rationale): each
 * segment is walked in batches of batchRecords records, software
 * pipelined one batch deep. While batch b is applied, batch b+1 is
 * already decoded and prepared: the trace columns are read once, each
 * member's table indices are computed — evolving a register-resident
 * shadow of the global history, the one true serial dependence — and
 * the counter/tag lines are prefetched, so their latency overlaps
 * batch b's work. The prepare passes split into a serial loop
 * (history shadow, site-table loads, history folds) and a pure
 * elementwise loop (XOR/shift/mask index math) the compiler can
 * vectorize across records. The apply pass walks the records in
 * order, performing the branchless counter load / predict / train /
 * tag update with the carried indices; its per-record operation
 * sequence is exactly the one the record-at-a-time kernels in
 * core/engine.cc perform, so every SimStats field, collision
 * statistic, profile count and table byte is bit-identical to theirs.
 */

#include "core/batch_kernels.hh"

#include <algorithm>
#include <array>
#include <bit>
#include <cstdint>
#include <vector>

#include "support/bits.hh"
#include "support/sat_counter.hh"
#include "support/skew.hh"

#ifndef BPSIM_BATCH_NS
#error "define BPSIM_BATCH_NS before including batch_kernels_impl.hh"
#endif

#if defined(__GNUC__) || defined(__clang__)
#define BPSIM_BATCH_PREFETCH(addr) __builtin_prefetch(addr)
#else
#define BPSIM_BATCH_PREFETCH(addr) ((void)0)
#endif

namespace bpsim
{
namespace BPSIM_BATCH_NS
{
namespace
{

/** Records per batch (the prepare/apply granularity). */
constexpr std::size_t batchRecords = 16;

/** Pipeline slots: batch b+1 is prepared while batch b is applied. */
constexpr unsigned pipelineSlots = 2;

/**
 * Members per gang chunk: gangs larger than this run as successive
 * fixed-size chunks. A compile-time member count lets the apply
 * pass's member loop fully unroll with its accumulators in
 * registers, and four independent predictor chains already saturate
 * the out-of-order window (same bound as the record-at-a-time gang
 * kernels).
 */
constexpr std::size_t gangChunk = 4;

/**
 * Tables whose counter array is at least this many entries get their
 * lines software-prefetched during prepare. Smaller tables live in
 * L1/L2 where the prefetch instructions cost more load-port slots
 * than the latency they hide — measured as a net loss on the paper's
 * 8KB configurations.
 */
constexpr std::size_t prefetchMinEntries = std::size_t{1} << 16;

/**
 * skewHinv with the width checks and masking hoisted out of the
 * per-record loop: @p x must already be below mask(bits) and @p bits
 * must be >= 2 (the caller branches to the library skewHinv for
 * degenerate one-entry banks). Kept branch-free and assert-free so
 * the elementwise index loops vectorize.
 */
inline std::uint64_t
skewHinvFast(std::uint64_t x, BitCount bits, std::uint64_t table_mask)
{
    const std::uint64_t msb = (x >> (bits - 1)) & 1;
    const std::uint64_t old_msb = (x >> (bits - 2)) & 1;
    return ((x << 1) & table_mask) | (msb ^ old_msb);
}

/** Raw structure-of-arrays view of one CounterTable. */
struct LaneTable
{
    LaneTable() = default;

    explicit LaneTable(CounterTable &table)
        : cnt(table.counterData()), tags(table.tagData()),
          mask(table.indexMask()), src(&table),
          sink(table.attachedAliasSink()), msb(table.counterMsb()),
          maxv(table.counterMax()),
          prefetch(table.indexMask() + 1 >= prefetchMinEntries)
    {
    }

    std::uint8_t *cnt = nullptr;
    Addr *tags = nullptr;
    std::size_t mask = 0;
    CounterTable *src = nullptr;
    ContextAliasSink *sink = nullptr;
    std::uint8_t msb = 0;
    std::uint8_t maxv = 0;
    bool prefetch = false;
};

/**
 * Register-resident collision accumulators for one table, flushed
 * into the table's CollisionStats once per segment. The per-record
 * tag protocol matches CounterTable::lookup<true> exactly; the
 * classification happens inline (the overall correctness is already
 * known at apply time), so the table's pending counter stays zero —
 * the same state updateStep() leaves behind.
 */
struct LaneStats
{
    Count lookups = 0;
    Count collisions = 0;
    Count constructive = 0;
    Count destructive = 0;

    void
    flush(CounterTable &table)
    {
        CollisionStats &stats = table.statsRef();
        stats.lookups += lookups;
        stats.collisions += collisions;
        stats.constructive += constructive;
        stats.destructive += destructive;
        *this = LaneStats{};
    }
};

using batch::Tracking;

/**
 * The tag half of an instrumented table access: check the entry's
 * tag against @p pc and write @p pc. Under Tracking::Contexts a
 * collision is also attributed to its (victim, aggressor) context
 * pair, classified in the same step: the outcome is already known at
 * apply time, which is what the sink's note/classify flush protocol
 * reconstructs on the record-at-a-time path. @p T must not be Off.
 *
 * @return 1 when the access collided, else 0
 */
template <Tracking T>
inline std::uint32_t
checkTag(const LaneTable &table, std::size_t index, Addr pc, bool correct)
{
    const Addr tag = table.tags[index];
    const std::uint32_t collided =
        static_cast<std::uint32_t>(tag != CounterTable::invalidTag) &
        static_cast<std::uint32_t>(tag != pc);
    table.tags[index] = pc;
    if constexpr (T == Tracking::Contexts) {
        if (collided != 0)
            table.sink->noteClassified(pc, tag, correct);
    }
    return collided;
}

/**
 * One instrumented table access: tag check, tag write and classified
 * collision accounting, compiled out entirely when @p T is Off.
 *
 * @return 1 when the access collided, else 0
 */
template <Tracking T>
inline std::uint32_t
touchLane(const LaneTable &table, LaneStats &stats, std::size_t index,
          Addr pc, bool correct)
{
    if constexpr (T == Tracking::Off) {
        (void)table;
        (void)stats;
        (void)index;
        (void)pc;
        (void)correct;
        return 0;
    } else {
        ++stats.lookups;
        const std::uint32_t collided =
            checkTag<T>(table, index, pc, correct);
        stats.collisions += collided;
        stats.constructive +=
            collided & static_cast<std::uint32_t>(correct);
        stats.destructive +=
            collided & static_cast<std::uint32_t>(!correct);
        return collided;
    }
}

/**
 * Collision statistics of @p Tables tables that every applied record
 * looks up once each (the tagged family's banks and weight tables):
 * one histogram bump per record, of the record's outcome and the mask
 * of tables whose tag check collided, split into each table's
 * CollisionStats when the segment flushes. Equal to per-access
 * counting (touchLane), at one memory update per record instead of
 * four per table.
 */
template <unsigned Tables>
class MaskStats
{
  public:
    /** Count one record: @p collided has bit t set when table t's
     * access collided; @p correct is the overall outcome. */
    void
    note(unsigned collided, bool correct)
    {
        ++counts[(correct ? 1u << Tables : 0u) | collided];
    }

    /** Add the counts into table t's stats (@p tables in bit order)
     * and start over. */
    void
    flush(CounterTable *const *tables)
    {
        constexpr unsigned masks = 1u << Tables;
        for (unsigned t = 0; t < Tables; ++t) {
            CollisionStats &stats = tables[t]->statsRef();
            for (unsigned m = 0; m < masks; ++m) {
                const Count wrong = counts[m];
                const Count right = counts[masks | m];
                stats.lookups += wrong + right;
                if ((m >> t) & 1) {
                    stats.collisions += wrong + right;
                    stats.constructive += right;
                    stats.destructive += wrong;
                }
            }
        }
        counts.fill(0);
    }

  private:
    std::array<Count, 2u << Tables> counts{};
};

/** What one applied record reports back to the driver. */
struct ApplyResult
{
    bool correct;
    std::uint32_t collided;
};

/** How a predictor derives its table index. */
enum class IndexKind
{
    Pc,        ///< bimodal: masked PC index
    PcXorHist, ///< gshare: folded PC xor history
    HistOnly,  ///< ghist: masked history
};

/**
 * Shared history-shadow machinery: each state keeps the global
 * history in a register, advancing it per record with the same
 * policy/hint rules the scalar kernels apply through historyStep(),
 * and syncs it back into the predictor at segment end.
 */
struct HistoryShadow
{
    template <typename P>
    explicit HistoryShadow(P &predictor)
    {
        const GlobalHistory &history = BatchTraits<P>::history(predictor);
        hist = history.value();
        histMask = mask(history.width());
    }

    template <ShiftPolicy Policy, bool WithHints>
    void
    advance(std::uint8_t taken, std::uint8_t code)
    {
        // Branchless on purpose: this runs inside the serial history
        // chain, where a data-dependent branch on hint presence would
        // put its mispredictions on the critical path. Selects
        // compile to cmov.
        bool bit = taken != 0;
        if constexpr (WithHints) {
            const bool present = (code & batch::hintPresentBit) != 0;
            if constexpr (Policy == ShiftPolicy::NoShift) {
                const std::uint64_t next =
                    ((hist << 1) | (bit ? 1 : 0)) & histMask;
                hist = present ? hist : next;
                return;
            } else if constexpr (Policy ==
                                 ShiftPolicy::ShiftPrediction) {
                const bool hinted =
                    (code & batch::hintTakenBit) != 0;
                bit = present ? hinted : bit;
            }
        } else {
            (void)code;
        }
        hist = ((hist << 1) | (bit ? 1 : 0)) & histMask;
    }

    std::uint64_t hist = 0;
    std::uint64_t histMask = 0;
};

/**
 * Batch state for the single-table predictors (bimodal, ghist,
 * gshare), differing only in how the index is derived.
 */
template <typename P, IndexKind Kind, Tracking T>
class TableState
{
  public:
    explicit TableState(P &predictor)
        : table(BatchTraits<P>::table(predictor))
    {
        if constexpr (Kind != IndexKind::Pc)
            shadow.emplace_back(predictor);
    }

    template <ShiftPolicy Policy, bool WithHints>
    void
    prepare(unsigned slot, std::size_t count, const std::uint8_t *taken,
            const std::uint32_t *site, const std::uint8_t *codes,
            const batch::SiteTables *tables)
    {
        std::size_t *out = idx[slot];
        const std::size_t msk = table.mask;
        if constexpr (Kind == IndexKind::Pc) {
            (void)taken;
            (void)codes;
            for (std::size_t i = 0; i < count; ++i)
                out[i] = tables->primary[site[i]] & msk;
        } else if constexpr (Kind == IndexKind::PcXorHist) {
            std::uint64_t hist[batchRecords];
            std::uint64_t fold[batchRecords];
            // Serial pass: a register-resident copy of the history
            // shadow carries the loop dependence (the heap-resident
            // member would round-trip through memory every record);
            // the site-table loads stay scalar on purpose (they are
            // L1-resident and beat gathered vector loads).
            HistoryShadow sh = shadow.front();
            for (std::size_t i = 0; i < count; ++i) {
                hist[i] = sh.hist;
                fold[i] = tables->primary[site[i]];
                sh.template advance<Policy, WithHints>(
                    taken[i], WithHints ? codes[site[i]] : 0);
            }
            shadow.front() = sh;
            // Elementwise pass: vectorizable across records.
            for (std::size_t i = 0; i < count; ++i)
                out[i] = (fold[i] ^ hist[i]) & msk;
        } else {
            HistoryShadow sh = shadow.front();
            for (std::size_t i = 0; i < count; ++i) {
                out[i] = sh.hist & msk;
                sh.template advance<Policy, WithHints>(
                    taken[i], WithHints ? codes[site[i]] : 0);
            }
            shadow.front() = sh;
        }
        if (table.prefetch) {
            for (std::size_t i = 0; i < count; ++i) {
                BPSIM_BATCH_PREFETCH(&table.cnt[out[i]]);
                if constexpr (T != Tracking::Off)
                    BPSIM_BATCH_PREFETCH(&table.tags[out[i]]);
            }
        }
    }

    ApplyResult
    apply(unsigned slot, std::size_t i, Addr pc, bool taken)
    {
        const std::size_t k = idx[slot][i];
        const std::uint8_t counter = table.cnt[k];
        const bool prediction = satCounterTaken(counter, table.msb);
        const bool correct = prediction == taken;
        const std::uint32_t collided =
            touchLane<T>(table, stats, k, pc, correct);
        table.cnt[k] = satCounterTrain(counter, taken, table.maxv);
        return {correct, collided};
    }

    void
    flushSegment(P &predictor)
    {
        stats.flush(*table.src);
        if constexpr (Kind != IndexKind::Pc) {
            BatchTraits<P>::history(predictor).set(
                shadow.front().hist);
        }
    }

  private:
    LaneTable table;
    LaneStats stats;
    // Kept in a 0/1-sized vector so the Pc kind (bimodal, no history
    // member to read) never touches BatchTraits<P>::history.
    std::vector<HistoryShadow> shadow;
    std::size_t idx[pipelineSlots][batchRecords];
};

/** Batch state for the bi-mode predictor. */
template <Tracking T>
class BiModeState
{
  public:
    explicit BiModeState(BiMode &predictor)
        : choice(BatchTraits<BiMode>::choice(predictor)),
          takenTable(BatchTraits<BiMode>::takenTable(predictor)),
          notTakenTable(BatchTraits<BiMode>::notTakenTable(predictor)),
          shadow(predictor)
    {
    }

    template <ShiftPolicy Policy, bool WithHints>
    void
    prepare(unsigned slot, std::size_t count, const std::uint8_t *taken,
            const std::uint32_t *site, const std::uint8_t *codes,
            const batch::SiteTables *tables)
    {
        std::uint64_t hist[batchRecords];
        std::uint64_t fold[batchRecords];
        HistoryShadow sh = shadow;
        for (std::size_t i = 0; i < count; ++i) {
            hist[i] = sh.hist;
            choiceIdx[slot][i] = tables->primary[site[i]] & choice.mask;
            fold[i] = tables->secondary[site[i]];
            sh.template advance<Policy, WithHints>(
                taken[i], WithHints ? codes[site[i]] : 0);
        }
        shadow = sh;
        for (std::size_t i = 0; i < count; ++i)
            dirIdx[slot][i] = (fold[i] ^ hist[i]) & takenTable.mask;
        if (choice.prefetch | takenTable.prefetch) {
            for (std::size_t i = 0; i < count; ++i) {
                BPSIM_BATCH_PREFETCH(&choice.cnt[choiceIdx[slot][i]]);
                // The direction table is chosen by the choice counter
                // at apply time; pull the line of both candidates.
                BPSIM_BATCH_PREFETCH(&takenTable.cnt[dirIdx[slot][i]]);
                BPSIM_BATCH_PREFETCH(
                    &notTakenTable.cnt[dirIdx[slot][i]]);
            }
        }
    }

    ApplyResult
    apply(unsigned slot, std::size_t i, Addr pc, bool taken)
    {
        const std::size_t kc = choiceIdx[slot][i];
        const std::size_t kd = dirIdx[slot][i];

        const std::uint8_t choiceCounter = choice.cnt[kc];
        const bool choseTaken =
            satCounterTaken(choiceCounter, choice.msb);
        LaneTable &selected = choseTaken ? takenTable : notTakenTable;
        LaneStats &selectedStats =
            choseTaken ? takenStats : notTakenStats;

        const std::uint8_t dirCounter = selected.cnt[kd];
        const bool prediction = satCounterTaken(dirCounter, selected.msb);
        const bool correct = prediction == taken;

        const std::uint32_t collided =
            touchLane<T>(choice, choiceStats, kc, pc, correct) +
            touchLane<T>(selected, selectedStats, kd, pc, correct);

        // Partial update: only the selected direction table trains.
        selected.cnt[kd] = satCounterTrain(dirCounter, taken,
                                           selected.maxv);

        // Choice trains toward the outcome except when it opposed the
        // outcome but the selected direction table still got it right.
        const bool choiceOpposes = choseTaken != taken;
        const std::uint8_t trained =
            satCounterTrain(choiceCounter, taken, choice.maxv);
        choice.cnt[kc] =
            (choiceOpposes && correct) ? choiceCounter : trained;

        return {correct, collided};
    }

    void
    flushSegment(BiMode &predictor)
    {
        choiceStats.flush(*choice.src);
        takenStats.flush(*takenTable.src);
        notTakenStats.flush(*notTakenTable.src);
        BatchTraits<BiMode>::history(predictor).set(shadow.hist);
    }

  private:
    LaneTable choice;
    LaneTable takenTable;
    LaneTable notTakenTable;
    LaneStats choiceStats;
    LaneStats takenStats;
    LaneStats notTakenStats;
    HistoryShadow shadow;
    std::size_t choiceIdx[pipelineSlots][batchRecords];
    std::size_t dirIdx[pipelineSlots][batchRecords];
};

/** Batch state for the 2bcgskew predictor. */
template <Tracking T>
class GskewState
{
  public:
    explicit GskewState(TwoBcGskew &predictor)
        : bim(BatchTraits<TwoBcGskew>::bim(predictor)),
          g0(BatchTraits<TwoBcGskew>::g0(predictor)),
          g1(BatchTraits<TwoBcGskew>::g1(predictor)),
          meta(BatchTraits<TwoBcGskew>::meta(predictor)),
          shadow(predictor),
          bankBits(
              BatchTraits<TwoBcGskew>::g0(predictor).indexBits()),
          metaBits(
              BatchTraits<TwoBcGskew>::meta(predictor).indexBits()),
          maskG0(mask(BatchTraits<TwoBcGskew>::histG0(predictor))),
          maskG1(mask(BatchTraits<TwoBcGskew>::histG1(predictor))),
          maskMeta(mask(BatchTraits<TwoBcGskew>::histMeta(predictor)))
    {
    }

    template <ShiftPolicy Policy, bool WithHints>
    void
    prepare(unsigned slot, std::size_t count, const std::uint8_t *taken,
            const std::uint32_t *site, const std::uint8_t *codes,
            const batch::SiteTables *tables)
    {
        std::uint64_t a0[batchRecords];  // H(v1): bank-0 PC chain
        std::uint64_t a1x[batchRecords]; // H(H(v1)) ^ v1: bank-1 mix
        std::uint64_t v2a[batchRecords]; // folded history, g0 window
        std::uint64_t v2b[batchRecords]; // folded history, g1 window
        std::uint64_t mf[batchRecords];  // meta PC fold ^ history fold
        // Serial pass: history shadow, site-table loads (scalar on
        // purpose — L1-resident, beating gathered vector loads) and
        // the variable-width history folds. The shadow advances in a
        // register-resident copy, written back once per batch.
        HistoryShadow sh = shadow;
        for (std::size_t i = 0; i < count; ++i) {
            const std::uint64_t hist = sh.hist;
            bimIdx[slot][i] = tables->primary[site[i]] & bim.mask;
            a0[i] = tables->secondary[site[i]];
            a1x[i] = tables->tertiary[site[i]];
            mf[i] = tables->quaternary[site[i]];
            v2a[i] = foldBits(hist & maskG0, bankBits);
            v2b[i] = foldBits(hist & maskG1, bankBits);
            mf[i] ^= foldBits(hist & maskMeta, metaBits);
            sh.template advance<Policy, WithHints>(
                taken[i], WithHints ? codes[site[i]] : 0);
        }
        shadow = sh;
        // Elementwise pass: vectorizable across records.
        // skewIndex(0, v1, v2) = H(v1) ^ Hinv(v2) ^ v2 and
        // skewIndex(1, v1, v2) = H(H(v1)) ^ Hinv(Hinv(v2)) ^ v1; the
        // PC chains are carried per site, the history chains here.
        if (bankBits >= 2) {
            for (std::size_t i = 0; i < count; ++i) {
                const std::uint64_t inv1 =
                    skewHinvFast(v2a[i], bankBits, g0.mask);
                g0Idx[slot][i] = (a0[i] ^ inv1 ^ v2a[i]) & g0.mask;
                const std::uint64_t inv2 = skewHinvFast(
                    skewHinvFast(v2b[i], bankBits, g1.mask), bankBits,
                    g1.mask);
                g1Idx[slot][i] = (a1x[i] ^ inv2) & g1.mask;
                metaIdx[slot][i] = mf[i] & meta.mask;
            }
        } else {
            // Degenerate one-bit banks (tiny test tables): use the
            // library Hinv, which handles width 1.
            for (std::size_t i = 0; i < count; ++i) {
                g0Idx[slot][i] =
                    (a0[i] ^ skewHinv(v2a[i], bankBits) ^ v2a[i]) &
                    g0.mask;
                g1Idx[slot][i] =
                    (a1x[i] ^ skewHinv(skewHinv(v2b[i], bankBits),
                                       bankBits)) &
                    g1.mask;
                metaIdx[slot][i] = mf[i] & meta.mask;
            }
        }
        if (bim.prefetch | g0.prefetch | meta.prefetch) {
            for (std::size_t i = 0; i < count; ++i) {
                BPSIM_BATCH_PREFETCH(&bim.cnt[bimIdx[slot][i]]);
                BPSIM_BATCH_PREFETCH(&g0.cnt[g0Idx[slot][i]]);
                BPSIM_BATCH_PREFETCH(&g1.cnt[g1Idx[slot][i]]);
                BPSIM_BATCH_PREFETCH(&meta.cnt[metaIdx[slot][i]]);
            }
            if constexpr (T != Tracking::Off) {
                for (std::size_t i = 0; i < count; ++i) {
                    BPSIM_BATCH_PREFETCH(&bim.tags[bimIdx[slot][i]]);
                    BPSIM_BATCH_PREFETCH(&g0.tags[g0Idx[slot][i]]);
                    BPSIM_BATCH_PREFETCH(&g1.tags[g1Idx[slot][i]]);
                    BPSIM_BATCH_PREFETCH(&meta.tags[metaIdx[slot][i]]);
                }
            }
        }
    }

    ApplyResult
    apply(unsigned slot, std::size_t i, Addr pc, bool taken)
    {
        const std::size_t kb = bimIdx[slot][i];
        const std::size_t k0 = g0Idx[slot][i];
        const std::size_t k1 = g1Idx[slot][i];
        const std::size_t km = metaIdx[slot][i];

        const std::uint8_t cb = bim.cnt[kb];
        const std::uint8_t c0 = g0.cnt[k0];
        const std::uint8_t c1 = g1.cnt[k1];
        const std::uint8_t cm = meta.cnt[km];
        const bool bimPred = satCounterTaken(cb, bim.msb);
        const bool g0Pred = satCounterTaken(c0, g0.msb);
        const bool g1Pred = satCounterTaken(c1, g1.msb);
        const bool majority =
            (static_cast<int>(bimPred) + static_cast<int>(g0Pred) +
             static_cast<int>(g1Pred)) >= 2;
        const bool useMajority = satCounterTaken(cm, meta.msb);
        const bool prediction = useMajority ? majority : bimPred;
        const bool correct = prediction == taken;

        const std::uint32_t collided =
            touchLane<T>(bim, bimStats, kb, pc, correct) +
            touchLane<T>(g0, g0Stats, k0, pc, correct) +
            touchLane<T>(g1, g1Stats, k1, pc, correct) +
            touchLane<T>(meta, metaStats, km, pc, correct);

        // Partial update as branchless masks: on a wrong overall
        // prediction all voting banks train; on a correct one only
        // the participants (majority voters, or the bimodal bank when
        // it alone was used) train.
        const bool trainBim =
            !correct || !useMajority || (bimPred == taken);
        const bool trainG0 =
            !correct || (useMajority && g0Pred == taken);
        const bool trainG1 =
            !correct || (useMajority && g1Pred == taken);
        bim.cnt[kb] =
            trainBim ? satCounterTrain(cb, taken, bim.maxv) : cb;
        g0.cnt[k0] = trainG0 ? satCounterTrain(c0, taken, g0.maxv) : c0;
        g1.cnt[k1] = trainG1 ? satCounterTrain(c1, taken, g1.maxv) : c1;

        // Meta trains only when the components disagree, toward
        // whichever was correct.
        const std::uint8_t metaTrained =
            satCounterTrain(cm, majority == taken, meta.maxv);
        meta.cnt[km] = (majority != bimPred) ? metaTrained : cm;

        return {correct, collided};
    }

    void
    flushSegment(TwoBcGskew &predictor)
    {
        bimStats.flush(*bim.src);
        g0Stats.flush(*g0.src);
        g1Stats.flush(*g1.src);
        metaStats.flush(*meta.src);
        BatchTraits<TwoBcGskew>::history(predictor).set(shadow.hist);
    }

  private:
    LaneTable bim;
    LaneTable g0;
    LaneTable g1;
    LaneTable meta;
    LaneStats bimStats;
    LaneStats g0Stats;
    LaneStats g1Stats;
    LaneStats metaStats;
    HistoryShadow shadow;
    BitCount bankBits;
    BitCount metaBits;
    std::uint64_t maskG0;
    std::uint64_t maskG1;
    std::uint64_t maskMeta;
    std::size_t bimIdx[pipelineSlots][batchRecords];
    std::size_t g0Idx[pipelineSlots][batchRecords];
    std::size_t g1Idx[pipelineSlots][batchRecords];
    std::size_t metaIdx[pipelineSlots][batchRecords];
};

/**
 * Advance a tagged predictor's history shadow by one record with the
 * rules the record-at-a-time kernels apply through historyStep(): a
 * dynamic record shifts its outcome; a hinted one shifts nothing, its
 * outcome or its hint direction, per @p Policy.
 */
template <ShiftPolicy Policy, bool WithHints, typename History>
BPSIM_ALWAYS_INLINE void
advanceHistory(History &history, std::uint8_t taken, std::uint8_t code)
{
    bool bit = taken != 0;
    if constexpr (WithHints) {
        const bool present = (code & batch::hintPresentBit) != 0;
        if constexpr (Policy == ShiftPolicy::NoShift) {
            if (present)
                return;
        } else if constexpr (Policy == ShiftPolicy::ShiftPrediction) {
            bit = present ? (code & batch::hintTakenBit) != 0 : bit;
        }
    } else {
        (void)code;
    }
    history.push(bit);
}

/**
 * Prepare pass shared by the tagged family: evolve a per-batch copy
 * of the predictor's history and folds from the trace outcomes and
 * hint codes, computing each record's table coordinates from it (and
 * the per-site PC folds) with the predictor's own index functions.
 */
template <typename P, ShiftPolicy Policy, bool WithHints>
void
prepareCoords(const P &predictor, typename BatchTraits<P>::History &shadow,
              typename BatchTraits<P>::Coords *out, std::size_t count,
              const std::uint8_t *taken, const std::uint32_t *site,
              const std::uint8_t *codes, const batch::SiteTables *tables)
{
    typename BatchTraits<P>::History history = shadow;
    for (std::size_t i = 0; i < count; ++i) {
        BatchTraits<P>::coords(predictor, history, *tables, site[i],
                               out[i]);
        advanceHistory<Policy, WithHints>(
            history, taken[i], WithHints ? codes[site[i]] : 0);
    }
    shadow = history;
}

/**
 * Batch state for TAGE. Apply replays Tage::predictStep/updateStep
 * over the carried coordinates: base and bank counter loads, tag
 * matches, provider and alternate selection, the instrumented
 * accesses (base first, then banks), useful-counter and provider
 * training, then allocation on a misprediction and the aging count
 * through the predictor's own allocate()/countUpdate().
 */
template <Tracking T>
class TageState
{
    using Traits = BatchTraits<Tage>;
    static constexpr unsigned banks = Tage::numBanks;

  public:
    explicit TageState(Tage &predictor)
        : predictor(&predictor), base(Traits::base(predictor)),
          shadow(Traits::history(predictor))
    {
        for (unsigned b = 0; b < banks; ++b) {
            bank[b] = LaneTable(Traits::bankPred(predictor, b));
            tags[b] = Traits::bankTags(predictor, b);
            useful[b] = Traits::bankUseful(predictor, b);
        }
    }

    template <ShiftPolicy Policy, bool WithHints>
    void
    prepare(unsigned slot, std::size_t count, const std::uint8_t *taken,
            const std::uint32_t *site, const std::uint8_t *codes,
            const batch::SiteTables *tables)
    {
        prepareCoords<Tage, Policy, WithHints>(*predictor, shadow,
                                               coords[slot], count, taken,
                                               site, codes, tables);
    }

    ApplyResult
    apply(unsigned slot, std::size_t i, Addr pc, bool taken)
    {
        const Tage::Coords &at = coords[slot][i];
        const std::uint8_t cb = base.cnt[at.baseIdx];
        const bool basePred = satCounterTaken(cb, base.msb);
        // Per-bank tag hits and counter predictions as bit masks, so
        // provider (longest hit) and alternate (next-longest hit)
        // selection is bit arithmetic rather than data-dependent
        // branches.
        std::uint8_t c[banks];
        unsigned hits = 0;
        unsigned preds = 0;
        for (unsigned b = 0; b < banks; ++b) {
            c[b] = bank[b].cnt[at.idx[b]];
            preds |= static_cast<unsigned>(
                         satCounterTaken(c[b], bank[b].msb))
                     << b;
            hits |= static_cast<unsigned>(tags[b][at.idx[b]] == at.tag[b])
                    << b;
        }
        const int provider = static_cast<int>(std::bit_width(hits)) - 1;
        const unsigned others = hits ^ std::bit_floor(hits);
        const bool altPred =
            others != 0
                ? ((preds >> (std::bit_width(others) - 1)) & 1) != 0
                : basePred;
        const bool providerPred =
            provider >= 0 ? ((preds >> provider) & 1) != 0 : basePred;
        const bool correct = providerPred == taken;

        // Tracked accesses in table order: base, then banks 0..3.
        std::uint32_t collided = 0;
        if constexpr (T != Tracking::Off) {
            unsigned mask = checkTag<T>(base, at.baseIdx, pc, correct);
            for (unsigned b = 0; b < banks; ++b)
                mask |= checkTag<T>(bank[b], at.idx[b], pc, correct)
                        << (b + 1);
            stats.note(mask, correct);
            collided = static_cast<std::uint32_t>(std::popcount(mask));
        }

        if (provider >= 0) {
            const std::size_t k = at.idx[provider];
            // The useful counter tracks "provider beat the alternate":
            // it only moves when they disagreed, toward whichever was
            // right.
            std::uint8_t &u = useful[provider][k];
            const std::uint8_t moved =
                providerPred == taken
                    ? static_cast<std::uint8_t>(
                          u + (u < Tage::usefulMax ? 1 : 0))
                    : static_cast<std::uint8_t>(u - (u > 0 ? 1 : 0));
            u = providerPred != altPred ? moved : u;
            bank[provider].cnt[k] =
                satCounterTrain(c[provider], taken, bank[provider].maxv);
        } else {
            base.cnt[at.baseIdx] = satCounterTrain(cb, taken, base.maxv);
        }
        if (!correct && provider < static_cast<int>(banks) - 1)
            Traits::allocate(*predictor, provider, at, taken);
        Traits::countUpdate(*predictor);
        return {correct, collided};
    }

    void
    flushSegment(Tage &target)
    {
        CounterTable *order[banks + 1] = {base.src};
        for (unsigned b = 0; b < banks; ++b)
            order[b + 1] = bank[b].src;
        stats.flush(order);
        Traits::history(target) = shadow;
    }

  private:
    Tage *predictor;
    LaneTable base;
    LaneTable bank[banks];
    std::uint8_t *tags[banks];
    std::uint8_t *useful[banks];
    MaskStats<banks + 1> stats;
    Traits::History shadow;
    Tage::Coords coords[pipelineSlots][batchRecords];
};

/**
 * Batch state for the hashed perceptron. Apply replays
 * HashedPerceptron::predictStep/updateStep over the carried indices:
 * the weight sum and its sign, the instrumented accesses, and the
 * threshold-gated training of every selected weight (branch-free:
 * untrained weights are stored back unchanged).
 */
template <Tracking T>
class PerceptronState
{
    using Traits = BatchTraits<HashedPerceptron>;
    static constexpr unsigned tables = HashedPerceptron::numTables;

  public:
    explicit PerceptronState(HashedPerceptron &predictor)
        : predictor(&predictor), shadow(Traits::history(predictor)),
          threshold(Traits::threshold(predictor))
    {
        for (unsigned t = 0; t < tables; ++t)
            table[t] = LaneTable(Traits::table(predictor, t));
    }

    template <ShiftPolicy Policy, bool WithHints>
    void
    prepare(unsigned slot, std::size_t count, const std::uint8_t *taken,
            const std::uint32_t *site, const std::uint8_t *codes,
            const batch::SiteTables *site_tables)
    {
        prepareCoords<HashedPerceptron, Policy, WithHints>(
            *predictor, shadow, coords[slot], count, taken, site, codes,
            site_tables);
    }

    ApplyResult
    apply(unsigned slot, std::size_t i, Addr pc, bool taken)
    {
        const HashedPerceptron::Indices &at = coords[slot][i];
        std::uint8_t w[tables];
        int sum = 0;
        for (unsigned t = 0; t < tables; ++t) {
            w[t] = table[t].cnt[at[t]];
            sum += static_cast<int>(w[t]) - HashedPerceptron::weightBias;
        }
        const bool correct = (sum >= 0) == taken;

        std::uint32_t collided = 0;
        if constexpr (T != Tracking::Off) {
            unsigned mask = 0;
            for (unsigned t = 0; t < tables; ++t)
                mask |= checkTag<T>(table[t], at[t], pc, correct) << t;
            stats.note(mask, correct);
            collided = static_cast<std::uint32_t>(std::popcount(mask));
        }

        const int magnitude = sum < 0 ? -sum : sum;
        const bool train = !correct || magnitude <= threshold;
        for (unsigned t = 0; t < tables; ++t) {
            table[t].cnt[at[t]] =
                train ? satCounterTrain(w[t], taken, table[t].maxv)
                      : w[t];
        }
        return {correct, collided};
    }

    void
    flushSegment(HashedPerceptron &target)
    {
        CounterTable *order[tables];
        for (unsigned t = 0; t < tables; ++t)
            order[t] = table[t].src;
        stats.flush(order);
        Traits::history(target) = shadow;
    }

  private:
    HashedPerceptron *predictor;
    LaneTable table[tables];
    MaskStats<tables> stats;
    Traits::History shadow;
    int threshold;
    HashedPerceptron::Indices coords[pipelineSlots][batchRecords];
};

/** The batch state class handling predictor type @p P. */
template <typename P, Tracking T>
struct StateFor;

template <Tracking T> struct StateFor<Bimodal, T>
{
    using type = TableState<Bimodal, IndexKind::Pc, T>;
};

template <Tracking T> struct StateFor<Ghist, T>
{
    using type = TableState<Ghist, IndexKind::HistOnly, T>;
};

template <Tracking T> struct StateFor<Gshare, T>
{
    using type = TableState<Gshare, IndexKind::PcXorHist, T>;
};

template <Tracking T> struct StateFor<BiMode, T>
{
    using type = BiModeState<T>;
};

template <Tracking T> struct StateFor<TwoBcGskew, T>
{
    using type = GskewState<T>;
};

template <Tracking T> struct StateFor<Tage, T>
{
    using type = TageState<T>;
};

template <Tracking T> struct StateFor<HashedPerceptron, T>
{
    using type = PerceptronState<T>;
};

/**
 * The batch driver: walk records [start, end) in batches, one batch
 * of lookahead deep. Each batch is decoded once and prepared for
 * every member while the previous batch is still unapplied, so the
 * prepare pass's work (and any prefetches) overlaps the previous
 * batch's apply work. The apply pass is record-major: every member
 * steps through a record before the pass moves to the next one, so
 * the members' mutually independent dependent chains (counter load ->
 * predict -> train -> store) overlap in the out-of-order window —
 * the same interleaving the record-at-a-time gang kernels use. @p N
 * is the compile-time member count (callers chunk larger gangs), so
 * the member loops fully unroll and the per-member accumulators are
 * register-resident fixed arrays. Stat totals equal the per-record
 * increments of the record-at-a-time kernels exactly (integer sums
 * in a different grouping); per member the record order is the
 * buffer order, so the table and history evolution is identical.
 */
template <typename P, ShiftPolicy Policy, Tracking T, bool WithHints,
          bool WithDense, std::size_t N>
void
runBatchLoop(P *const *predictors,
             const batch::SiteTables *const *site_tables,
             const std::uint8_t *const *hint_codes,
             SimStats *const *stats, const ReplayBuffer &buffer,
             BranchProfile *profiles, Count start, Count end)
{
    using State = typename StateFor<P, T>::type;
    constexpr std::size_t B = batchRecords;

    const std::uint32_t *site_of = buffer.siteData();
    const Addr *site_pcs = buffer.sitePcs();
    const std::uint32_t *packed = buffer.packedData();

    std::vector<State> states;
    states.reserve(N);
    for (std::size_t m = 0; m < N; ++m)
        states.emplace_back(*predictors[m]);
    State *const st = states.data();

    Count mispredictions[N]{};
    Count staticPredicted[N]{};
    Count staticMispredicted[N]{};
    Count branches = 0;
    Count instructions = 0;

    Addr pc[pipelineSlots][B] = {};
    std::uint8_t taken[pipelineSlots][B];
    std::uint32_t site[pipelineSlots][B];
    std::size_t counts[pipelineSlots] = {};

    // Decode one batch's trace columns (lane-parallel: pure
    // elementwise integer ops over contiguous arrays), then run every
    // member's prepare pass over it. Static-hint codes are read
    // straight from the members' site-indexed code arrays — both here
    // and at apply time — so no per-batch staging buffer is needed.
    const auto decodeAndPrepare = [&](Count base, unsigned slot) {
        const std::size_t count =
            static_cast<std::size_t>(std::min<Count>(B, end - base));
        counts[slot] = count;
        for (std::size_t i = 0; i < count; ++i) {
            site[slot][i] = site_of[base + i];
            const std::uint32_t word = packed[base + i];
            taken[slot][i] =
                (word & ReplayBuffer::packedTakenBit) != 0 ? 1 : 0;
            instructions += word & ~ReplayBuffer::packedTakenBit;
        }
        branches += count;
        // Only the collision tags need the PC itself; every index
        // comes from the per-site tables.
        if constexpr (T != Tracking::Off) {
            for (std::size_t i = 0; i < count; ++i)
                pc[slot][i] = site_pcs[site[slot][i]];
        }
        for (std::size_t m = 0; m < N; ++m) {
            st[m].template prepare<Policy, WithHints>(
                slot, count, taken[slot], site[slot],
                WithHints ? hint_codes[m] : nullptr, site_tables[m]);
        }
    };

    if (start < end)
        decodeAndPrepare(start, 0);
    unsigned cur = 0;
    for (Count base = start; base < end; base += B) {
        if (base + B < end)
            decodeAndPrepare(base + B, cur ^ 1);
        const std::size_t count = counts[cur];
        for (std::size_t i = 0; i < count; ++i) {
            const Addr recPc = pc[cur][i];
            const bool recTaken = taken[cur][i] != 0;
            for (std::size_t m = 0; m < N; ++m) {
                if constexpr (WithHints) {
                    const std::uint8_t code =
                        hint_codes[m][site[cur][i]];
                    if ((code & batch::hintPresentBit) != 0) {
                        const bool direction =
                            (code & batch::hintTakenBit) != 0;
                        const bool miss = direction != recTaken;
                        mispredictions[m] += miss;
                        ++staticPredicted[m];
                        staticMispredicted[m] += miss;
                        if constexpr (WithDense) {
                            // A hinted branch's profile records only
                            // its outcome: accuracy counts describe
                            // the dynamic predictor.
                            BranchProfile &profile =
                                profiles[site[cur][i]];
                            ++profile.executed;
                            profile.taken += recTaken ? 1 : 0;
                        }
                        continue;
                    }
                }
                const ApplyResult result =
                    st[m].apply(cur, i, recPc, recTaken);
                mispredictions[m] += !result.correct;
                if constexpr (WithDense) {
                    BranchProfile &profile = profiles[site[cur][i]];
                    ++profile.executed;
                    profile.taken += recTaken ? 1 : 0;
                    ++profile.predicted;
                    profile.correct += result.correct ? 1 : 0;
                    profile.collisions += result.collided;
                }
            }
        }
        cur ^= 1;
    }

    for (std::size_t m = 0; m < N; ++m) {
        SimStats &out = *stats[m];
        out.branches += branches;
        out.instructions += instructions;
        out.mispredictions += mispredictions[m];
        out.staticPredicted += staticPredicted[m];
        out.staticMispredictions += staticMispredicted[m];
        st[m].flushSegment(*predictors[m]);
    }
}

/** Call @p run with @p policy as a compile-time constant. */
template <typename Run>
void
withPolicy(ShiftPolicy policy, Run &&run)
{
    switch (policy) {
      case ShiftPolicy::NoShift:
        run(std::integral_constant<ShiftPolicy, ShiftPolicy::NoShift>{});
        break;
      case ShiftPolicy::ShiftOutcome:
        run(std::integral_constant<ShiftPolicy,
                                   ShiftPolicy::ShiftOutcome>{});
        break;
      case ShiftPolicy::ShiftPrediction:
        run(std::integral_constant<ShiftPolicy,
                                   ShiftPolicy::ShiftPrediction>{});
        break;
    }
}

/** Call @p run with @p tracking as a compile-time constant. */
template <typename Run>
void
withTracking(Tracking tracking, Run &&run)
{
    switch (tracking) {
      case Tracking::Off:
        run(std::integral_constant<Tracking, Tracking::Off>{});
        break;
      case Tracking::Stats:
        run(std::integral_constant<Tracking, Tracking::Stats>{});
        break;
      case Tracking::Contexts:
        run(std::integral_constant<Tracking, Tracking::Contexts>{});
        break;
    }
}

/** The tracking policy for @p predictor under the caller's flag. */
template <typename P>
Tracking
trackingFor(P &predictor, bool track)
{
    if (!track)
        return Tracking::Off;
    // One sink serves every table of a predictor, so any one table
    // speaks for all of them.
    const CounterTable *table = nullptr;
    if constexpr (std::is_same_v<P, BiMode>)
        table = &BatchTraits<P>::choice(predictor);
    else if constexpr (std::is_same_v<P, TwoBcGskew>)
        table = &BatchTraits<P>::bim(predictor);
    else if constexpr (std::is_same_v<P, Tage>)
        table = &BatchTraits<P>::base(predictor);
    else if constexpr (std::is_same_v<P, HashedPerceptron>)
        table = &BatchTraits<P>::table(predictor, 0);
    else
        table = &BatchTraits<P>::table(predictor);
    return table->attachedAliasSink() != nullptr ? Tracking::Contexts
                                                 : Tracking::Stats;
}

/**
 * Run one gang chunk of compile-time size through the batch loop,
 * dispatching the runtime (policy, tracking) pair.
 */
template <typename P, std::size_t N>
void
dispatchGangChunk(const batch::GangArgs<P> &args, std::size_t offset)
{
    withPolicy(args.policy, [&](auto policy_tag) {
        constexpr ShiftPolicy kPolicy = decltype(policy_tag)::value;
        if (args.track) {
            runBatchLoop<P, kPolicy, Tracking::Stats, true, false, N>(
                args.predictors + offset, args.siteTables + offset,
                args.hintCodes + offset, args.stats + offset,
                *args.buffer, nullptr, args.from, args.to);
        } else {
            runBatchLoop<P, kPolicy, Tracking::Off, true, false, N>(
                args.predictors + offset, args.siteTables + offset,
                args.hintCodes + offset, args.stats + offset,
                *args.buffer, nullptr, args.from, args.to);
        }
    });
}

} // namespace

template <typename P>
void
runGangBatch(const batch::GangArgs<P> &args)
{
    // Per-context attribution is a single-sim shape: the sims that
    // carry an alias sink (scenario evaluations) also profile, and
    // profiling sims never gang.
    for (std::size_t m = 0; m < args.n; ++m) {
        bpsim_assert(trackingFor(*args.predictors[m], args.track) !=
                         Tracking::Contexts,
                     "gang member carries a context alias sink");
    }
    // Gangs larger than gangChunk run as successive fixed-size
    // chunks (each member still sees every record in order exactly
    // once); the compile-time chunk size keeps the apply pass's
    // member loop unrolled with register-resident accumulators.
    std::size_t offset = 0;
    while (offset < args.n) {
        const std::size_t rest = args.n - offset;
        switch (std::min(rest, gangChunk)) {
          case 1:
            dispatchGangChunk<P, 1>(args, offset);
            offset += 1;
            break;
          case 2:
            dispatchGangChunk<P, 2>(args, offset);
            offset += 2;
            break;
          case 3:
            dispatchGangChunk<P, 3>(args, offset);
            offset += 3;
            break;
          default:
            dispatchGangChunk<P, 4>(args, offset);
            offset += 4;
            break;
        }
    }
}

template <typename P>
void
runSingleBatch(const batch::SingleArgs<P> &args)
{
    P *predictor = args.predictor;
    const batch::SiteTables *tables = args.siteTables;
    const std::uint8_t *codes = args.hintCodes;
    SimStats *stats = args.stats;
    const auto loop = [&](auto policy_tag, auto tracking_tag,
                          auto hints_tag, auto dense_tag) {
        runBatchLoop<P, decltype(policy_tag)::value,
                     decltype(tracking_tag)::value,
                     decltype(hints_tag)::value,
                     decltype(dense_tag)::value, 1>(
            &predictor, &tables, &codes, &stats, *args.buffer,
            args.profiles, args.from, args.to);
    };
    using NoShift =
        std::integral_constant<ShiftPolicy, ShiftPolicy::NoShift>;
    withTracking(trackingFor(*predictor, args.track), [&](auto tracking) {
        const auto withDense = [&](auto hints, auto policy) {
            if (args.profiles != nullptr)
                loop(policy, tracking, hints, std::true_type{});
            else
                loop(policy, tracking, hints, std::false_type{});
        };
        if (codes == nullptr) {
            withDense(std::false_type{}, NoShift{});
            return;
        }
        withPolicy(args.policy, [&](auto policy) {
            withDense(std::true_type{}, policy);
        });
    });
}

#define BPSIM_INSTANTIATE_BATCH(P)                                     \
    template void runGangBatch<P>(const batch::GangArgs<P> &);         \
    template void runSingleBatch<P>(const batch::SingleArgs<P> &);
BPSIM_INSTANTIATE_BATCH(Bimodal)
BPSIM_INSTANTIATE_BATCH(Ghist)
BPSIM_INSTANTIATE_BATCH(Gshare)
BPSIM_INSTANTIATE_BATCH(BiMode)
BPSIM_INSTANTIATE_BATCH(TwoBcGskew)
BPSIM_INSTANTIATE_BATCH(Tage)
BPSIM_INSTANTIATE_BATCH(HashedPerceptron)
#undef BPSIM_INSTANTIATE_BATCH

} // namespace BPSIM_BATCH_NS
} // namespace bpsim

#undef BPSIM_BATCH_PREFETCH
