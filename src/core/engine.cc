#include "core/engine.hh"

#include <algorithm>
#include <memory>
#include <type_traits>
#include <typeindex>
#include <vector>

#include "core/batch_kernels.hh"
#include "core/combined_predictor.hh"
#include "core/simd.hh"
#include "predictor/factory.hh"
#include "support/logging.hh"
#include "trace/replay_buffer.hh"

namespace bpsim
{

namespace
{

/**
 * The measured loop, stamped out per configuration so the per-branch
 * path pays neither for profiling when no ProfileDb is attached nor
 * for static/dynamic attribution when the predictor is not combined.
 */
template <bool WithProfile, bool IsCombined>
SimStats
runMeasured(BranchPredictor &predictor, CombinedPredictor *combined,
            BranchStream &stream, const SimOptions &options)
{
    SimStats stats;
    BranchRecord record;
    const Count limit = options.maxBranches == 0 ? ~Count{0}
                                                 : options.maxBranches;

    while (stats.branches < limit && stream.next(record)) {
        const bool prediction = predictor.predict(record.pc);
        const bool correct = prediction == record.taken;
        // Must be sampled between predict() and update(): update()
        // classifies and clears the pending collision state.
        Count lookup_collisions = 0;
        if constexpr (WithProfile)
            lookup_collisions = predictor.lastPredictCollisions();

        predictor.update(record.pc, record.taken);
        predictor.updateHistory(record.taken);

        ++stats.branches;
        stats.instructions += record.instGap;
        if (!correct)
            ++stats.mispredictions;

        bool was_static = false;
        if constexpr (IsCombined) {
            was_static = combined->lastWasStatic();
            if (was_static) {
                ++stats.staticPredicted;
                if (!correct)
                    ++stats.staticMispredictions;
            }
        }

        if constexpr (WithProfile) {
            options.profile->recordOutcome(record.pc, record.taken);
            // Accuracy counts describe the *dynamic* predictor, so
            // statically resolved branches do not contribute.
            if (!was_static) {
                options.profile->recordPrediction(record.pc, correct);
                if (lookup_collisions > 0)
                    options.profile->recordCollisions(
                        record.pc, lookup_collisions);
            }
        }
    }

    stats.collisions = predictor.collisionStats();
    return stats;
}

/**
 * Branches per inner kernel loop. The bounded trip count lets the
 * compiler keep the loop body register-resident; the value itself is
 * not semantically significant.
 */
constexpr Count kernelBlock = 4096;

/**
 * Records per fused-walk block. Larger than kernelBlock: with every
 * sim of a fused pass stepping through the block before the walk
 * advances, the per-block fixed costs (virtual dispatch into each
 * exec, loop setup, stats spills) amortize over more records, and the
 * shared trace columns still stream through L2. 64Ki records ≈ 768KB
 * of trace columns; measured best on the reference container across a
 * 512..4Mi sweep.
 */
constexpr Count fusedBlock = 65536;

/**
 * Devirtualized replay kernel for a bare dynamic predictor of
 * concrete type @p P. Replays records [start, end) of the buffer's
 * raw columns through the predictor's inline *Step protocol —
 * the loop body contains no indirect calls.
 */
template <bool WithProfile, bool Track, typename P>
void
runReplayDynamic(P &predictor, const ReplayBuffer &buffer, Count start,
                 Count end, SimStats &stats, ProfileDb *profile)
{
    const std::uint32_t *site_of = buffer.siteData();
    const Addr *site_pcs = buffer.sitePcs();
    const std::uint32_t *packed = buffer.packedData();

    for (Count base = start; base < end; base += kernelBlock) {
        const Count stop = std::min(base + kernelBlock, end);
        for (Count i = base; i < stop; ++i) {
            const Addr pc = site_pcs[site_of[i]];
            const std::uint32_t word = packed[i];
            const bool taken =
                (word & ReplayBuffer::packedTakenBit) != 0;

            const bool prediction =
                predictor.template predictStep<Track>(pc);
            const bool correct = prediction == taken;
            // Must be sampled between the predict and update steps:
            // updateStep() classifies and clears the pending state.
            Count lookup_collisions = 0;
            if constexpr (WithProfile)
                lookup_collisions = predictor.pendingStep();

            predictor.template updateStep<Track>(pc, taken);
            predictor.historyStep(taken);

            ++stats.branches;
            stats.instructions += word & ~ReplayBuffer::packedTakenBit;
            if (!correct)
                ++stats.mispredictions;

            if constexpr (WithProfile) {
                profile->recordOutcome(pc, taken);
                profile->recordPrediction(pc, correct);
                if (lookup_collisions > 0)
                    profile->recordCollisions(pc, lookup_collisions);
            }
        }
    }
}

// Dense hint-code bits (0 = no hint for the site); shared with the
// batch kernels, which consume the same per-site code arrays.
using batch::hintPresentBit;
using batch::hintTakenBit;

/** @p hints as one dense code byte per site of @p buffer. */
std::vector<std::uint8_t>
hintCodesFor(const HintDb &hints, const ReplayBuffer &buffer)
{
    std::vector<std::uint8_t> codes(buffer.siteCount(), 0);
    for (std::uint32_t s = 0; s < buffer.siteCount(); ++s) {
        bool taken = false;
        if (hints.lookup(buffer.sitePc(s), taken))
            codes[s] = hintPresentBit | (taken ? hintTakenBit : 0);
    }
    return codes;
}

/**
 * Devirtualized replay kernel for a CombinedPredictor whose dynamic
 * component has concrete type @p P. Replicates the combined
 * predict/update/updateHistory semantics inline: hinted branches
 * (one code byte per site, from hintCodesFor) are resolved
 * statically, never touch the dynamic tables, and feed the history
 * register per the compile-time shift policy.
 */
template <bool WithProfile, bool Track, ShiftPolicy Policy, typename P>
void
runReplayCombinedSites(P &predictor, const std::uint8_t *hint_code,
                       const ReplayBuffer &buffer, Count start,
                       Count end, SimStats &stats, ProfileDb *profile)
{
    const std::uint32_t *site_of = buffer.siteData();
    const Addr *site_pcs = buffer.sitePcs();
    const std::uint32_t *packed = buffer.packedData();

    for (Count base = start; base < end; base += kernelBlock) {
        const Count stop = std::min(base + kernelBlock, end);
        for (Count i = base; i < stop; ++i) {
            const Addr pc = site_pcs[site_of[i]];
            const std::uint32_t word = packed[i];
            const bool taken =
                (word & ReplayBuffer::packedTakenBit) != 0;

            const std::uint8_t code = hint_code[site_of[i]];
            const bool was_static = (code & hintPresentBit) != 0;
            bool correct;
            Count lookup_collisions = 0;
            if (was_static) {
                const bool hint_direction =
                    (code & hintTakenBit) != 0;
                correct = hint_direction == taken;
                if constexpr (Policy == ShiftPolicy::ShiftOutcome)
                    predictor.historyStep(taken);
                else if constexpr (Policy ==
                                   ShiftPolicy::ShiftPrediction)
                    predictor.historyStep(hint_direction);
                ++stats.staticPredicted;
                if (!correct)
                    ++stats.staticMispredictions;
            } else {
                const bool prediction =
                    predictor.template predictStep<Track>(pc);
                correct = prediction == taken;
                if constexpr (WithProfile)
                    lookup_collisions = predictor.pendingStep();
                predictor.template updateStep<Track>(pc, taken);
                predictor.historyStep(taken);
            }

            ++stats.branches;
            stats.instructions += word & ~ReplayBuffer::packedTakenBit;
            if (!correct)
                ++stats.mispredictions;

            if constexpr (WithProfile) {
                profile->recordOutcome(pc, taken);
                // Accuracy counts describe the *dynamic* predictor,
                // so statically resolved branches do not contribute.
                if (!was_static) {
                    profile->recordPrediction(pc, correct);
                    if (lookup_collisions > 0)
                        profile->recordCollisions(pc,
                                                  lookup_collisions);
                }
            }
        }
    }
}

/** runReplayCombinedSites with the shift policy chosen at run time. */
template <bool WithProfile, bool Track, typename P>
void
runReplayCombined(P &predictor, const std::uint8_t *hint_code,
                  ShiftPolicy policy, const ReplayBuffer &buffer,
                  Count start, Count end, SimStats &stats,
                  ProfileDb *profile)
{
    switch (policy) {
      case ShiftPolicy::NoShift:
        runReplayCombinedSites<WithProfile, Track, ShiftPolicy::NoShift>(
            predictor, hint_code, buffer, start, end, stats, profile);
        break;
      case ShiftPolicy::ShiftOutcome:
        runReplayCombinedSites<WithProfile, Track,
                               ShiftPolicy::ShiftOutcome>(
            predictor, hint_code, buffer, start, end, stats, profile);
        break;
      case ShiftPolicy::ShiftPrediction:
        runReplayCombinedSites<WithProfile, Track,
                               ShiftPolicy::ShiftPrediction>(
            predictor, hint_code, buffer, start, end, stats, profile);
        break;
    }
}

/**
 * Run the full warmup + measurement schedule over the buffer through
 * the devirtualized kernels, mirroring simulate()'s structure.
 */
template <typename P>
SimStats
runReplay(P &concrete, BranchPredictor &outer, const HintDb *hints,
          ShiftPolicy policy, const ReplayBuffer &buffer,
          const SimOptions &options, bool *used_simd = nullptr)
{
    const Count total = buffer.size();
    const Count warmup_end = std::min(options.warmupBranches, total);
    const Count limit = options.maxBranches == 0 ? ~Count{0}
                                                 : options.maxBranches;
    const Count end =
        warmup_end + std::min(limit, total - warmup_end);

    const bool with_profile = options.profile != nullptr;
    const bool track = options.trackCollisions;

    // The batched kernels cover the plain dynamic shape here; hinted
    // and profiling runs keep the record-at-a-time kernels (hints as
    // per-site codes, profiles straight into the ProfileDb).
    // Bit-identical either way.
    const BatchKernelSet<P> kernels =
        batchKernelsFor<P>(resolveSimdLevel(options.simd));
    if (used_simd != nullptr) {
        *used_simd =
            kernels.single != nullptr && hints == nullptr &&
            !with_profile;
    }
    const batch::SiteTables site_tables =
        kernels.single != nullptr && hints == nullptr
            ? batch::buildSiteTables(concrete, buffer)
            : batch::SiteTables{};
    const std::vector<std::uint8_t> hint_codes =
        hints != nullptr ? hintCodesFor(*hints, buffer)
                         : std::vector<std::uint8_t>{};

    const auto run = [&](auto with_profile_tag, auto track_tag,
                         Count from, Count to, SimStats &stats,
                         ProfileDb *profile) {
        constexpr bool kWithProfile = decltype(with_profile_tag)::value;
        constexpr bool kTrack = decltype(track_tag)::value;
        if (hints != nullptr) {
            runReplayCombined<kWithProfile, kTrack>(
                concrete, hint_codes.data(), policy, buffer, from, to,
                stats, profile);
        } else if (!kWithProfile && kernels.single != nullptr) {
            batch::SingleArgs<P> args;
            args.predictor = &concrete;
            args.stats = &stats;
            args.buffer = &buffer;
            args.siteTables = &site_tables;
            args.from = from;
            args.to = to;
            args.track = kTrack;
            kernels.single(args);
        } else {
            runReplayDynamic<kWithProfile, kTrack>(
                concrete, buffer, from, to, stats, profile);
        }
    };

    // Warmup: train the predictor without recording anything.
    if (warmup_end > 0) {
        SimStats discarded;
        if (track) {
            run(std::false_type{}, std::true_type{}, 0, warmup_end,
                discarded, nullptr);
        } else {
            run(std::false_type{}, std::false_type{}, 0, warmup_end,
                discarded, nullptr);
        }
        outer.clearCollisionStats();
    }

    SimStats stats;
    if (with_profile && track) {
        run(std::true_type{}, std::true_type{}, warmup_end, end, stats,
            options.profile);
    } else if (with_profile) {
        run(std::true_type{}, std::false_type{}, warmup_end, end,
            stats, options.profile);
    } else if (track) {
        run(std::false_type{}, std::true_type{}, warmup_end, end,
            stats, nullptr);
    } else {
        run(std::false_type{}, std::false_type{}, warmup_end, end,
            stats, nullptr);
    }

    stats.collisions = outer.collisionStats();
    return stats;
}

/** Per-site profile accumulator standing in for a ProfileDb. */
struct DenseProfile
{
    std::vector<BranchProfile> counts;
};

/**
 * Dense-profile variant of runReplayDynamic<true, Track> for the
 * fused executor: per-branch profile updates hit a site-indexed
 * array instead of the ProfileDb hash map; the counts are flushed
 * into the real database when the pass finishes. Every record of the
 * dynamic path is predicted, so predicted mirrors executed, and
 * adding a zero collision count matches skipping the call.
 */
template <bool Track, typename P>
void
runReplayDynamicDense(P &predictor, const ReplayBuffer &buffer,
                      Count start, Count end, SimStats &stats,
                      DenseProfile &dense)
{
    const std::uint32_t *site_of = buffer.siteData();
    const Addr *site_pcs = buffer.sitePcs();
    const std::uint32_t *packed = buffer.packedData();

    for (Count base = start; base < end; base += kernelBlock) {
        const Count stop = std::min(base + kernelBlock, end);
        for (Count i = base; i < stop; ++i) {
            const Addr pc = site_pcs[site_of[i]];
            const std::uint32_t word = packed[i];
            const bool taken =
                (word & ReplayBuffer::packedTakenBit) != 0;

            const bool prediction =
                predictor.template predictStep<Track>(pc);
            const bool correct = prediction == taken;
            const Count lookup_collisions = predictor.pendingStep();

            predictor.template updateStep<Track>(pc, taken);
            predictor.historyStep(taken);

            ++stats.branches;
            stats.instructions += word & ~ReplayBuffer::packedTakenBit;
            if (!correct)
                ++stats.mispredictions;

            BranchProfile &site = dense.counts[site_of[i]];
            ++site.executed;
            site.taken += taken ? 1 : 0;
            ++site.predicted;
            site.correct += correct ? 1 : 0;
            site.collisions += lookup_collisions;
        }
    }
}

/**
 * One participant of a fused pass's shared block walk: a single sim
 * (FusedStepper) or a gang of same-type sims (GangStepper).
 */
class FusedExec
{
  public:
    virtual ~FusedExec() = default;

    /** One past the last record this exec consumes. */
    virtual Count end() const = 0;

    /** Step through records [from, to) of the shared walk. */
    virtual void step(Count from, Count to) = 0;

    /** Finalize stats and run-level counters after the pass. */
    virtual void finish() = 0;
};

/**
 * Per-sim driver of a fused pass: owns this sim's warmup/measurement
 * window over the shared block walk and forwards each visited span to
 * the right replay loop. One subclass per dispatch outcome (kernel vs
 * virtual), mirroring simulateReplay()'s per-cell dispatch.
 */
class FusedStepper : public FusedExec
{
  public:
    FusedStepper(FusedSim &sim, const ReplayBuffer &buffer)
        : sim(sim), buffer(buffer)
    {
        const Count total = buffer.size();
        warmupEnd = std::min(sim.options.warmupBranches, total);
        const Count limit = sim.options.maxBranches == 0
                                ? ~Count{0}
                                : sim.options.maxBranches;
        lastRecord = warmupEnd + std::min(limit, total - warmupEnd);
    }

    /** One past the last record this sim consumes. */
    Count end() const override { return lastRecord; }

    /** Step the sim through records [from, to). */
    void
    step(Count from, Count to) override
    {
        if (from < warmupEnd) {
            const Count warm_to = std::min(to, warmupEnd);
            runSegment(from, warm_to, false);
            // Collision state accumulated during warmup is discarded
            // exactly once, at the warmup/measurement boundary — the
            // same schedule the per-cell paths follow.
            if (warm_to == warmupEnd)
                sim.predictor->clearCollisionStats();
            from = warm_to;
        }
        if (from < to)
            runSegment(from, to, true);
    }

  protected:
    /** Replay [from, to); @p measured picks warmup vs measurement. */
    virtual void runSegment(Count from, Count to, bool measured) = 0;

    FusedSim &sim;
    const ReplayBuffer &buffer;
    Count warmupEnd = 0;
    Count lastRecord = 0;
    SimStats warmupStats; // discarded, as per-cell warmup stats are
};

/**
 * Fused stepper running the devirtualized kernels for concrete
 * predictor type @p P. Hint lookups (combined sims) and profile
 * accumulation (profiling sims, and scenario evaluations, which
 * profile for their per-context split) run on dense arrays indexed
 * by the buffer's site ids; both are pure accelerations with
 * bit-identical results.
 */
template <typename P>
class KernelStepper final : public FusedStepper
{
  public:
    KernelStepper(FusedSim &sim, const ReplayBuffer &buffer,
                  P &concrete, const HintDb *hints, ShiftPolicy policy)
        : FusedStepper(sim, buffer), concrete(concrete), hints(hints),
          policy(policy),
          kernels(batchKernelsFor<P>(
              resolveSimdLevel(sim.options.simd)))
    {
        const bool with_profile = sim.options.profile != nullptr;
        batched = kernels.single != nullptr;
        if (hints != nullptr)
            hintCode = hintCodesFor(*hints, buffer);
        // The record-at-a-time hinted kernel keeps its ProfileDb.
        useDense = with_profile && (batched || hints == nullptr);
        if (useDense)
            dense.counts.assign(buffer.siteCount(), BranchProfile{});
        if (batched)
            siteTables = batch::buildSiteTables(concrete, buffer);
    }

    void
    finish() override
    {
        if (useDense) {
            for (std::uint32_t s = 0; s < buffer.siteCount(); ++s)
                if (dense.counts[s].executed > 0)
                    sim.options.profile->addCounts(buffer.sitePc(s),
                                                   dense.counts[s]);
        }
        sim.stats.collisions = sim.predictor->collisionStats();
        sim.usedFastPath = true;
        sim.usedSimd = batched;
        if (sim.options.counters != nullptr) {
            sim.options.counters->add("engine.kernel_runs");
            sim.options.counters->add("engine.branches",
                                      sim.stats.branches);
            const Count warmup_run =
                std::min(sim.options.warmupBranches, buffer.size());
            if (warmup_run > 0)
                sim.options.counters->add("engine.warmup_branches",
                                          warmup_run);
        }
    }

  protected:
    void
    runSegment(Count from, Count to, bool measured) override
    {
        SimStats &stats = measured ? sim.stats : warmupStats;
        ProfileDb *profile =
            measured ? sim.options.profile : nullptr;
        const bool with_profile = profile != nullptr;
        const bool track = sim.options.trackCollisions;

        if (batched) {
            batch::SingleArgs<P> args;
            args.predictor = &concrete;
            args.stats = &stats;
            args.buffer = &buffer;
            args.from = from;
            args.to = to;
            args.track = track;
            args.siteTables = &siteTables;
            args.hintCodes = hints != nullptr ? hintCode.data() : nullptr;
            args.profiles = with_profile ? dense.counts.data() : nullptr;
            args.policy = policy;
            kernels.single(args);
            return;
        }

        const auto run = [&](auto profile_tag, auto track_tag) {
            constexpr bool kWithProfile =
                decltype(profile_tag)::value;
            constexpr bool kTrack = decltype(track_tag)::value;
            if (hints != nullptr) {
                runReplayCombined<kWithProfile, kTrack>(
                    concrete, hintCode.data(), policy, buffer, from, to,
                    stats, profile);
            } else if constexpr (kWithProfile) {
                runReplayDynamicDense<kTrack>(concrete, buffer, from, to,
                                              stats, dense);
            } else {
                runReplayDynamic<false, kTrack>(
                    concrete, buffer, from, to, stats, profile);
            }
        };

        if (with_profile && track)
            run(std::true_type{}, std::true_type{});
        else if (with_profile)
            run(std::true_type{}, std::false_type{});
        else if (track)
            run(std::false_type{}, std::true_type{});
        else
            run(std::false_type{}, std::false_type{});
    }

  private:
    P &concrete;
    const HintDb *hints;
    ShiftPolicy policy;
    std::vector<std::uint8_t> hintCode;
    DenseProfile dense;
    bool useDense = false;
    BatchKernelSet<P> kernels;
    batch::SiteTables siteTables;
    bool batched = false;
};

/**
 * Fused stepper for predictors outside the devirtualized set: the
 * virtual-dispatch loop of simulate()/runMeasured(), segmented over
 * the shared block walk. Bit-identical to the per-cell fallback.
 */
class VirtualStepper final : public FusedStepper
{
  public:
    VirtualStepper(FusedSim &sim, const ReplayBuffer &buffer)
        : FusedStepper(sim, buffer),
          combined(dynamic_cast<CombinedPredictor *>(sim.predictor))
    {
    }

    void
    finish() override
    {
        sim.stats.collisions = sim.predictor->collisionStats();
        sim.usedFastPath = false;
        if (sim.options.counters != nullptr) {
            sim.options.counters->add("engine.virtual_runs");
            sim.options.counters->add("engine.branches",
                                      sim.stats.branches);
            if (warmupRun > 0)
                sim.options.counters->add("engine.warmup_branches",
                                          warmupRun);
        }
    }

  protected:
    void
    runSegment(Count from, Count to, bool measured) override
    {
        BranchPredictor &predictor = *sim.predictor;
        BranchRecord record;
        if (!measured) {
            for (Count i = from; i < to; ++i) {
                buffer.get(i, record);
                predictor.predict(record.pc);
                predictor.update(record.pc, record.taken);
                predictor.updateHistory(record.taken);
            }
            warmupRun += to - from;
            return;
        }

        ProfileDb *profile = sim.options.profile;
        const bool with_profile = profile != nullptr;
        SimStats &stats = sim.stats;
        for (Count i = from; i < to; ++i) {
            buffer.get(i, record);
            const bool prediction = predictor.predict(record.pc);
            const bool correct = prediction == record.taken;
            // Must be sampled between predict() and update():
            // update() classifies and clears the pending state.
            Count lookup_collisions = 0;
            if (with_profile)
                lookup_collisions = predictor.lastPredictCollisions();

            predictor.update(record.pc, record.taken);
            predictor.updateHistory(record.taken);

            ++stats.branches;
            stats.instructions += record.instGap;
            if (!correct)
                ++stats.mispredictions;

            bool was_static = false;
            if (combined != nullptr) {
                was_static = combined->lastWasStatic();
                if (was_static) {
                    ++stats.staticPredicted;
                    if (!correct)
                        ++stats.staticMispredictions;
                }
            }

            if (with_profile) {
                profile->recordOutcome(record.pc, record.taken);
                // Accuracy counts describe the *dynamic* predictor,
                // so statically resolved branches do not contribute.
                if (!was_static) {
                    profile->recordPrediction(record.pc, correct);
                    if (lookup_collisions > 0)
                        profile->recordCollisions(record.pc,
                                                  lookup_collisions);
                }
            }
        }
    }

  private:
    CombinedPredictor *combined;
    Count warmupRun = 0;
};

/**
 * Record-major gang kernel: advance @p n same-type predictors through
 * each record before moving to the next one. The members' dependent
 * chains (history -> index -> table load -> update) are mutually
 * independent, so the out-of-order window overlaps them — the main
 * single-core speedup of fusing. Per member the record-level operation
 * sequence is exactly runReplayCombinedSites', so results are
 * bit-identical to a private pass (an all-zero hint-code array makes
 * that sequence identical to runReplayDynamic's).
 */
template <bool Track, ShiftPolicy Policy, std::size_t N, typename P>
void
runReplayGang(P *const *predictors,
              const std::uint8_t *const *hint_codes,
              SimStats *const *stats, const ReplayBuffer &buffer,
              Count start, Count end)
{
    const std::uint32_t *site_of = buffer.siteData();
    const Addr *site_pcs = buffer.sitePcs();
    const std::uint32_t *packed = buffer.packedData();

    // Hoist the member state and keep the counters in locals: with N
    // a compile-time constant the member loop fully unrolls and the
    // accumulators stay register-resident instead of round-tripping
    // through SimStats memory on every record.
    P *preds[N];
    const std::uint8_t *codes[N];
    for (std::size_t k = 0; k < N; ++k) {
        preds[k] = predictors[k];
        codes[k] = hint_codes[k];
    }
    Count branches = 0;
    Count instructions = 0;
    Count mispredictions[N]{};
    Count static_predicted[N]{};
    Count static_mispredicted[N]{};

    for (Count i = start; i < end; ++i) {
        const std::uint32_t site = site_of[i];
        const Addr pc = site_pcs[site];
        const std::uint32_t word = packed[i];
        const bool taken = (word & ReplayBuffer::packedTakenBit) != 0;
        const std::uint32_t gap = word & ~ReplayBuffer::packedTakenBit;
        ++branches;
        instructions += gap;

        for (std::size_t k = 0; k < N; ++k) {
            P &predictor = *preds[k];

            const std::uint8_t code = codes[k][site];
            bool correct;
            if ((code & hintPresentBit) != 0) {
                const bool hint_direction =
                    (code & hintTakenBit) != 0;
                correct = hint_direction == taken;
                if constexpr (Policy == ShiftPolicy::ShiftOutcome)
                    predictor.historyStep(taken);
                else if constexpr (Policy ==
                                   ShiftPolicy::ShiftPrediction)
                    predictor.historyStep(hint_direction);
                ++static_predicted[k];
                if (!correct)
                    ++static_mispredicted[k];
            } else {
                const bool prediction =
                    predictor.template predictStep<Track>(pc);
                correct = prediction == taken;
                predictor.template updateStep<Track>(pc, taken);
                predictor.historyStep(taken);
            }

            if (!correct)
                ++mispredictions[k];
        }
    }

    // Pure integer sums flushed once per segment: the totals equal
    // the per-record increments of a private pass exactly.
    for (std::size_t k = 0; k < N; ++k) {
        SimStats &st = *stats[k];
        st.branches += branches;
        st.instructions += instructions;
        st.mispredictions += mispredictions[k];
        st.staticPredicted += static_predicted[k];
        st.staticMispredictions += static_mispredicted[k];
    }
}

/**
 * Fused driver for a gang of evaluation sims (no profiling) whose
 * dynamic components share one concrete type, one warmup/measurement
 * window, one collision-tracking setting and one effective shift
 * policy. Hint sets stay per-member (dense per-site code arrays;
 * all-zero for members without hints).
 */
template <typename P>
class GangStepper final : public FusedExec
{
  public:
    struct Member
    {
        FusedSim *sim = nullptr;
        P *concrete = nullptr;
        std::vector<std::uint8_t> hintCode;
    };

    GangStepper(std::vector<Member> gang_members,
                const ReplayBuffer &buffer, ShiftPolicy policy, bool track)
        : members(std::move(gang_members)), buffer(buffer),
          policy(policy), track(track),
          warmupStats(members.size())
    {
        const Count total = buffer.size();
        const FusedSim &first = *members.front().sim;
        warmupEnd = std::min(first.options.warmupBranches, total);
        const Count limit = first.options.maxBranches == 0
                                ? ~Count{0}
                                : first.options.maxBranches;
        lastRecord = warmupEnd + std::min(limit, total - warmupEnd);
        for (const Member &member : members) {
            bpsim_assert(
                member.sim->options.warmupBranches ==
                        first.options.warmupBranches &&
                    member.sim->options.maxBranches ==
                        first.options.maxBranches,
                "gang members must share one replay window");
            predictors.push_back(member.concrete);
            codes.push_back(member.hintCode.data());
        }
        // All members share one simd setting (part of the gang key).
        kernels =
            batchKernelsFor<P>(resolveSimdLevel(first.options.simd));
        if (kernels.gang != nullptr) {
            memberTables.reserve(members.size());
            for (const Member &member : members) {
                memberTables.push_back(
                    batch::buildSiteTables(*member.concrete, buffer));
            }
            for (const batch::SiteTables &tables : memberTables)
                tablePtrs.push_back(&tables);
        }
    }

    Count end() const override { return lastRecord; }

    void
    step(Count from, Count to) override
    {
        if (from < warmupEnd) {
            const Count warm_to = std::min(to, warmupEnd);
            runSegment(from, warm_to, false);
            // Same discard schedule as the per-cell paths: collision
            // state accumulated during warmup dies at the boundary.
            if (warm_to == warmupEnd) {
                for (Member &member : members)
                    member.sim->predictor->clearCollisionStats();
            }
            from = warm_to;
        }
        if (from < to)
            runSegment(from, to, true);
    }

    void
    finish() override
    {
        for (Member &member : members) {
            FusedSim &sim = *member.sim;
            sim.stats.collisions = sim.predictor->collisionStats();
            sim.usedFastPath = true;
            sim.usedSimd = kernels.gang != nullptr;
            if (sim.options.counters != nullptr) {
                sim.options.counters->add("engine.kernel_runs");
                sim.options.counters->add("engine.branches",
                                          sim.stats.branches);
                const Count warmup_run = std::min(
                    sim.options.warmupBranches, buffer.size());
                if (warmup_run > 0)
                    sim.options.counters->add(
                        "engine.warmup_branches", warmup_run);
            }
        }
    }

  private:
    void
    runSegment(Count from, Count to, bool measured)
    {
        std::vector<SimStats *> stats(members.size());
        for (std::size_t k = 0; k < members.size(); ++k) {
            stats[k] =
                measured ? &members[k].sim->stats : &warmupStats[k];
        }
        // Batched path: one kernel call advances every member through
        // the segment (the batch driver walks members per batch, so
        // the trace columns decode once regardless of gang size).
        if (kernels.gang != nullptr) {
            batch::GangArgs<P> args;
            args.predictors = predictors.data();
            args.siteTables = tablePtrs.data();
            args.hintCodes = codes.data();
            args.stats = stats.data();
            args.n = members.size();
            args.buffer = &buffer;
            args.from = from;
            args.to = to;
            args.policy = policy;
            args.track = track;
            kernels.gang(args);
            return;
        }
        // Record-at-a-time path: larger gangs run as sub-gangs of at
        // most four members; the fixed-N kernels keep their
        // accumulators in registers, and four independent predictor
        // chains already saturate the out-of-order window. Each
        // member still sees every record of [from, to) exactly once,
        // in order.
        std::size_t offset = 0;
        while (offset < members.size()) {
            const std::size_t rest = members.size() - offset;
            const std::size_t chunk = std::min<std::size_t>(rest, 4);
            runChunk(offset, chunk, stats.data(), from, to);
            offset += chunk;
        }
    }

    void
    runChunk(std::size_t offset, std::size_t chunk, SimStats **stats,
             Count from, Count to)
    {
        const auto run = [&](auto track_tag, auto n_tag) {
            constexpr bool kTrack = decltype(track_tag)::value;
            constexpr std::size_t kN = decltype(n_tag)::value;
            switch (policy) {
              case ShiftPolicy::NoShift:
                runReplayGang<kTrack, ShiftPolicy::NoShift, kN>(
                    predictors.data() + offset, codes.data() + offset,
                    stats + offset, buffer, from, to);
                break;
              case ShiftPolicy::ShiftOutcome:
                runReplayGang<kTrack, ShiftPolicy::ShiftOutcome, kN>(
                    predictors.data() + offset, codes.data() + offset,
                    stats + offset, buffer, from, to);
                break;
              case ShiftPolicy::ShiftPrediction:
                runReplayGang<kTrack, ShiftPolicy::ShiftPrediction,
                              kN>(predictors.data() + offset,
                                  codes.data() + offset,
                                  stats + offset, buffer, from, to);
                break;
            }
        };
        const auto dispatch = [&](auto track_tag) {
            switch (chunk) {
              case 1:
                run(track_tag,
                    std::integral_constant<std::size_t, 1>{});
                break;
              case 2:
                run(track_tag,
                    std::integral_constant<std::size_t, 2>{});
                break;
              case 3:
                run(track_tag,
                    std::integral_constant<std::size_t, 3>{});
                break;
              default:
                run(track_tag,
                    std::integral_constant<std::size_t, 4>{});
                break;
            }
        };
        if (track)
            dispatch(std::true_type{});
        else
            dispatch(std::false_type{});
    }

    std::vector<Member> members;
    const ReplayBuffer &buffer;
    ShiftPolicy policy;
    bool track;
    Count warmupEnd = 0;
    Count lastRecord = 0;
    std::vector<SimStats> warmupStats; // discarded, like all warmup
    std::vector<P *> predictors;
    std::vector<const std::uint8_t *> codes;
    BatchKernelSet<P> kernels;
    std::vector<batch::SiteTables> memberTables;
    std::vector<const batch::SiteTables *> tablePtrs;
};

} // namespace

SimStats
simulate(BranchPredictor &predictor, BranchStream &stream,
         const SimOptions &options)
{
    if (options.resetStream)
        stream.reset();
    if (options.resetPredictor)
        predictor.reset();
    predictor.clearCollisionStats();

    auto *combined = dynamic_cast<CombinedPredictor *>(&predictor);

    // Warmup: train the predictor without recording anything.
    BranchRecord record;
    Count warmup_run = 0;
    for (Count i = 0;
         i < options.warmupBranches && stream.next(record); ++i) {
        predictor.predict(record.pc);
        predictor.update(record.pc, record.taken);
        predictor.updateHistory(record.taken);
        ++warmup_run;
    }
    predictor.clearCollisionStats();

    const bool with_profile = options.profile != nullptr;
    SimStats stats;
    if (combined != nullptr) {
        stats = with_profile
                    ? runMeasured<true, true>(predictor, combined,
                                              stream, options)
                    : runMeasured<false, true>(predictor, combined,
                                               stream, options);
    } else {
        stats = with_profile
                    ? runMeasured<true, false>(predictor, nullptr,
                                               stream, options)
                    : runMeasured<false, false>(predictor, nullptr,
                                                stream, options);
    }

    if (options.counters != nullptr) {
        options.counters->add("engine.virtual_runs");
        options.counters->add("engine.branches", stats.branches);
        if (warmup_run > 0)
            options.counters->add("engine.warmup_branches",
                                  warmup_run);
    }
    return stats;
}

SimStats
simulateReplay(BranchPredictor &predictor, const ReplayBuffer &buffer,
               const SimOptions &options, bool *used_fast_path,
               bool *used_simd)
{
    SimStats stats;
    bool used = false;

    if (options.fastPath) {
        auto *combined = dynamic_cast<CombinedPredictor *>(&predictor);
        // An empty hint database makes the combined wrapper a pure
        // pass-through, so such cells run the cheaper dynamic kernel;
        // the results are identical.
        const bool hinted =
            combined != nullptr && combined->hintDb().size() > 0;
        const HintDb *hints = hinted ? &combined->hintDb() : nullptr;
        const ShiftPolicy policy =
            hinted ? combined->policy() : ShiftPolicy::NoShift;
        BranchPredictor &dyn = combined != nullptr
                                   ? combined->dynamicComponent()
                                   : predictor;

        used = visitPredictor(dyn, [&](auto &concrete) {
            if (options.resetPredictor)
                predictor.reset();
            predictor.clearCollisionStats();
            stats = runReplay(concrete, predictor, hints, policy,
                              buffer, options, used_simd);
        });
        if (used && options.counters != nullptr) {
            options.counters->add("engine.kernel_runs");
            options.counters->add("engine.branches", stats.branches);
            const Count warmup_run =
                std::min(options.warmupBranches, buffer.size());
            if (warmup_run > 0)
                options.counters->add("engine.warmup_branches",
                                      warmup_run);
        }
    }

    if (!used) {
        auto cursor = buffer.cursor();
        stats = simulate(predictor, cursor, options);
        if (used_simd != nullptr)
            *used_simd = false;
    }
    if (used_fast_path != nullptr)
        *used_fast_path = used;
    return stats;
}

void
simulateReplayFused(std::vector<FusedSim> &sims,
                    const ReplayBuffer &buffer, const SiteIndex *sites)
{
    // The buffer carries its own sites; an index passed alongside
    // can only be a view of them.
    if (sites != nullptr)
        bpsim_assert(sites->siteData() == buffer.siteData(),
                     "site index does not view the replay buffer");

    // Dispatch each sim once (kernel vs virtual, hinted vs dynamic),
    // exactly as simulateReplay() would, and reset its predictor.
    // Evaluation sims (no profile) whose dynamic components share a
    // concrete type, replay window, tracking setting and effective
    // shift policy are ganged into one record-major exec; everything
    // else gets its own stepper.
    struct Resolved
    {
        const HintDb *hints = nullptr;
        ShiftPolicy policy = ShiftPolicy::NoShift;
        BranchPredictor *dyn = nullptr;
    };
    std::vector<Resolved> resolved(sims.size());

    struct GangPlan
    {
        std::type_index type;
        ShiftPolicy policy;
        Count warmup = 0;
        Count max = 0;
        bool track = false;
        bool simd = false;
        std::vector<std::size_t> members;
    };
    std::vector<GangPlan> plans;

    std::vector<std::unique_ptr<FusedExec>> execs;
    execs.reserve(sims.size());

    const auto makeStepper = [&](std::size_t s) {
        FusedSim &sim = sims[s];
        std::unique_ptr<FusedExec> stepper;
        if (sim.options.fastPath && resolved[s].dyn != nullptr) {
            visitPredictor(*resolved[s].dyn, [&](auto &concrete) {
                using Concrete = std::decay_t<decltype(concrete)>;
                stepper = std::make_unique<KernelStepper<Concrete>>(
                    sim, buffer, concrete, resolved[s].hints,
                    resolved[s].policy);
            });
        }
        if (stepper == nullptr)
            stepper = std::make_unique<VirtualStepper>(sim, buffer);
        execs.push_back(std::move(stepper));
    };

    for (std::size_t s = 0; s < sims.size(); ++s) {
        FusedSim &sim = sims[s];
        bpsim_assert(sim.predictor != nullptr,
                     "fused sim needs a predictor");
        sim.stats = SimStats{};
        sim.usedFastPath = false;
        sim.usedSimd = false;

        auto *combined =
            dynamic_cast<CombinedPredictor *>(sim.predictor);
        // An empty hint database makes the combined wrapper a pure
        // pass-through, so such sims run the cheaper dynamic kernel;
        // the results are identical.
        const bool hinted =
            combined != nullptr && combined->hintDb().size() > 0;
        resolved[s].hints = hinted ? &combined->hintDb() : nullptr;
        resolved[s].policy =
            hinted ? combined->policy() : ShiftPolicy::NoShift;
        resolved[s].dyn = combined != nullptr
                              ? &combined->dynamicComponent()
                              : sim.predictor;

        bool planned = false;
        if (sim.options.fastPath &&
            sim.options.profile == nullptr) {
            visitPredictor(*resolved[s].dyn, [&](auto &concrete) {
                const std::type_index type(typeid(concrete));
                GangPlan *plan = nullptr;
                for (GangPlan &candidate : plans) {
                    if (candidate.type == type &&
                        candidate.policy == resolved[s].policy &&
                        candidate.warmup ==
                            sim.options.warmupBranches &&
                        candidate.max == sim.options.maxBranches &&
                        candidate.track ==
                            sim.options.trackCollisions &&
                        candidate.simd == sim.options.simd) {
                        plan = &candidate;
                        break;
                    }
                }
                if (plan == nullptr) {
                    plans.push_back({type, resolved[s].policy,
                                     sim.options.warmupBranches,
                                     sim.options.maxBranches,
                                     sim.options.trackCollisions,
                                     sim.options.simd,
                                     {}});
                    plan = &plans.back();
                }
                plan->members.push_back(s);
                planned = true;
            });
        }
        if (!planned)
            makeStepper(s);

        if (sim.options.resetPredictor)
            sim.predictor->reset();
        sim.predictor->clearCollisionStats();
    }

    for (const GangPlan &plan : plans) {
        // A singleton gang gains nothing; run the plain kernel
        // stepper (identical results either way).
        if (plan.members.size() == 1) {
            makeStepper(plan.members.front());
            continue;
        }
        visitPredictor(
            *resolved[plan.members.front()].dyn, [&](auto &first) {
                using Concrete = std::decay_t<decltype(first)>;
                using Gang = GangStepper<Concrete>;
                std::vector<typename Gang::Member> members;
                members.reserve(plan.members.size());
                for (const std::size_t s : plan.members) {
                    typename Gang::Member member;
                    member.sim = &sims[s];
                    member.concrete =
                        &dynamic_cast<Concrete &>(*resolved[s].dyn);
                    member.hintCode =
                        resolved[s].hints != nullptr
                            ? hintCodesFor(*resolved[s].hints, buffer)
                            : std::vector<std::uint8_t>(
                                  buffer.siteCount(), 0);
                    members.push_back(std::move(member));
                }
                execs.push_back(std::make_unique<Gang>(
                    std::move(members), buffer, plan.policy,
                    plan.track));
            });
    }

    // The fused walk: every sim steps through each block before the
    // pass moves to the next one, so the trace columns are decoded
    // from cache-resident memory once per block instead of once per
    // sim. Block boundaries are semantically invisible — each sim's
    // predictor state advances through the same record sequence it
    // would see in a private pass.
    Count max_end = 0;
    for (const auto &stepper : execs)
        max_end = std::max(max_end, stepper->end());

    for (Count base = 0; base < max_end; base += fusedBlock) {
        const Count block_stop = std::min(base + fusedBlock, max_end);
        for (auto &stepper : execs) {
            const Count to = std::min(block_stop, stepper->end());
            if (base < to)
                stepper->step(base, to);
        }
    }

    for (auto &stepper : execs)
        stepper->finish();
}

} // namespace bpsim
