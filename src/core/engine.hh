/**
 * @file
 * Trace-driven simulation engine.
 *
 * Drives a predictor over a branch stream with the strict
 * predict/update/updateHistory protocol, gathers SimStats, and can
 * simultaneously populate a ProfileDb with per-branch outcome and
 * accuracy counts — which is exactly what the paper's phase-1
 * (selection) runs need.
 */

#ifndef BPSIM_CORE_ENGINE_HH
#define BPSIM_CORE_ENGINE_HH

#include <vector>

#include "core/sim_stats.hh"
#include "predictor/predictor.hh"
#include "profile/profile_db.hh"
#include "support/observe.hh"
#include "trace/branch_stream.hh"

namespace bpsim
{

class ReplayBuffer;

/** Options for one simulation run. */
struct SimOptions
{
    /** Stop after this many branches (0 = run the stream dry). */
    Count maxBranches = 0;

    /**
     * Branches simulated before statistics collection starts. The
     * predictor trains during warmup but mispredictions, collisions
     * and profile data are not recorded; maxBranches counts only the
     * measured window. Warmup removes cold-start noise when
     * comparing small measurement windows.
     */
    Count warmupBranches = 0;

    /**
     * Optional per-branch profile collector. Receives every outcome
     * and, for dynamically predicted branches, every prediction
     * result.
     */
    ProfileDb *profile = nullptr;

    /** Reset the predictor (tables + stats) before starting. */
    bool resetPredictor = true;

    /** Reset the stream before starting. */
    bool resetStream = true;

    /**
     * Let simulateReplay() use the devirtualized block kernels when
     * the predictor's concrete type supports them. When clear (or
     * when the type is not in BPSIM_KERNEL_PREDICTORS) the run
     * falls back to the virtual-dispatch loop; results are
     * bit-identical either way.
     */
    bool fastPath = true;

    /**
     * Collect collision statistics. Honoured by the fast path only:
     * with it clear the kernels compile the tag bookkeeping out, so
     * SimStats::collisions and per-branch profile collision counts
     * read zero. The virtual path always tracks. Leave set whenever
     * collision numbers are part of the result.
     */
    bool trackCollisions = true;

    /**
     * Let the fast path run the batched SIMD-dispatch kernels
     * (core/batch_kernels.hh). When clear — or when BPSIM_SIMD=off
     * overrides — the record-at-a-time kernels run instead; results
     * are bit-identical either way. Honoured only where a batched
     * path exists (plain dynamic sims; in fused passes also gangs,
     * hinted sims and dense-profile sims, scenario evaluations
     * included); other shapes silently use the record-at-a-time
     * kernels.
     */
    bool simd = true;

    /**
     * Optional run-level counter registry (observability). The
     * engine bumps engine.kernel_runs / engine.virtual_runs,
     * engine.branches and engine.warmup_branches once per simulation
     * run — never inside the per-branch loop — so attaching a
     * registry costs nothing on the hot path.
     */
    CounterRegistry *counters = nullptr;
};

/**
 * Run @p predictor over @p stream.
 *
 * Works for plain dynamic predictors and for CombinedPredictor; in
 * the latter case static/dynamic attribution in the stats is taken
 * from the combined predictor.
 */
SimStats simulate(BranchPredictor &predictor, BranchStream &stream,
                  const SimOptions &options = {});

/**
 * Run @p predictor over a materialized trace.
 *
 * Semantically identical to simulate() over @p buffer.cursor() —
 * same stats, same profile contents, same final predictor state —
 * but when @p predictor (or, for a CombinedPredictor, its dynamic
 * component) is a kernel-capable type (BPSIM_KERNEL_PREDICTORS), the
 * run dispatches once on the concrete type and executes a templated
 * block kernel
 * over the buffer's raw columns: no virtual calls in the per-branch
 * loop. options.resetStream is meaningless here (the buffer is
 * immutable) and ignored.
 *
 * @param used_fast_path optionally receives whether a devirtualized
 *                       kernel ran (false = virtual fallback)
 * @param used_simd      optionally receives whether the batched
 *                       SIMD-dispatch kernels ran (false = the
 *                       record-at-a-time kernels or virtual loop)
 */
SimStats simulateReplay(BranchPredictor &predictor,
                        const ReplayBuffer &buffer,
                        const SimOptions &options = {},
                        bool *used_fast_path = nullptr,
                        bool *used_simd = nullptr);

class SiteIndex;

/**
 * One simulation of a fused replay pass: the predictor (with any
 * static-hint database and shift policy wrapped inside a
 * CombinedPredictor), its options, and the result slots
 * simulateReplayFused() fills.
 */
struct FusedSim
{
    /** The predictor to drive (not owned). */
    BranchPredictor *predictor = nullptr;

    /** Per-sim options; resetStream is ignored as in simulateReplay. */
    SimOptions options;

    /** Output: the run's statistics. */
    SimStats stats;

    /** Output: whether this sim ran a devirtualized kernel. */
    bool usedFastPath = false;

    /** Output: whether this sim ran the batched SIMD-dispatch
     * kernels (always false when usedFastPath is false). */
    bool usedSimd = false;
};

/**
 * Run every sim of @p sims over @p buffer in one fused pass: the
 * buffer's records are visited block by block, and every sim steps
 * through each block before the pass moves on, so N predictor
 * configurations share one trace walk instead of N.
 *
 * Results are bit-identical to calling simulateReplay() once per sim:
 * each sim advances its own predictor, history and statistics through
 * the same record sequence, warmup and maxBranches windows are
 * honoured per sim, and the same kernel-vs-virtual dispatch applies
 * (per sim, reported in FusedSim::usedFastPath).
 *
 * Hint lookups and per-branch profile accumulation run on dense
 * arrays indexed by the buffer's site ids. @p sites is accepted for
 * source compatibility only: when given it must be a view of
 * @p buffer's own sites (SiteIndex::build(buffer)).
 */
void simulateReplayFused(std::vector<FusedSim> &sims,
                         const ReplayBuffer &buffer,
                         const SiteIndex *sites = nullptr);

} // namespace bpsim

#endif // BPSIM_CORE_ENGINE_HH
