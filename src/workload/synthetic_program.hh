/**
 * @file
 * Executable synthetic program: a BranchStream over a synthetic CFG.
 *
 * This stands in for the paper's Atom-instrumented Alpha binaries: it
 * produces an unbounded, fully deterministic (seeded) stream of
 * conditional-branch executions with realistic frequency skew, loop
 * structure, history correlation and train/ref input divergence.
 */

#ifndef BPSIM_WORKLOAD_SYNTHETIC_PROGRAM_HH
#define BPSIM_WORKLOAD_SYNTHETIC_PROGRAM_HH

#include <cstddef>
#include <memory>
#include <string>
#include <vector>

#include "support/error.hh"
#include "support/random.hh"
#include "workload/cfg.hh"
#include "workload/workload_source.hh"

namespace bpsim
{

/** A runnable synthetic program. The stream never ends; bound it. */
class SyntheticProgram : public WorkloadSource
{
  public:
    /**
     * @param name    human-readable program name
     * @param regions program structure (takes ownership)
     * @param seed    run seed; combined with the input set
     * @param input   which input set to run with
     * @param mean_schedule_len     mean regions per schedule
     * @param mean_schedule_repeats mean schedule repetitions per phase
     */
    SyntheticProgram(std::string name, std::vector<Region> regions,
                     std::uint64_t seed, InputSet input,
                     unsigned mean_schedule_len = 6,
                     double mean_schedule_repeats = 64);

    // The structure owns unique_ptrs; the program is move-only.
    SyntheticProgram(SyntheticProgram &&) = default;
    SyntheticProgram &operator=(SyntheticProgram &&) = default;

    bool next(BranchRecord &record) override;
    void reset() override;

    /** Static branch sites, loop controls included (the site
     * numbers nextSite() reports lie below it). */
    std::uint32_t siteCount() const override { return numberedSites; }

    bool nextSite(BranchRecord &record, std::uint32_t &site) override;

    /** Switch input set (also resets execution state). */
    void setInput(InputSet input) override;

    /** Current input set. */
    InputSet input() const override { return currentInput; }

    /** Program name. */
    const std::string &name() const override { return programName; }

    /** Run seed (with the name, the program's checkpoint identity). */
    std::uint64_t seedValue() const override { return seed; }

    /** Number of static conditional branches in the program. */
    std::size_t staticBranchCount() const;

    /**
     * Approximate static instruction count: branch sites plus their
     * surrounding straight-line code (sum of gap means).
     */
    Count staticInstructionEstimate() const;

    /** Mutable region access (used by the builder and tests). */
    std::vector<Region> &regionData() { return regions; }
    const std::vector<Region> &regionData() const { return regions; }

  private:
    /** One level of the block-walking stack. */
    struct Frame
    {
        Block *block;
        std::size_t index;
        /** Loop whose body this frame executes; null for region root. */
        Loop *loop;
        /** Completed body iterations of that loop. */
        std::uint32_t iterations;
    };

    /** Evaluate @p site, fill @p record, update global history. */
    void emit(BranchSite &site, BranchRecord &record);

    /** Produce the next record (the body of next() and nextSite()). */
    bool walk(BranchRecord &record);

    /** Rebuild the region sampler for the current input. */
    void rebuildSampler();

    /** Assign every site its dense number. */
    void numberSites();

    std::string programName;
    std::vector<Region> regions;
    std::uint64_t seed;
    InputSet currentInput;

    Rng execRng;
    std::unique_ptr<Rng::Discrete> regionSampler;
    std::vector<Frame> stack;
    std::uint64_t globalHistory = 0;
    std::uint64_t semanticHistory = 0;
    std::uint32_t numberedSites = 0;
    std::uint32_t lastSite = 0;

    // Phase structure: the current region schedule and its position.
    unsigned meanScheduleLen;
    double meanScheduleRepeats;
    std::vector<std::size_t> schedule;
    std::size_t schedulePos = 0;
    std::uint64_t repeatsLeft = 0;
};

/**
 * Knobs for the generic program builder. Fractions refer to plain
 * (non-loop-control) branch sites and need not sum to one; the
 * remainder becomes medium-bias Bernoulli branches.
 */
struct ProgramConfig
{
    std::string name = "synthetic";

    /** Approximate number of static conditional branches. */
    std::size_t staticBranches = 1000;

    /** Mean instructions per branch (1000 / CBRs-per-KI). */
    double avgGap = 8.0;

    /** Zipf exponent of region selection frequency. */
    double zipfExponent = 1.0;

    /** Mean plain sites per region (region size is randomised). */
    unsigned meanRegionSites = 10;

    // --- behaviour mixture over plain sites ---
    double fracHighBias = 0.45;   ///< bias concentrated near 1.0
    double fracLowBias = 0.10;    ///< bias in [0.50, 0.70)
    double fracCorrelated = 0.15; ///< ghist-parity branches
    double fracPattern = 0.05;    ///< fixed local patterns
    double fracPhase = 0.03;      ///< phase-changing bias

    /** Bias range of the remaining ("medium") Bernoulli sites. */
    double medBiasLo = 0.75;
    double medBiasHi = 0.95;

    /**
     * Share of the high-bias class that is effectively deterministic
     * (bias 99.99%: never-failing guards, error paths). The rest
     * draws bias quadratically close to 1. A high value gives static
     * prediction of biased branches a near-zero misprediction floor.
     */
    double highBiasHardFrac = 0.5;

    /**
     * Probability that a biased site's majority direction is taken.
     * Real code skews not-taken (error paths, guards), which makes a
     * substantial share of predictor collisions constructive; a value
     * of 0.5 would make nearly all collisions destructive.
     */
    double takenMajorityFrac = 0.35;

    /** Fraction of loops with a constant (counted) trip count. */
    double fixedTripFrac = 0.5;

    // --- phase structure ---
    /**
     * Regions are not drawn independently: execution follows a
     * *schedule* of regions (an outer loop over hot functions) that
     * repeats many times before being redrawn. This is what makes the
     * global history identify program position, as it does in real
     * code; fully random interleaving would leave history-indexed
     * predictors nothing to learn.
     */
    unsigned meanScheduleLen = 6;

    /** Mean repetitions of a schedule before a redraw (a "phase"). */
    double meanScheduleRepeats = 64;

    // --- loop structure ---
    double loopDensity = 0.12;  ///< probability an item is a loop
    double meanTripCount = 12;  ///< mean control evaluations per entry
    double nestProbability = 0.25; ///< chance a loop body nests another

    /**
     * Fraction of loops with an empty body (tight spin/scan loops).
     * These emit long runs of taken outcomes that saturate a global
     * history register — the classic weakness of the pure-history
     * 'ghist' (GAg) scheme that Static_95 relieves by removing the
     * loop controls from the history stream.
     */
    double emptyLoopFrac = 0.2;

    // --- train/ref divergence (§5.1 of the paper) ---
    /** Fraction of regions executable under the train input. */
    double trainCoverage = 0.97;
    /** Fraction of sites whose majority direction flips train->ref. */
    double flipFraction = 0.02;
    /** Fraction of sites with a >5% bias drift train->ref. */
    double driftFraction = 0.15;
    /** Concentrate flipping sites in the hottest regions. */
    bool hotFlips = false;

    /** Structure seed (PCs, behaviours, weights all derive from it). */
    std::uint64_t seed = 1;

    /**
     * Fail-fast validation: config_invalid Error naming the offending
     * knob (empty program, non-positive gaps/trip counts, fractions
     * outside [0, 1] or a behaviour mixture summing past one).
     * buildProgram() raises it before constructing anything.
     */
    Result<void> validate() const;
};

/** Build a program from @p config; deterministic in config.seed. */
SyntheticProgram buildProgram(const ProgramConfig &config,
                              InputSet input = InputSet::Ref);

} // namespace bpsim

#endif // BPSIM_WORKLOAD_SYNTHETIC_PROGRAM_HH
