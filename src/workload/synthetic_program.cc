#include "workload/synthetic_program.hh"

#include <algorithm>
#include <cmath>

#include "support/bits.hh"
#include "support/logging.hh"

namespace bpsim
{

SyntheticProgram::SyntheticProgram(std::string name,
                                   std::vector<Region> regions,
                                   std::uint64_t seed, InputSet input,
                                   unsigned mean_schedule_len,
                                   double mean_schedule_repeats)
    : programName(std::move(name)), regions(std::move(regions)),
      seed(seed), currentInput(input), execRng(0),
      meanScheduleLen(mean_schedule_len),
      meanScheduleRepeats(mean_schedule_repeats)
{
    bpsim_assert(mean_schedule_len >= 1, "empty schedule");
    bpsim_assert(mean_schedule_repeats >= 1.0, "bad repeat mean");
    bpsim_assert(!this->regions.empty(), "program with no regions");
    numberSites();
    reset();
}

void
SyntheticProgram::numberSites()
{
    // Site PCs are unique across a program (BranchSite::pc), so each
    // site's position in the walk is a valid number for its PC.
    numberedSites = 0;
    for (auto &region : regions) {
        forEachSite(region.body, [this](BranchSite &site) {
            site.number = numberedSites++;
        });
    }
}

void
SyntheticProgram::rebuildSampler()
{
    std::vector<double> weights;
    weights.reserve(regions.size());
    for (const auto &region : regions)
        weights.push_back(
            region.weight[static_cast<unsigned>(currentInput)]);
    regionSampler = std::make_unique<Rng::Discrete>(weights);
    bpsim_assert(!regionSampler->empty(),
                 "no region is executable under this input");
}

void
SyntheticProgram::reset()
{
    execRng =
        Rng(mix64(seed ^ (0x9e37u + static_cast<std::uint64_t>(
                                        currentInput))));
    globalHistory = 0;
    semanticHistory = 0;
    stack.clear();
    schedule.clear();
    schedulePos = 0;
    repeatsLeft = 0;
    rebuildSampler();
    for (auto &region : regions) {
        forEachSite(region.body,
                    [](BranchSite &site) { site.behavior->reset(); });
    }
}

void
SyntheticProgram::setInput(InputSet input)
{
    currentInput = input;
    reset();
}

std::size_t
SyntheticProgram::staticBranchCount() const
{
    std::size_t n = 0;
    for (const auto &region : regions)
        n += countSites(region.body);
    return n;
}

Count
SyntheticProgram::staticInstructionEstimate() const
{
    Count total = 0;
    for (auto &region : const_cast<std::vector<Region> &>(regions)) {
        forEachSite(region.body, [&total](BranchSite &site) {
            total += site.gapMean;
        });
    }
    return total;
}

void
SyntheticProgram::emit(BranchSite &site, BranchRecord &record)
{
    const BehaviorContext ctx{execRng, globalHistory, semanticHistory,
                              currentInput};
    const bool taken = site.behavior->outcome(ctx);

    record.pc = site.pc;
    record.taken = taken;
    lastSite = site.number;
    // Jitter the gap by -1/0/+1 around the mean, floor at 1.
    const std::uint32_t jitter =
        static_cast<std::uint32_t>(execRng.nextBelow(3));
    const std::uint32_t gap = site.gapMean + jitter;
    record.instGap = gap > 1 ? gap - 1 : 1;

    globalHistory = (globalHistory << 1) | (taken ? 1 : 0);
    if (site.semantic)
        semanticHistory = (semanticHistory << 1) | (taken ? 1 : 0);
}

inline bool
SyntheticProgram::walk(BranchRecord &record)
{
    for (;;) {
        if (stack.empty()) {
            // Follow the current region schedule; redraw it when its
            // phase (repeat budget) is exhausted. The repetition is
            // what gives the global history its position-identifying
            // power.
            if (schedulePos >= schedule.size()) {
                schedulePos = 0;
                if (repeatsLeft == 0) {
                    const std::size_t len =
                        1 + execRng.nextBelow(2 * meanScheduleLen - 1);
                    schedule.clear();
                    for (std::size_t i = 0; i < len; ++i)
                        schedule.push_back(
                            regionSampler->sample(execRng));
                    repeatsLeft =
                        execRng.geometric(meanScheduleRepeats);
                }
                --repeatsLeft;
            }
            const std::size_t pick = schedule[schedulePos++];
            stack.push_back({&regions[pick].body, 0, nullptr, 0});
        }

        Frame &frame = stack.back();

        if (frame.index < frame.block->items.size()) {
            CfgItem &item = frame.block->items[frame.index];
            if (auto *site = std::get_if<BranchSite>(&item)) {
                ++frame.index;
                emit(*site, record);
                return true;
            }
            // Loop entry: evaluate the control at the top.
            auto &loop = std::get<Loop>(item);
            emit(loop.control, record);
            if (record.taken) {
                stack.push_back({loop.body.get(), 0, &loop, 0});
            } else {
                ++frame.index;
            }
            return true;
        }

        // Block exhausted.
        if (frame.loop != nullptr) {
            // End of a loop body: re-evaluate the control.
            Loop &loop = *frame.loop;
            ++frame.iterations;
            emit(loop.control, record);
            if (record.taken && frame.iterations < loop.maxIterations) {
                frame.index = 0;
            } else {
                stack.pop_back();
                bpsim_assert(!stack.empty(), "loop body without parent");
                ++stack.back().index;
            }
            return true;
        }

        // Region finished; pick a new one on the next iteration.
        stack.pop_back();
    }
}

bool
SyntheticProgram::next(BranchRecord &record)
{
    return walk(record);
}

bool
SyntheticProgram::nextSite(BranchRecord &record, std::uint32_t &site)
{
    const bool produced = walk(record);
    site = lastSite;
    return produced;
}

namespace
{

/** Transient state shared by the recursive builder helpers. */
struct BuildState
{
    const ProgramConfig &config;
    Rng rng;
    Addr nextPc;
    std::size_t sitesBuilt = 0;
    std::size_t flipsAssigned = 0;

    explicit BuildState(const ProgramConfig &config)
        : config(config), rng(mix64(config.seed ^ 0xb5157ULL)),
          nextPc(0x120000000ULL)
    {}
};

/** Advance the PC cursor past @p instructions instructions. */
Addr
allocatePc(BuildState &state, std::uint32_t instructions)
{
    state.nextPc += instructions * instructionBytes;
    return state.nextPc - instructionBytes;
}

/** Draw a bias magnitude uniformly within [lo, hi). */
double
drawBias(Rng &rng, double lo, double hi)
{
    return lo + rng.nextDouble() * (hi - lo);
}

/**
 * Convert a bias magnitude into a taken probability, choosing the
 * majority direction with the program's taken-majority skew.
 */
double
orientBias(BuildState &state, double bias)
{
    return state.rng.chance(state.config.takenMajorityFrac)
               ? bias
               : 1.0 - bias;
}

std::unique_ptr<BranchBehavior>
makePlainBehavior(BuildState &state, bool hot_region, bool in_loop,
                  bool &semantic_out)
{
    const ProgramConfig &cfg = state.config;
    Rng &rng = state.rng;

    // Decide whether this site flips its majority between inputs. When
    // hotFlips is set, flips only land in hot regions so they carry
    // dynamic weight (the perl/m88ksim failure mode of §5.1).
    const bool may_flip = !cfg.hotFlips || hot_region;
    const bool flips =
        may_flip &&
        rng.chance(cfg.flipFraction * (cfg.hotFlips && hot_region
                                           ? 4.0
                                           : 1.0));
    const bool drifts = !flips && rng.chance(cfg.driftFraction);

    // Helpers shared between the in-loop fast path and the general
    // mixture below.
    const auto make_correlated = [&]() -> std::unique_ptr<BranchBehavior>
    {
        semantic_out = true;
        // Parity over 1-3 of the last 6 semantic outcomes — the
        // correlation channel flows through other data-dependent
        // branches. A minority of branches additionally reads one raw
        // global-history bit, making them sensitive to whether
        // statically predicted outcomes stay in the history register
        // (the paper's Table 4 shift experiment).
        const unsigned nbits =
            1 + static_cast<unsigned>(rng.nextBelow(3));
        std::uint64_t semantic_mask = 0;
        for (unsigned i = 0; i < nbits; ++i)
            semantic_mask |= std::uint64_t{1} << rng.nextBelow(4);
        std::uint64_t global_mask = 0;
        if (rng.chance(0.3))
            global_mask = std::uint64_t{1} << rng.nextBelow(8);
        const bool inv_train = rng.chance(0.5);
        const bool inv_ref = flips ? !inv_train : inv_train;
        const double noise = 0.01 + rng.nextDouble() * 0.06;
        return std::make_unique<CorrelatedBehavior>(
            semantic_mask, global_mask, inv_train, inv_ref, noise);
    };
    const auto make_pattern = [&]() -> std::unique_ptr<BranchBehavior>
    {
        semantic_out = true;
        const std::size_t len = 2 + rng.nextBelow(6);
        std::vector<bool> pattern(len);
        for (std::size_t i = 0; i < len; ++i)
            pattern[i] = rng.chance(0.5);
        return std::make_unique<PatternBehavior>(std::move(pattern));
    };

    // Pattern and correlated branches concentrate inside loop bodies:
    // there a short global history window contains the branch's own
    // recent outcomes and its neighbours', which is what makes such
    // branches history-predictable in real code.
    if (in_loop) {
        const double structured = cfg.fracPattern + cfg.fracCorrelated;
        if (structured > 0.0 &&
            rng.chance(std::min(0.4, 1.5 * structured))) {
            const double pattern_share =
                cfg.fracPattern / structured;
            return rng.chance(pattern_share) ? make_pattern()
                                             : make_correlated();
        }
    }

    const double u = rng.nextDouble();
    double edge = cfg.fracHighBias;
    if (u < edge) {
        // Mass concentrated near 1.0: half the class is effectively
        // always-one-direction (error checks, guards), the rest
        // quadratically close to 1, so the *sampled* bias of most of
        // these branches clears a 95% profiling cutoff.
        const double v = rng.nextDouble();
        const double magnitude = rng.chance(cfg.highBiasHardFrac)
                                     ? 0.9999
                                     : 1.0 - 0.04 * v * v;
        const double p = orientBias(state, magnitude);
        double p_ref = p;
        if (flips)
            p_ref = 1.0 - p;
        else if (drifts)
            p_ref = std::clamp(
                p + (rng.chance(0.5) ? 1 : -1) *
                        drawBias(rng, 0.05, 0.25),
                0.0, 1.0);
        return std::make_unique<BiasedBehavior>(p, p_ref);
    }
    edge += cfg.fracLowBias;
    if (u < edge) {
        semantic_out = true;
        const double p = orientBias(state, drawBias(rng, 0.50, 0.70));
        const double p_ref =
            flips ? 1.0 - p
                  : (drifts ? std::clamp(p + drawBias(rng, -0.15, 0.15),
                                         0.05, 0.95)
                            : p);
        return std::make_unique<BiasedBehavior>(p, p_ref);
    }
    edge += cfg.fracCorrelated;
    if (u < edge)
        return make_correlated();
    edge += cfg.fracPattern;
    if (u < edge)
        return make_pattern();
    edge += cfg.fracPhase;
    if (u < edge) {
        const double p_a = drawBias(rng, 0.05, 0.45);
        const double p_b = drawBias(rng, 0.55, 0.95);
        const std::uint64_t period = 64 + rng.nextBelow(1024);
        return std::make_unique<PhaseBehavior>(p_a, p_b, period);
    }
    // Remainder: medium-bias Bernoulli.
    const double p =
        orientBias(state, drawBias(rng, cfg.medBiasLo, cfg.medBiasHi));
    const double p_ref =
        flips ? 1.0 - p
              : (drifts ? std::clamp(p + drawBias(rng, -0.20, 0.20),
                                     0.05, 0.999)
                        : p);
    if (flips)
        ++state.flipsAssigned;
    return std::make_unique<BiasedBehavior>(p, p_ref);
}

BranchSite
makeSite(BuildState &state, std::unique_ptr<BranchBehavior> behavior)
{
    BranchSite site;
    const double avg = state.config.avgGap;
    // Spread gap means around the average (0.5x .. 1.5x).
    const double factor = 0.5 + state.rng.nextDouble();
    site.gapMean = std::max<std::uint32_t>(
        1, static_cast<std::uint32_t>(std::lround(avg * factor)));
    site.pc = allocatePc(state, site.gapMean);
    site.behavior = std::move(behavior);
    ++state.sitesBuilt;
    return site;
}

/** Build a block with ~@p plain_sites sites; may nest loops. */
Block
buildBlock(BuildState &state, unsigned plain_sites, bool hot_region,
           unsigned depth)
{
    const bool in_loop = depth > 0;
    Block block;
    const ProgramConfig &cfg = state.config;
    for (unsigned i = 0; i < plain_sites; ++i) {
        const bool make_loop =
            depth < 3 && state.rng.chance(cfg.loopDensity);
        if (make_loop) {
            Loop loop;
            const bool fixed = state.rng.chance(cfg.fixedTripFrac);
            // Counted loops stay short enough for a history register
            // to span; data-dependent loops spread around the mean.
            const double trip =
                fixed ? 3.0 + static_cast<double>(
                                  state.rng.nextBelow(10))
                      : std::max(2.0, cfg.meanTripCount *
                                          (0.5 +
                                           state.rng.nextDouble()));
            // Mild per-input trip drift for data-dependent loops.
            const double trip_ref =
                fixed ? trip
                      : std::max(2.0,
                                 trip * (0.9 +
                                         0.2 * state.rng.nextDouble()));
            loop.control = makeSite(
                state,
                std::make_unique<LoopBehavior>(trip, trip_ref, fixed));
            const bool nests =
                depth < 2 && state.rng.chance(cfg.nestProbability);
            const unsigned body_sites =
                state.rng.chance(cfg.emptyLoopFrac)
                    ? 0
                    : 1 + static_cast<unsigned>(state.rng.nextBelow(4));
            loop.body = std::make_unique<Block>(buildBlock(
                state, body_sites, hot_region, depth + (nests ? 1 : 2)));
            block.items.emplace_back(std::move(loop));
        } else {
            bool semantic = false;
            BranchSite site = makeSite(
                state,
                makePlainBehavior(state, hot_region, in_loop,
                                  semantic));
            site.semantic = semantic;
            block.items.emplace_back(std::move(site));
        }
    }
    return block;
}

} // namespace

Result<void>
ProgramConfig::validate() const
{
    if (staticBranches < 4) {
        return Error(ErrorCode::ConfigInvalid,
                     "staticBranches must be >= 4, got " +
                         std::to_string(staticBranches));
    }
    if (meanRegionSites < 1) {
        return Error(ErrorCode::ConfigInvalid,
                     "meanRegionSites must be >= 1 (empty regions)");
    }
    if (!(avgGap > 0.0)) {
        return Error(ErrorCode::ConfigInvalid,
                     "avgGap must be positive, got " +
                         std::to_string(avgGap));
    }
    if (zipfExponent < 0.0) {
        return Error(ErrorCode::ConfigInvalid,
                     "zipfExponent must be non-negative, got " +
                         std::to_string(zipfExponent));
    }
    struct Fraction
    {
        const char *name;
        double value;
    };
    const Fraction fractions[] = {
        {"fracHighBias", fracHighBias},
        {"fracLowBias", fracLowBias},
        {"fracCorrelated", fracCorrelated},
        {"fracPattern", fracPattern},
        {"fracPhase", fracPhase},
        {"highBiasHardFrac", highBiasHardFrac},
        {"takenMajorityFrac", takenMajorityFrac},
        {"fixedTripFrac", fixedTripFrac},
        {"loopDensity", loopDensity},
        {"nestProbability", nestProbability},
        {"emptyLoopFrac", emptyLoopFrac},
        {"trainCoverage", trainCoverage},
        {"flipFraction", flipFraction},
        {"driftFraction", driftFraction},
    };
    for (const Fraction &fraction : fractions) {
        if (fraction.value < 0.0 || fraction.value > 1.0) {
            return Error(ErrorCode::ConfigInvalid,
                         std::string(fraction.name) +
                             " must be in [0, 1], got " +
                             std::to_string(fraction.value));
        }
    }
    const double mixture = fracHighBias + fracLowBias +
                           fracCorrelated + fracPattern + fracPhase;
    if (mixture > 1.0) {
        return Error(ErrorCode::ConfigInvalid,
                     "behaviour mixture fractions sum to " +
                         std::to_string(mixture) + ", must be <= 1");
    }
    if (medBiasLo < 0.0 || medBiasHi > 1.0 || medBiasLo > medBiasHi) {
        return Error(ErrorCode::ConfigInvalid,
                     "medium-bias range [" + std::to_string(medBiasLo) +
                         ", " + std::to_string(medBiasHi) +
                         ") must be ordered within [0, 1]");
    }
    if (meanScheduleLen < 1) {
        return Error(ErrorCode::ConfigInvalid,
                     "meanScheduleLen must be >= 1");
    }
    if (meanScheduleRepeats < 1.0) {
        return Error(ErrorCode::ConfigInvalid,
                     "meanScheduleRepeats must be >= 1, got " +
                         std::to_string(meanScheduleRepeats));
    }
    if (!(meanTripCount > 0.0)) {
        return Error(ErrorCode::ConfigInvalid,
                     "meanTripCount must be positive, got " +
                         std::to_string(meanTripCount));
    }
    return okResult();
}

SyntheticProgram
buildProgram(const ProgramConfig &config, InputSet input)
{
    if (Result<void> valid = config.validate(); !valid.ok())
        raise(std::move(valid.error()));

    BuildState state(config);
    std::vector<Region> regions;

    // Build regions until the static branch budget is spent. Loop
    // controls and loop bodies count against the budget, so the final
    // site count lands close to config.staticBranches.
    const std::size_t rough_regions = std::max<std::size_t>(
        1, config.staticBranches / config.meanRegionSites);
    while (state.sitesBuilt < config.staticBranches) {
        const bool hot_region = regions.size() < std::max<std::size_t>(
                                    1, rough_regions / 16);
        const unsigned sites =
            1 + static_cast<unsigned>(state.rng.nextBelow(
                    2 * config.meanRegionSites - 1));
        Region region;
        region.body = buildBlock(state, sites, hot_region, 0);
        regions.push_back(std::move(region));
    }

    // Region selection frequency follows a Zipf law over the region
    // index, so low-index regions are the hot ones.
    Rng::Zipf zipf(regions.size(), config.zipfExponent);
    for (std::size_t r = 0; r < regions.size(); ++r) {
        const double w = zipf.mass(r);
        regions[r].weight[static_cast<unsigned>(InputSet::Ref)] = w;
        regions[r].weight[static_cast<unsigned>(InputSet::Train)] = w;
    }
    const std::size_t region_count = regions.size();

    // Gate a fraction of the colder regions out of the train input to
    // model imperfect profile coverage (Table 5 "seen with train").
    const std::size_t protect = region_count / 4;
    for (std::size_t r = protect; r < region_count; ++r) {
        if (state.rng.chance(1.0 - config.trainCoverage)) {
            // Scale the miss probability so the overall static
            // coverage lands near trainCoverage.
            regions[r].weight[static_cast<unsigned>(InputSet::Train)] =
                0.0;
        }
    }

    return SyntheticProgram(config.name, std::move(regions),
                            config.seed, input,
                            config.meanScheduleLen,
                            config.meanScheduleRepeats);
}

} // namespace bpsim
