/**
 * @file
 * Multi-context scenarios: several synthetic programs interleaved
 * into one branch stream that feeds a *shared* predictor, modelling
 * the aliasing pressure of SMT cores, context switching and
 * many-tenant servers.
 *
 * Each member program runs in its own PC space (context k's
 * addresses are offset by k << contextPcShift, see
 * predictor/context_alias.hh), so the shared predictor tables see
 * genuinely distinct branches while every per-branch statistic can
 * be attributed back to its context by inspecting the PC. A
 * scenario with one member emits the member's records byte-for-byte
 * unchanged (context 0 has offset 0), which pins the degenerate
 * case to the per-cell path bit-for-bit.
 */

#ifndef BPSIM_SCENARIO_SCENARIO_HH
#define BPSIM_SCENARIO_SCENARIO_HH

#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "predictor/context_alias.hh"
#include "support/random.hh"
#include "workload/synthetic_program.hh"
#include "workload/workload_source.hh"

namespace bpsim
{

/** How member programs share the machine. */
enum class ScenarioKind
{
    /** SMT-style fine-grained interleave: one branch per context,
     * round-robin. Maximum interleaving pressure. */
    Smt,

    /** OS context switching: each context runs a quantum of branches
     * before the next one is scheduled, round-robin. */
    ContextSwitch,

    /** Server traffic: request-sized bursts whose owning context is
     * drawn from a Zipfian popularity distribution — a few hot
     * tenants and a long tail, as in "millions of users" services. */
    Server,
};

/** Scenario name for labels/CLI ("smt", "ctxsw", "server"). */
std::string scenarioKindName(ScenarioKind kind);

/** Parse a scenarioKindName() string; fails on unknown names. */
Result<ScenarioKind> parseScenarioKind(const std::string &text);

/** Interleaving parameters; defaults model a plausible server. */
struct ScenarioSpec
{
    ScenarioKind kind = ScenarioKind::Smt;

    /** Branches per scheduling quantum (ContextSwitch only). */
    Count quantum = 20'000;

    /** Zipf exponent of the tenant popularity skew (Server only). */
    double zipfExponent = 1.2;

    /** Branches per request burst (Server only). */
    Count requestLength = 512;

    /** Seed of the Server arrival process. */
    std::uint64_t seed = 0xC0117;
};

/**
 * A WorkloadSource interleaving member programs per a ScenarioSpec.
 *
 * The scenario presents itself to the runner as one program: its
 * name encodes the spec and the member list, and its seed hashes the
 * arrival seed with every member seed, so checkpoint fingerprints,
 * artifact-cache keys and fused grouping all distinguish scenarios
 * exactly when their streams differ.
 */
class ScenarioWorkload : public WorkloadSource
{
  public:
    /** @param members interleaved programs, context id = position. */
    ScenarioWorkload(ScenarioSpec spec,
                     std::vector<SyntheticProgram> members);

    ScenarioWorkload(ScenarioWorkload &&) = default;
    ScenarioWorkload &operator=(ScenarioWorkload &&) = default;

    bool next(BranchRecord &record) override;
    void reset() override;

    /** Member sites, numbered member by member (context k's numbers
     * start after those of contexts 0..k-1). */
    std::uint32_t siteCount() const override { return totalSites; }

    bool nextSite(BranchRecord &record, std::uint32_t &site) override;

    void setInput(InputSet input) override;
    InputSet input() const override;
    const std::string &name() const override { return scenarioName; }
    std::uint64_t seedValue() const override { return seedHash; }

    /** Number of member contexts. */
    std::size_t contexts() const { return members.size(); }

    /** Member program of context @p ctx. */
    const SyntheticProgram &
    member(std::size_t ctx) const
    {
        return members[ctx];
    }

    /** The interleaving parameters. */
    const ScenarioSpec &spec() const { return scenarioSpec; }

  private:
    /** Advance the schedule to the context owning the next record. */
    std::size_t scheduleNext();

    ScenarioSpec scenarioSpec;
    std::vector<SyntheticProgram> members;
    std::string scenarioName;
    std::uint64_t seedHash;

    /** First site number of each member context. */
    std::vector<std::uint32_t> siteBase;
    std::uint32_t totalSites = 0;

    // Interleave state, reset() restores all of it.
    std::size_t currentCtx = 0;
    Count sliceLeft = 0;
    Rng arrivalRng;
    std::unique_ptr<Rng::Zipf> popularity;
};

} // namespace bpsim

#endif // BPSIM_SCENARIO_SCENARIO_HH
