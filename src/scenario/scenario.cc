#include "scenario/scenario.hh"

#include <algorithm>
#include <cstdio>

#include "support/bits.hh"

namespace bpsim
{

std::string
scenarioKindName(ScenarioKind kind)
{
    switch (kind) {
      case ScenarioKind::Smt:
        return "smt";
      case ScenarioKind::ContextSwitch:
        return "ctxsw";
      case ScenarioKind::Server:
        return "server";
    }
    return "unknown";
}

Result<ScenarioKind>
parseScenarioKind(const std::string &text)
{
    if (text == "smt")
        return ScenarioKind::Smt;
    if (text == "ctxsw")
        return ScenarioKind::ContextSwitch;
    if (text == "server")
        return ScenarioKind::Server;
    return Error(ErrorCode::ConfigInvalid,
                 "unknown scenario kind '" + text +
                     "' (expected smt, ctxsw or server)");
}

namespace
{

/** "%g"-rendered double for the scenario name (no trailing zeros). */
std::string
compactDouble(double value)
{
    char buffer[32];
    std::snprintf(buffer, sizeof(buffer), "%g", value);
    return buffer;
}

/**
 * Scenario identity string: every stream-affecting parameter, so the
 * name (label/cache component) and the seed hash distinguish two
 * scenarios exactly when their interleaved streams can differ. No
 * '/' or whitespace: the name must survive as the program field of a
 * canonical cell label.
 */
std::string
scenarioTitle(const ScenarioSpec &spec,
              const std::vector<SyntheticProgram> &members)
{
    std::string title = scenarioKindName(spec.kind);
    switch (spec.kind) {
      case ScenarioKind::Smt:
        break;
      case ScenarioKind::ContextSwitch:
        title += ":q" + std::to_string(spec.quantum);
        break;
      case ScenarioKind::Server:
        title += ":z" + compactDouble(spec.zipfExponent) + ":r" +
                 std::to_string(spec.requestLength) + ":s" +
                 std::to_string(spec.seed);
        break;
    }
    title += "{";
    for (std::size_t i = 0; i < members.size(); ++i) {
        if (i > 0)
            title += ",";
        title += members[i].name();
    }
    title += "}";
    return title;
}

} // namespace

ScenarioWorkload::ScenarioWorkload(ScenarioSpec spec,
                                   std::vector<SyntheticProgram> member_programs)
    : scenarioSpec(spec), members(std::move(member_programs)),
      arrivalRng(spec.seed)
{
    // A zero quantum or request length would never advance past the
    // schedule decision; clamp rather than underflow.
    scenarioSpec.quantum = std::max<Count>(Count{1}, scenarioSpec.quantum);
    scenarioSpec.requestLength =
        std::max<Count>(Count{1}, scenarioSpec.requestLength);

    scenarioName = scenarioTitle(scenarioSpec, members);

    std::string identity = scenarioName;
    for (const SyntheticProgram &member : members)
        identity += "|" + std::to_string(member.seedValue());
    seedHash = fnv1a64(identity);

    for (const SyntheticProgram &member : members) {
        siteBase.push_back(totalSites);
        totalSites += member.siteCount();
    }

    if (!members.empty())
        popularity = std::make_unique<Rng::Zipf>(
            members.size(), scenarioSpec.zipfExponent);

    reset();
}

std::size_t
ScenarioWorkload::scheduleNext()
{
    switch (scenarioSpec.kind) {
      case ScenarioKind::Smt: {
        const std::size_t ctx = currentCtx;
        currentCtx = (currentCtx + 1) % members.size();
        return ctx;
      }
      case ScenarioKind::ContextSwitch:
        if (sliceLeft == 0) {
            currentCtx = (currentCtx + 1) % members.size();
            sliceLeft = scenarioSpec.quantum;
        }
        --sliceLeft;
        return currentCtx;
      case ScenarioKind::Server:
        if (sliceLeft == 0) {
            currentCtx = popularity->sample(arrivalRng);
            sliceLeft = scenarioSpec.requestLength;
        }
        --sliceLeft;
        return currentCtx;
    }
    return 0;
}

bool
ScenarioWorkload::next(BranchRecord &record)
{
    std::uint32_t site = 0;
    return nextSite(record, site);
}

bool
ScenarioWorkload::nextSite(BranchRecord &record, std::uint32_t &site)
{
    if (members.empty())
        return false;
    const std::size_t ctx = scheduleNext();
    if (!members[ctx].nextSite(record, site))
        return false;
    record.pc += contextPcBase(ctx);
    site += siteBase[ctx];
    return true;
}

void
ScenarioWorkload::reset()
{
    for (SyntheticProgram &member : members)
        member.reset();
    currentCtx = 0;
    // ContextSwitch starts mid-quantum on context 0 (scheduleNext
    // only advances when the slice runs out); Server draws its first
    // request owner on the first record.
    sliceLeft =
        scenarioSpec.kind == ScenarioKind::ContextSwitch
            ? scenarioSpec.quantum
            : Count{0};
    arrivalRng = Rng(scenarioSpec.seed);
}

void
ScenarioWorkload::setInput(InputSet input)
{
    for (SyntheticProgram &member : members)
        member.setInput(input);
    reset();
}

InputSet
ScenarioWorkload::input() const
{
    return members.empty() ? InputSet::Ref : members.front().input();
}

} // namespace bpsim
