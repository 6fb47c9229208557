#include "common.hh"

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>

#include "core/checkpoint.hh"

namespace perfbench
{

double
secondsSince(Clock::time_point start)
{
    return std::chrono::duration<double>(Clock::now() - start).count();
}

double
peakRssMiB()
{
    rusage usage{};
    getrusage(RUSAGE_SELF, &usage);
    return static_cast<double>(usage.ru_maxrss) / 1024.0; // KiB on Linux
}

double
median(std::vector<double> values)
{
    if (values.empty())
        return 0.0;
    std::sort(values.begin(), values.end());
    const std::size_t mid = values.size() / 2;
    return values.size() % 2 == 1
               ? values[mid]
               : 0.5 * (values[mid - 1] + values[mid]);
}

double
percentile(std::vector<double> values, double p)
{
    if (values.empty())
        return 0.0;
    std::sort(values.begin(), values.end());
    const auto rank = static_cast<std::size_t>(
        std::ceil(p / 100.0 * static_cast<double>(values.size())));
    return values[std::clamp<std::size_t>(rank, 1, values.size()) - 1];
}

std::string
resultDigest(const bpsim::ExperimentResult &result)
{
    bpsim::CheckpointRecord record;
    record.result = result;
    return bpsim::SweepCheckpoint::renderLine(record);
}

std::map<std::string, double>
Trace::seconds() const
{
    std::map<std::string, double> out;
    for (const auto &[name, stat] : timers.snapshot())
        out[name] = stat.seconds;
    return out;
}

double
total(const std::map<std::string, double> &values)
{
    double sum = 0.0;
    for (const auto &[name, value] : values)
        sum += value;
    return sum;
}

void
Checks::expect(bool ok, const std::string &what)
{
    ++attempted;
    if (!ok) {
        ++failed;
        std::fprintf(stderr, "perfbench: check failed: %s\n", what.c_str());
    }
}

void
addEvalMetrics(const std::map<std::string, double> &seconds,
               const std::map<std::string, bpsim::Count> &counts,
               std::map<std::string, double> &metrics)
{
    const auto at = [](const auto &m, const std::string &key) {
        const auto it = m.find(key);
        return it == m.end() ? 0.0 : static_cast<double>(it->second);
    };
    const auto put = [&](const std::string &suffix, double layer_seconds,
                         double branches) {
        metrics["core.eval_s." + suffix] = layer_seconds;
        metrics["core.eval_branches_per_s." + suffix] =
            layer_seconds > 0 ? branches / layer_seconds : 0.0;
    };
    for (const char *p : paperPredictors) {
        const std::string base = std::string("core.eval.") + p;
        put(p, at(seconds, base + ".plain") + at(seconds, base + ".shared"),
            at(counts, base + ".plain.branches") +
                at(counts, base + ".shared.branches"));
    }
    for (const char *p : taggedPredictors) {
        for (const char *sharing : {"plain", "shared"}) {
            const std::string layer =
                std::string("core.eval.") + p + "." + sharing;
            put(std::string(p) + "." + sharing, at(seconds, layer),
                at(counts, layer + ".branches"));
        }
    }
}

void
printReport(long long attempted, long long failed,
            const std::map<std::string, double> &values)
{
    std::printf("{\"correct\": %s, \"attempted\": %lld, \"failed\": %lld, "
                "\"values\": {",
                failed == 0 && attempted > 0 ? "true" : "false",
                attempted, failed);
    const char *separator = "";
    for (const auto &[name, value] : values) {
        std::printf("%s\"%s\": %.17g", separator, name.c_str(),
                    std::isfinite(value) ? value : 0.0);
        separator = ", ";
    }
    std::printf("}}\n");
    std::fflush(stdout);
}

} // namespace perfbench
