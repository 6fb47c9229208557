/**
 * @file
 * Shared pieces of the benchmark binary: clocks, sample statistics,
 * the per-layer trace, result digests and the one-line JSON report
 * every mode prints last on stdout.
 */

#ifndef BPSIM_PERFBENCH_COMMON_HH
#define BPSIM_PERFBENCH_COMMON_HH

#include <chrono>
#include <map>
#include <string>
#include <vector>

#include "core/experiment.hh"
#include "support/observe.hh"

namespace perfbench
{

using Clock = std::chrono::steady_clock;

/** Seconds elapsed since @p start. */
double secondsSince(Clock::time_point start);

/** Peak resident set of this process so far, in MiB. */
double peakRssMiB();

/** Median of @p values (0 when empty). */
double median(std::vector<double> values);

/** Nearest-rank percentile @p p (0..100) of @p values. */
double percentile(std::vector<double> values, double p);

/**
 * Deterministic digest of one cell outcome: every statistic, the
 * hint count, the simulated-branch total and, for scenario cells, the
 * per-context stats and the alias matrix. Path flags (kernel, simd)
 * are excluded, so two execution paths of one cell digest equal
 * exactly when their results are bit-identical.
 */
std::string resultDigest(const bpsim::ExperimentResult &result);

/**
 * Per-layer timings and counts of one traced composition. Each public
 * call the composition makes is timed by a bpsim::ScopedTimer named
 * after its layer; counts are recorded at the same calls. The layers
 * do not nest, so a layer's time is its own.
 */
struct Trace
{
    bpsim::TimerRegistry timers;
    bpsim::CounterRegistry counts;

    /** Seconds per layer name. */
    std::map<std::string, double> seconds() const;
};

/** Sum of the values of @p values. */
double total(const std::map<std::string, double> &values);

/** The paper's five predictors (paper_sweep). */
inline constexpr const char *paperPredictors[] = {
    "bimodal", "ghist", "gshare", "bimode", "2bcgskew"};

/** The tagged/shared predictor set (tagged_shared, service_mix). */
inline constexpr const char *taggedPredictors[] = {
    "tage", "perceptron", "agree", "gshare"};

/**
 * Derive the core.eval_s.* and core.eval_branches_per_s.* metrics
 * from the times of the "core.eval.<predictor>.plain|shared" layers
 * and their ".branches" counts.
 */
void addEvalMetrics(const std::map<std::string, double> &seconds,
                    const std::map<std::string, bpsim::Count> &counts,
                    std::map<std::string, double> &metrics);

/** Tally of checked operations; a failed check is logged on stderr. */
struct Checks
{
    long long attempted = 0;
    long long failed = 0;

    void expect(bool ok, const std::string &what);
};

/**
 * Print the report line: {"correct", "attempted", "failed", "values":
 * {name: value}}. Values keep all their digits. The metric units live
 * in BENCHMARK.json, which perfbench/run.py reads to name them.
 */
void printReport(long long attempted, long long failed,
                 const std::map<std::string, double> &values);

} // namespace perfbench

#endif // BPSIM_PERFBENCH_COMMON_HH
