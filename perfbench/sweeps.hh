/**
 * @file
 * The sweep workloads: paper_sweep and tagged_shared.
 */

#ifndef BPSIM_PERFBENCH_SWEEPS_HH
#define BPSIM_PERFBENCH_SWEEPS_HH

#include <cstdint>
#include <string>

namespace perfbench
{

struct SweepOptions
{
    std::string workload;
    std::uint64_t seed = 0;
    double seconds = 0.0;
    bool trace = false;
    /** Scratch directory of the run (artifact cache). */
    std::string dir;
};

/**
 * Run a sweep workload for options.seconds and print its report:
 * the end-to-end metrics, or with options.trace the per-layer ones.
 */
int runSweep(const SweepOptions &options);

/** Fill the workload's artifact cache (no-op for uncached ones). */
int warmCache(const SweepOptions &options);

} // namespace perfbench

#endif // BPSIM_PERFBENCH_SWEEPS_HH
