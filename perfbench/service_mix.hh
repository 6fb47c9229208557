/**
 * @file
 * The service_mix workload: the daemon process and the closed-loop
 * load generator that drives it.
 */

#ifndef BPSIM_PERFBENCH_SERVICE_MIX_HH
#define BPSIM_PERFBENCH_SERVICE_MIX_HH

#include <cstdint>
#include <string>

namespace perfbench
{

/**
 * Run a ServiceServer with one executor thread on @p socket until
 * SIGTERM drains it, then print the process's peak RSS as
 * {"peak_rss_mb": ...}.
 */
int serve(const std::string &socket, const std::string &state_dir);

struct LoadOptions
{
    std::string socket;
    std::uint64_t seed = 0;
    double seconds = 0.0;
    bool trace = false;
    /** Scratch directory: the set-up daemons' state, and the
     * checkpoint files of the traced run. */
    std::string dir;
};

/**
 * Send the cold warm-up request, run the closed loop for
 * options.seconds, check every response against the batch path and
 * print the report. An untimed run also times daemon starts (setup_s)
 * between slices of its load.
 */
int runLoad(const LoadOptions &options);

} // namespace perfbench

#endif // BPSIM_PERFBENCH_SERVICE_MIX_HH
