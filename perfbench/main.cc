/**
 * @file
 * bpsim_perfbench: the benchmark's binary. perfbench/run.py
 * builds it and calls one mode per process:
 *
 *   sweep --workload paper_sweep|tagged_shared --seed N --seconds S
 *         --trace 0|1 --dir D     run a sweep workload, print its report
 *   warm  --workload tagged_shared --seed N --dir D
 *                                 fill the workload's artifact cache
 *   serve --socket P --state-dir D
 *                                 the service daemon (until SIGTERM)
 *   load  --socket P --seed N --seconds S --trace 0|1 --dir D
 *                                 the service load generator
 */

#include <cstdio>
#include <string>

#include "service_mix.hh"
#include "support/args.hh"
#include "support/error.hh"
#include "sweeps.hh"

using namespace bpsim;

namespace
{

int
usage()
{
    std::fprintf(stderr, "usage: bpsim_perfbench sweep|warm|serve|load "
                         "[options]\n");
    return 2;
}

} // namespace

int
main(int argc, char **argv)
{
    if (argc < 2)
        return usage();
    const std::string mode = argv[1];
    ArgParser args("bpsim_perfbench " + mode);
    args.addOption("workload", "", "sweep workload name");
    args.addOption("seed", "2000", "input seed");
    args.addOption("seconds", "", "measured seconds (sweep, load)");
    args.addOption("trace", "0", "1 = traced per-layer run");
    args.addOption("dir", ".", "scratch directory of the run");
    args.addOption("socket", "", "service socket path");
    args.addOption("state-dir", "", "daemon state directory");
    args.parse(argc, argv, 2);

    try {
        if (mode == "sweep" || mode == "warm") {
            perfbench::SweepOptions options;
            options.workload = args.get("workload");
            options.seed = args.getUint("seed");
            options.trace = args.getUint("trace") != 0;
            options.dir = args.get("dir");
            if (mode == "warm")
                return perfbench::warmCache(options);
            options.seconds = args.getDouble("seconds");
            return perfbench::runSweep(options);
        }
        if (mode == "serve")
            return perfbench::serve(args.get("socket"),
                                    args.get("state-dir"));
        if (mode == "load") {
            perfbench::LoadOptions options;
            options.socket = args.get("socket");
            options.seed = args.getUint("seed");
            options.seconds = args.getDouble("seconds");
            options.trace = args.getUint("trace") != 0;
            options.dir = args.get("dir");
            return perfbench::runLoad(options);
        }
    } catch (const ErrorException &failure) {
        std::fprintf(stderr, "bpsim_perfbench: %s\n",
                     failure.error().describe().c_str());
        return 1;
    }
    return usage();
}
