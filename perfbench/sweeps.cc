/**
 * @file
 * The two sweep workloads, run through ExperimentRunner, and the
 * traced composition that times each layer the runner calls.
 *
 * paper_sweep is the Figures 7-12 matrix: six programs, the five
 * paper predictors, none/static_95/static_acc, 8 KB, no artifact
 * cache. tagged_shared runs the tagged and shared-context layers:
 * tage/perceptron/agree/gshare over plain gcc and the smt and ctxsw
 * scenarios of go+gcc+compress, none/static_acc, from an artifact
 * cache that an untimed step of its own warms first.
 */

#include "sweeps.hh"

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <map>
#include <memory>
#include <optional>
#include <random>
#include <string>
#include <vector>

#include "cache/artifact_cache.hh"
#include "common.hh"
#include "core/engine.hh"
#include "core/experiment.hh"
#include "core/runner.hh"
#include "predictor/factory.hh"
#include "scenario/scenario.hh"
#include "trace/replay_buffer.hh"
#include "workload/specint.hh"

namespace perfbench
{

using namespace bpsim;

namespace
{

/** One workload of a matrix: a program, or a scenario of several. */
struct WorkloadDef
{
    std::vector<SpecProgram> members;
    std::optional<ScenarioKind> scenario;
};

struct CellDef
{
    std::size_t workload = 0;
    ExperimentConfig config;
};

struct Matrix
{
    std::vector<WorkloadDef> workloads;
    std::vector<CellDef> cells;
    /** Serve buffers and profiles from a warm artifact cache. */
    bool cached = false;
};

constexpr std::size_t sizeBytes = 8192;

ExperimentConfig
cellConfig(StaticScheme scheme, Count profile_branches,
           Count eval_branches)
{
    ExperimentConfig config;
    config.sizeBytes = sizeBytes;
    config.scheme = scheme;
    config.profileBranches = profile_branches;
    config.evalBranches = eval_branches;
    return config;
}

Matrix
paperSweep()
{
    Matrix matrix;
    for (const SpecProgram id : allSpecPrograms()) {
        const std::size_t w = matrix.workloads.size();
        matrix.workloads.push_back({{id}, std::nullopt});
        for (const PredictorKind kind : allPredictorKinds()) {
            for (const StaticScheme scheme :
                 {StaticScheme::None, StaticScheme::Static95,
                  StaticScheme::StaticAcc}) {
                // A quarter of the paper benches' windows (1M profile, 2M
                // eval), so a run holds a dozen repetitions.
                ExperimentConfig config =
                    cellConfig(scheme, 250'000, 500'000);
                config.kind = kind;
                matrix.cells.push_back({w, config});
            }
        }
    }
    return matrix;
}

Matrix
taggedShared()
{
    Matrix matrix;
    matrix.cached = true;
    const std::vector<SpecProgram> members = {
        SpecProgram::Go, SpecProgram::Gcc, SpecProgram::Compress};
    matrix.workloads = {{{SpecProgram::Gcc}, std::nullopt},
                        {members, ScenarioKind::Smt},
                        {members, ScenarioKind::ContextSwitch}};
    for (std::size_t w = 0; w < matrix.workloads.size(); ++w) {
        for (const char *predictor :
             {"tage", "perceptron", "agree", "gshare"}) {
            for (const StaticScheme scheme :
                 {StaticScheme::None, StaticScheme::StaticAcc}) {
                ExperimentConfig config =
                    cellConfig(scheme, 125'000, 250'000);
                config.predictor = predictor;
                if (matrix.workloads[w].scenario)
                    config.scenarioContexts =
                        matrix.workloads[w].members.size();
                matrix.cells.push_back({w, config});
            }
        }
    }
    return matrix;
}

Matrix
matrixFor(const std::string &workload)
{
    if (workload == "paper_sweep")
        return paperSweep();
    if (workload == "tagged_shared")
        return taggedShared();
    raise(Error(ErrorCode::ConfigInvalid,
                "unknown sweep workload '" + workload + "'"));
}

std::unique_ptr<WorkloadSource>
buildWorkload(const WorkloadDef &def, std::uint64_t seed)
{
    if (!def.scenario) {
        return std::make_unique<SyntheticProgram>(
            makeSpecProgram(def.members.front(), InputSet::Ref, seed));
    }
    std::vector<SyntheticProgram> programs;
    for (const SpecProgram id : def.members)
        programs.push_back(makeSpecProgram(id, InputSet::Ref, seed));
    ScenarioSpec spec;
    spec.kind = *def.scenario;
    return std::make_unique<ScenarioWorkload>(spec, std::move(programs));
}

std::string
predictorName(const ExperimentConfig &config)
{
    return config.predictor.empty() ? predictorKindName(config.kind)
                                    : config.predictor;
}

std::string
cacheDirOf(const Matrix &matrix, const SweepOptions &options)
{
    return matrix.cached ? options.dir + "/cache" : std::string();
}

std::unique_ptr<ExperimentRunner>
makeRunner(const Matrix &matrix, const SweepOptions &options)
{
    RunnerOptions runner_options;
    runner_options.threads = 1;
    runner_options.cacheDir = cacheDirOf(matrix, options);
    auto runner = std::make_unique<ExperimentRunner>(runner_options);
    for (const WorkloadDef &def : matrix.workloads)
        runner->addWorkload(buildWorkload(def, options.seed));
    for (const CellDef &cell : matrix.cells)
        runner->addCell(cell.workload, cell.config);
    return runner;
}

/** Records a buffer must hold for every cell of workload @p w. */
Count
bufferDemand(const Matrix &matrix, std::size_t w)
{
    Count needed = 0;
    for (const CellDef &cell : matrix.cells) {
        if (cell.workload != w)
            continue;
        needed = std::max(needed, cell.config.evalBranches +
                                      cell.config.evalWarmupBranches);
        if (cell.config.scheme != StaticScheme::None)
            needed = std::max(needed, cell.config.profileBranches);
    }
    return needed;
}

/**
 * The runner's work for @p matrix, composed from the same public
 * calls ExperimentRunner::run() makes, each timed into @p trace.
 * Every matrix cell profiles and evaluates on the Ref input. Eval
 * passes are fused per (buffer, predictor) rather than per buffer so
 * each predictor's kernel time is measured, not prorated; fusion
 * grouping never changes results.
 */
std::vector<ExperimentResult>
compose(const Matrix &matrix, std::uint64_t seed,
        const std::string &cache_dir, Trace &trace)
{
    std::vector<std::unique_ptr<WorkloadSource>> programs;
    for (const WorkloadDef &def : matrix.workloads) {
        ScopedTimer timer(&trace.timers, "workload.build");
        programs.push_back(buildWorkload(def, seed));
    }

    std::unique_ptr<ArtifactCache> cache;
    if (!cache_dir.empty())
        cache = std::make_unique<ArtifactCache>(cache_dir);
    const auto ref = static_cast<unsigned>(InputSet::Ref);

    std::vector<std::unique_ptr<ReplayBuffer>> buffers(programs.size());
    std::vector<std::unique_ptr<SiteIndex>> sites(programs.size());
    for (std::size_t w = 0; w < programs.size(); ++w) {
        const Count needed = bufferDemand(matrix, w);
        if (cache != nullptr) {
            ScopedTimer timer(&trace.timers, "cache.map");
            auto lookup = cache->loadReplay(replayArtifactKey(
                programs[w]->name(), programs[w]->seedValue(), ref,
                needed));
            trace.counts.add("cache.lookups");
            if (lookup.ok() && lookup.value().hit) {
                buffers[w] = std::make_unique<ReplayBuffer>(
                    std::move(lookup.value().buffer));
                trace.counts.add("cache.hits");
                trace.counts.add("cache.mapped_bytes",
                                 buffers[w]->memoryBytes());
            }
        }
        if (buffers[w] == nullptr) {
            ScopedTimer timer(&trace.timers, "trace.materialize");
            programs[w]->setInput(InputSet::Ref);
            buffers[w] = std::make_unique<ReplayBuffer>(
                ReplayBuffer::materialize(*programs[w], needed));
            trace.counts.add("trace.replay_bytes", buffers[w]->memoryBytes());
        }
        ScopedTimer timer(&trace.timers, "trace.site_index");
        sites[w] = std::make_unique<SiteIndex>(
            SiteIndex::build(*buffers[w]));
    }

    // Unique profiling phases, keyed like the runner's profile cache.
    std::map<std::string, std::size_t> phase_of_key;
    std::vector<const CellDef *> phase_cells;
    std::vector<std::size_t> cell_phase(matrix.cells.size(), SIZE_MAX);
    for (std::size_t i = 0; i < matrix.cells.size(); ++i) {
        const CellDef &cell = matrix.cells[i];
        if (cell.config.scheme == StaticScheme::None)
            continue;
        const std::string key =
            std::to_string(cell.workload) + "|" +
            std::to_string(cell.config.profileBranches) + "|" +
            predictorIdentityOf(cell.config);
        const auto [it, inserted] =
            phase_of_key.try_emplace(key, phase_cells.size());
        if (inserted)
            phase_cells.push_back(&cell);
        cell_phase[i] = it->second;
    }
    std::vector<ProfilePhase> phases(phase_cells.size());
    std::vector<char> have_phase(phase_cells.size(), 0);
    if (cache != nullptr) {
        for (std::size_t j = 0; j < phase_cells.size(); ++j) {
            const CellDef &cell = *phase_cells[j];
            const WorkloadSource &program = *programs[cell.workload];
            ScopedTimer timer(&trace.timers, "cache.map");
            auto lookup = cache->loadProfile(profileArtifactKey(
                program.name(), program.seedValue(), ref,
                cell.config.profileBranches,
                predictorIdentityOf(cell.config)));
            trace.counts.add("cache.lookups");
            if (lookup.ok() && lookup.value().hit) {
                phases[j].profile = std::move(lookup.value().profile);
                phases[j].simulatedBranches =
                    lookup.value().simulatedBranches;
                have_phase[j] = 1;
                trace.counts.add("cache.hits");
            }
        }
    }
    for (std::size_t w = 0; w < programs.size(); ++w) {
        std::vector<std::size_t> pending;
        std::vector<const ExperimentConfig *> configs;
        for (std::size_t j = 0; j < phase_cells.size(); ++j) {
            if (!have_phase[j] && phase_cells[j]->workload == w) {
                pending.push_back(j);
                configs.push_back(&phase_cells[j]->config);
            }
        }
        if (pending.empty())
            continue;
        ScopedTimer timer(&trace.timers, "profile.phase");
        std::vector<FusedProfileOutcome> outcomes =
            runProfilePhasesFusedReplay(*buffers[w], configs,
                                        sites[w].get());
        for (std::size_t k = 0; k < pending.size(); ++k)
            phases[pending[k]] = std::move(outcomes[k].phase);
        trace.counts.add("profile.phases", pending.size());
    }

    std::vector<PreparedEvaluation> prepared(matrix.cells.size());
    for (std::size_t i = 0; i < matrix.cells.size(); ++i) {
        const CellDef &cell = matrix.cells[i];
        ScopedTimer timer(&trace.timers, "staticsel.select");
        prepared[i] = prepareEvaluationReplay(
            nullptr, *buffers[cell.workload], cell.config,
            cell_phase[i] == SIZE_MAX ? nullptr : &phases[cell_phase[i]]);
        trace.counts.add("staticsel.hints", prepared[i].hintCount);
    }

    // Eval passes: one per (workload, predictor), in cell order.
    std::vector<SimStats> eval_stats(matrix.cells.size());
    std::vector<std::pair<std::size_t, std::string>> groups;
    for (const CellDef &cell : matrix.cells) {
        const std::pair<std::size_t, std::string> key{
            cell.workload, predictorName(cell.config)};
        if (std::find(groups.begin(), groups.end(), key) == groups.end())
            groups.push_back(key);
    }
    for (const auto &[w, name] : groups) {
        std::vector<std::size_t> members;
        std::vector<FusedSim> sims;
        for (std::size_t i = 0; i < matrix.cells.size(); ++i) {
            const CellDef &cell = matrix.cells[i];
            if (cell.workload != w || predictorName(cell.config) != name)
                continue;
            FusedSim sim;
            sim.predictor = prepared[i].combined.get();
            sim.options = evalSimOptions(cell.config, prepared[i]);
            sims.push_back(sim);
            members.push_back(i);
        }
        const std::string layer =
            "core.eval." + name +
            (matrix.workloads[w].scenario ? ".shared" : ".plain");
        {
            ScopedTimer timer(&trace.timers, layer);
            simulateReplayFused(sims, *buffers[w], sites[w].get());
        }
        Count records = 0;
        for (std::size_t k = 0; k < sims.size(); ++k) {
            eval_stats[members[k]] = sims[k].stats;
            records += sims[k].stats.branches +
                       std::min<Count>(sims[k].options.warmupBranches,
                                       buffers[w]->size());
        }
        trace.counts.add(layer + ".branches", records);
    }

    std::vector<ExperimentResult> results(matrix.cells.size());
    for (std::size_t i = 0; i < matrix.cells.size(); ++i) {
        const CellDef &cell = matrix.cells[i];
        ScopedTimer timer(&trace.timers,
                          matrix.workloads[cell.workload].scenario
                              ? "scenario.attribution"
                              : "core.finish");
        results[i] = finishPreparedEvaluation(
            prepared[i], cell.config, eval_stats[i],
            buffers[cell.workload].get());
    }
    return results;
}

/**
 * The virtual-dispatch reference of one cell: the stream-based
 * profiling phase and simulate() with SimOptions::fastPath clear.
 */
ExperimentResult
virtualPath(const ReplayBuffer &buffer, const ExperimentConfig &config)
{
    ProfilePhase phase;
    const ProfilePhase *phase_ptr = nullptr;
    if (config.scheme != StaticScheme::None) {
        auto cursor = buffer.cursor();
        phase = runProfilePhase(cursor, config);
        phase_ptr = &phase;
    }
    PreparedEvaluation prepared =
        prepareEvaluationReplay(nullptr, buffer, config, phase_ptr);
    SimOptions options = evalSimOptions(config, prepared);
    options.fastPath = false;
    auto cursor = buffer.cursor();
    const SimStats stats = simulate(*prepared.combined, cursor, options);
    return finishPreparedEvaluation(prepared, config, stats, &buffer);
}

/** Digest every cell of @p result, checking each is ok(). */
std::vector<std::string>
runnerDigests(const ExperimentRunner &runner, const MatrixResult &result,
              Checks &checks)
{
    std::vector<std::string> digests;
    for (std::size_t i = 0; i < result.cells.size(); ++i) {
        const CellResult &cell = result.cells[i];
        checks.expect(cell.ok(), runner.cell(i).label + " ok()");
        digests.push_back(resultDigest(cell.result));
    }
    return digests;
}

void
compareDigests(const std::vector<std::string> &expected,
               const std::vector<ExperimentResult> &actual,
               const ExperimentRunner &runner, const char *path,
               Checks &checks)
{
    for (std::size_t i = 0; i < expected.size(); ++i) {
        checks.expect(i < actual.size() &&
                          resultDigest(actual[i]) == expected[i],
                      runner.cell(i).label + " equals the " + path);
    }
}

/**
 * Per-layer metrics of one traced repetition: @p trace of a
 * composition that took @p traced_seconds, and the untraced runner's
 * result and wall time.
 */
std::map<std::string, double>
layerMetrics(const Trace &trace, double traced_seconds,
             const MatrixResult &untraced, double untraced_seconds)
{
    const auto seconds = trace.seconds();
    const auto counts = trace.counts.snapshot();
    const auto at = [](const auto &m, const std::string &key) {
        const auto it = m.find(key);
        return it == m.end() ? 0.0 : static_cast<double>(it->second);
    };
    const double mib = 1024.0 * 1024.0;
    const double cells = static_cast<double>(untraced.cells.size());
    const double lookups = at(counts, "cache.lookups");
    const double profile_lookups =
        static_cast<double>(untraced.profileCacheHits +
                            untraced.profileCacheMisses);

    std::map<std::string, double> m;
    m["workload.build_s"] = at(seconds, "workload.build");
    m["trace.materialize_s"] = at(seconds, "trace.materialize");
    m["trace.replay_mb"] = at(counts, "trace.replay_bytes") / mib;
    m["trace.site_index_s"] = at(seconds, "trace.site_index");
    m["cache.map_s"] = at(seconds, "cache.map");
    m["cache.mapped_mb"] = at(counts, "cache.mapped_bytes") / mib;
    m["cache.hit_ratio"] =
        lookups > 0 ? at(counts, "cache.hits") / lookups : 0.0;
    m["profile.phase_s"] = at(seconds, "profile.phase");
    m["profile.phases"] = at(counts, "profile.phases");
    m["profile.reuse_ratio"] =
        profile_lookups > 0
            ? static_cast<double>(untraced.profileCacheHits) /
                  profile_lookups
            : 0.0;
    m["staticsel.select_s"] = at(seconds, "staticsel.select");
    m["staticsel.hints"] = at(counts, "staticsel.hints");
    m["scenario.attribution_s"] = at(seconds, "scenario.attribution");
    m["core.kernel_cell_ratio"] =
        cells > 0 ? static_cast<double>(untraced.kernelCells) / cells
                  : 0.0;
    m["core.simd_cell_ratio"] =
        cells > 0 ? static_cast<double>(untraced.simdCells) / cells : 0.0;
    addEvalMetrics(seconds, counts, m);
    m["traced.coverage"] =
        traced_seconds > 0 ? total(seconds) / traced_seconds : 0.0;
    m["traced.overhead_ratio"] =
        untraced_seconds > 0 ? traced_seconds / untraced_seconds : 0.0;
    return m;
}

} // namespace

int
warmCache(const SweepOptions &options)
{
    const Matrix matrix = matrixFor(options.workload);
    if (!matrix.cached)
        return 0;
    auto runner = makeRunner(matrix, options);
    const MatrixResult result = runner->run();
    if (result.failedCells != 0) {
        std::fprintf(stderr, "perfbench: %llu cells failed while "
                             "warming the cache\n",
                     static_cast<unsigned long long>(result.failedCells));
        return 1;
    }
    return 0;
}

int
runSweep(const SweepOptions &options)
{
    const Matrix matrix = matrixFor(options.workload);
    const std::string cache_dir = cacheDirOf(matrix, options);
    Checks checks;
    std::vector<std::string> reference;
    const auto deadline =
        Clock::now() + std::chrono::duration_cast<Clock::duration>(
                           std::chrono::duration<double>(options.seconds));

    if (options.trace) {
        // A traced repetition: the untraced runner first (its wall
        // time is the overhead base), then the traced composition,
        // whose per-cell stats must be bit-identical to it.
        std::map<std::string, std::vector<double>> samples;
        do {
            const auto start = Clock::now();
            auto runner = makeRunner(matrix, options);
            runner->materialize();
            const MatrixResult result = runner->run();
            const double untraced = secondsSince(start);
            const auto digests = runnerDigests(*runner, result, checks);
            Trace trace;
            const auto traced_start = Clock::now();
            const auto composed =
                compose(matrix, options.seed, cache_dir, trace);
            const double traced = secondsSince(traced_start);
            compareDigests(digests, composed, *runner,
                           "traced composition", checks);
            for (const auto &[name, value] :
                 layerMetrics(trace, traced, result, untraced))
                samples[name].push_back(value);
        } while (Clock::now() < deadline);
        std::map<std::string, double> metrics;
        for (const auto &[name, values] : samples)
            metrics[name] = median(values);
        printReport(checks.attempted, checks.failed, metrics);
        return 0;
    }

    // Timed repetitions: each builds the matrix from scratch (set-up:
    // workload construction + explicit materialize()), then times
    // run(). The throughput is all repetitions' branches over all
    // their run() seconds: the host's slow phases come and go within
    // a run, and a total moves smoothly with the share of time they
    // take, where a median jumps between the fast and slow modes.
    std::vector<double> setup_samples;
    Count total_branches = 0;
    double total_run_seconds = 0.0;
    std::size_t repetitions = 0;
    std::unique_ptr<ExperimentRunner> runner;
    MatrixResult last;
    while (repetitions < 3 || Clock::now() < deadline) {
        runner.reset();
        const auto setup_start = Clock::now();
        runner = makeRunner(matrix, options);
        runner->materialize();
        setup_samples.push_back(secondsSince(setup_start));
        const auto run_start = Clock::now();
        last = runner->run();
        const double run_seconds = secondsSince(run_start);
        total_branches += last.totalBranches;
        total_run_seconds += run_seconds;
        std::fprintf(stderr,
                     "perfbench: repetition %zu: set-up %.4f s, run() "
                     "%.4f s\n",
                     ++repetitions, setup_samples.back(), run_seconds);
        const auto digests = runnerDigests(*runner, last, checks);
        if (reference.empty()) {
            reference = digests;
        } else {
            for (std::size_t i = 0; i < digests.size(); ++i)
                checks.expect(digests[i] == reference[i],
                              runner->cell(i).label +
                                  " repeats bit-identically");
        }
    }
    const double peak_rss = peakRssMiB();

    // Set-up is much shorter than a repetition on tagged_shared (it
    // only maps the cache), so extra set-up-only samples, within a
    // small time budget, steady its median. The last repetition's
    // runner goes first, so the peak above stays that of one runner.
    runner.reset();
    const auto extra_start = Clock::now();
    while (setup_samples.size() < 15 && secondsSince(extra_start) < 3.0) {
        const auto setup_start = Clock::now();
        runner.reset();
        runner = makeRunner(matrix, options);
        runner->materialize();
        setup_samples.push_back(secondsSince(setup_start));
    }
    if (runner == nullptr) {
        runner = makeRunner(matrix, options);
        runner->materialize();
    }

    // Untimed output checks: the traced composition of every cell,
    // and a seeded sample of one cell per predictor on the
    // virtual-dispatch path.
    {
        Trace trace;
        const auto composed =
            compose(matrix, options.seed, cache_dir, trace);
        compareDigests(reference, composed, *runner, "traced composition",
                       checks);
    }
    std::map<std::string, std::vector<std::size_t>> by_predictor;
    for (std::size_t i = 0; i < matrix.cells.size(); ++i)
        by_predictor[predictorName(matrix.cells[i].config)].push_back(i);
    std::mt19937_64 rng(options.seed);
    for (const auto &[name, indices] : by_predictor) {
        const std::size_t i = indices[rng() % indices.size()];
        const CellDef &cell = matrix.cells[i];
        const ExperimentResult virt = virtualPath(
            runner->buffer(cell.workload, InputSet::Ref), cell.config);
        checks.expect(resultDigest(virt) == reference[i],
                      runner->cell(i).label +
                          " equals the virtual-dispatch path");
    }

    std::fprintf(stderr,
                 "perfbench: %s seed %llu: %zu repetitions, %zu set-up "
                 "samples, %lld checks, %lld failed (error_rate %.6f)\n",
                 options.workload.c_str(),
                 static_cast<unsigned long long>(options.seed),
                 repetitions, setup_samples.size(),
                 checks.attempted, checks.failed,
                 static_cast<double>(checks.failed) /
                     static_cast<double>(checks.attempted));
    printReport(checks.attempted, checks.failed,
                {{"setup_s", median(setup_samples)},
                 {"sim_branches_per_s",
                  static_cast<double>(total_branches) / total_run_seconds},
                 {"peak_rss_mb", peak_rss}});
    return 0;
}

} // namespace perfbench
