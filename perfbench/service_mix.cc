/**
 * @file
 * service_mix: one load-generator process drives one daemon (one
 * executor thread) in a closed loop over two connections, so the
 * serial executor stays busy with at most one request waiting and
 * latency measures service time rather than a growing backlog.
 *
 * Requests are `run` requests over gcc/go/perl/compress x
 * gshare/2bcgskew/tage/perceptron x none/static_acc with short eval
 * windows. Three in four are fresh (a program seed no earlier request
 * used), so the daemon compiles, materializes, profiles, evaluates
 * and writes the request checkpoint; the fourth resubmits an
 * already answered spec under a new id and is restored from that
 * spec's checkpoint. Fresh specs walk the 32 combinations in a
 * seeded order, one full pass per 32, so every seed loads the same
 * mix.
 */

#include "service_mix.hh"

#include <fcntl.h>
#include <signal.h>
#include <spawn.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <filesystem>
#include <map>
#include <mutex>
#include <numeric>
#include <optional>
#include <random>
#include <set>
#include <thread>
#include <vector>

#include "common.hh"
#include "core/checkpoint.hh"
#include "core/engine.hh"
#include "core/experiment.hh"
#include "core/runner.hh"
#include "service/client.hh"
#include "service/protocol.hh"
#include "service/server.hh"
#include "trace/replay_buffer.hh"

namespace perfbench
{

using namespace bpsim;
using namespace bpsim::service;

namespace
{

int drainFd = -1;

extern "C" void
onTermSignal(int)
{
    if (drainFd >= 0) {
        const char byte = 1;
        (void)!::write(drainFd, &byte, 1);
    }
}

const char *const programNames[] = {"gcc", "go", "perl", "compress"};
const char *const predictorNames[] = {"gshare", "2bcgskew", "tage",
                                      "perceptron"};
const char *const schemeNames[] = {"none", "static_acc"};
constexpr std::size_t comboCount = 32;

/** Set-up samples (daemon starts) per timed run. */
constexpr unsigned setupSamples = 16;

/** Worker threads computing batch references after the load. */
constexpr unsigned verifyThreads = 3;

/** Program seeds of one run: distinct per fresh request, kept far
 * below 2^53 so they survive the JSON wire format exactly. */
Count
programSeed(std::uint64_t seed, Count k)
{
    return (seed % 1'000'000) * 1'000'000 + 1 + k;
}

SweepSpec
requestSpec(std::size_t combo, Count program_seed)
{
    SweepSpec spec;
    spec.program = programNames[combo / 8];
    spec.predictor = predictorNames[(combo / 2) % 4];
    spec.scheme = schemeNames[combo % 2];
    spec.sizes = {8192};
    spec.seed = program_seed;
    spec.profileBranches = 200'000;
    spec.evalBranches = 400'000;
    return spec;
}

/** The cold warm-up request: a tage/static_acc cell 2.5 times the
 * size of a load request, so set-up is not a millisecond blip. */
SweepSpec
warmupSpec(std::uint64_t seed)
{
    SweepSpec spec = requestSpec(5, programSeed(seed, 999'999));
    spec.profileBranches = 500'000;
    spec.evalBranches = 1'000'000;
    return spec;
}

std::string
specKey(const SweepSpec &spec)
{
    return spec.program + "/" + spec.predictor + "/" + spec.scheme + "/" +
           std::to_string(spec.seed) + "/" +
           std::to_string(spec.evalBranches);
}

/** Fresh specs in seeded blocks of 32, and answered ones to resubmit. */
class RequestPool
{
  public:
    explicit RequestPool(std::uint64_t seed) : seed(seed) {}

    SweepSpec
    fresh()
    {
        std::lock_guard<std::mutex> guard(lock);
        const Count k = freshCount++;
        if (k % comboCount == 0) {
            order.resize(comboCount);
            for (std::size_t i = 0; i < comboCount; ++i)
                order[i] = i;
            std::mt19937_64 rng(seed * comboCount + k);
            std::shuffle(order.begin(), order.end(), rng);
        }
        return requestSpec(order[k % comboCount], programSeed(seed, k));
    }

    void
    answered(const SweepSpec &spec)
    {
        std::lock_guard<std::mutex> guard(lock);
        done.push_back(spec);
    }

    /** An answered fresh spec, chosen by request index @p index. */
    std::optional<SweepSpec>
    resubmit(std::size_t index)
    {
        std::lock_guard<std::mutex> guard(lock);
        if (done.empty())
            return std::nullopt;
        std::mt19937_64 rng(seed ^ (index * 0x9E3779B97F4A7C15ULL));
        return done[rng() % done.size()];
    }

  private:
    std::mutex lock;
    std::uint64_t seed;
    Count freshCount = 0;
    std::vector<std::size_t> order;
    std::vector<SweepSpec> done;
};

/** One request of the closed loop. */
struct Sample
{
    bool resubmit = false;
    SweepSpec spec;
    double ms = 0.0;
    bool answered = false;
    ServiceResponse response;
};

/** Connect, retrying while the daemon starts. */
Result<ServiceClient>
connectWithRetry(const std::string &socket)
{
    const auto deadline = Clock::now() + std::chrono::seconds(60);
    for (;;) {
        Result<ServiceClient> client = ServiceClient::connect(socket);
        if (client.ok() || Clock::now() >= deadline)
            return client;
        std::this_thread::sleep_for(std::chrono::milliseconds(2));
    }
}

/**
 * Run the closed loop: @p connections threads, each sending its next
 * request when the previous one is answered, until @p seconds pass.
 * Returns the wall seconds until the last answer.
 */
double
closedLoop(const std::string &socket, RequestPool &pool,
           unsigned connections, double seconds,
           std::atomic<std::size_t> &next_index,
           std::vector<Sample> &samples)
{
    std::mutex samples_lock;
    const auto start = Clock::now();
    const auto deadline =
        start + std::chrono::duration_cast<Clock::duration>(
                    std::chrono::duration<double>(seconds));
    std::vector<std::thread> threads;
    for (unsigned c = 0; c < connections; ++c) {
        threads.emplace_back([&] {
            Result<ServiceClient> client = connectWithRetry(socket);
            while (Clock::now() < deadline) {
                const std::size_t index = next_index++;
                Sample sample;
                std::optional<SweepSpec> again;
                if (index % 4 == 3)
                    again = pool.resubmit(index);
                sample.resubmit = again.has_value();
                sample.spec = again ? *again : pool.fresh();
                ServiceRequest request;
                request.id = "r" + std::to_string(index);
                request.kind = RequestKind::Run;
                request.sweep = sample.spec;
                const auto sent = Clock::now();
                if (client.ok()) {
                    Result<ServiceResponse> response =
                        client.value().call(request);
                    sample.ms = 1e3 * secondsSince(sent);
                    if (response.ok()) {
                        sample.answered = true;
                        sample.response = std::move(response.value());
                    }
                }
                if (!sample.resubmit && sample.answered &&
                    sample.response.ok)
                    pool.answered(sample.spec);
                std::lock_guard<std::mutex> guard(samples_lock);
                samples.push_back(std::move(sample));
                if (!client.ok())
                    return;
            }
        });
    }
    for (std::thread &thread : threads)
        thread.join();
    return secondsSince(start);
}

/** The batch path's digest of a spec's single cell. */
class BatchReference
{
  public:
    /**
     * Compute the digests of @p specs not known yet, on @p threads
     * worker threads (the load phase is over, so they compete with
     * nothing timed).
     */
    void
    precompute(const std::vector<SweepSpec> &specs, unsigned threads)
    {
        std::vector<const SweepSpec *> todo;
        std::set<std::string> queued;
        for (const SweepSpec &spec : specs) {
            const std::string key = specKey(spec);
            if (cache.count(key) == 0 && queued.insert(key).second)
                todo.push_back(&spec);
        }
        std::vector<std::string> digests(todo.size());
        std::atomic<std::size_t> next{0};
        std::vector<std::thread> workers;
        for (unsigned t = 0; t < threads; ++t) {
            workers.emplace_back([&] {
                for (std::size_t i = next++; i < todo.size(); i = next++)
                    digests[i] = compute(*todo[i]);
            });
        }
        for (std::thread &worker : workers)
            worker.join();
        for (std::size_t i = 0; i < todo.size(); ++i)
            cache.emplace(specKey(*todo[i]), std::move(digests[i]));
    }

    const std::string &
    digest(const SweepSpec &spec)
    {
        const std::string key = specKey(spec);
        const auto it = cache.find(key);
        if (it != cache.end())
            return it->second;
        return cache.emplace(key, compute(spec)).first->second;
    }

  private:
    static std::string
    compute(const SweepSpec &spec)
    {
        Result<CompiledSweep> compiled = compileSweep(spec);
        if (!compiled.ok())
            return "compile failed";
        RunnerOptions options;
        options.threads = 1;
        ExperimentRunner runner(options);
        const std::size_t w =
            runner.addWorkload(std::move(compiled.value().program));
        runner.addCell(w, compiled.value().configs.front(),
                       compiled.value().labels.front());
        const MatrixResult result = runner.run();
        return result.cells.front().ok()
                   ? resultDigest(result.cells.front().result)
                   : "cell failed";
    }

    std::map<std::string, std::string> cache;
};

/** Does @p sample's answer match its class and the batch path? */
bool
sampleCorrect(const Sample &sample, BatchReference &reference)
{
    const ServiceResponse &r = sample.response;
    if (!sample.answered || !r.ok || r.cells.size() != 1)
        return false;
    const bool class_ok = sample.resubmit
                              ? r.executed == 0 && r.restored == 1
                              : r.executed == 1 && r.restored == 0;
    return class_ok &&
           resultDigest(r.cells.front().result) ==
               reference.digest(sample.spec);
}

/** Per-request layer samples of one composed request. */
struct ComposedRequest
{
    std::map<std::string, double> seconds;
    std::map<std::string, Count> counts;
    double wallSeconds = 0.0;
    std::string digest;
};

/**
 * A fresh request's work composed in-process from the calls the
 * daemon makes: protocol, compileSweep, materialize, profiling,
 * selection, evaluation, checkpoint record and restore.
 */
ComposedRequest
composeRequest(const SweepSpec &spec, const std::string &checkpoint_path)
{
    Trace trace;
    ComposedRequest out;
    const auto start = Clock::now();
    {
        ServiceRequest request;
        request.id = "composed";
        request.kind = RequestKind::Run;
        request.sweep = spec;
        Result<ServiceRequest> parsed = Error(ErrorCode::Internal, "");
        {
            ScopedTimer timer(&trace.timers, "service.protocol");
            parsed = parseRequest(renderRequest(request));
        }
        Result<CompiledSweep> compiled = Error(ErrorCode::Internal, "");
        {
            ScopedTimer timer(&trace.timers, "service.compile");
            compiled = compileSweep(parsed.value().sweep);
        }
        CompiledSweep &sweep = compiled.value();
        const ExperimentConfig &config = sweep.configs.front();
        Count needed = config.evalBranches + config.evalWarmupBranches;
        if (config.scheme != StaticScheme::None)
            needed = std::max(needed, config.profileBranches);
        ReplayBuffer buffer;
        {
            ScopedTimer timer(&trace.timers, "trace.request_materialize");
            sweep.program->setInput(config.evalInput);
            buffer = ReplayBuffer::materialize(*sweep.program, needed);
        }
        SiteIndex sites;
        {
            ScopedTimer timer(&trace.timers, "trace.site_index");
            sites = SiteIndex::build(buffer);
        }
        ProfilePhase phase;
        if (config.scheme != StaticScheme::None) {
            ScopedTimer timer(&trace.timers, "profile.phase");
            auto outcomes =
                runProfilePhasesFusedReplay(buffer, {&config}, &sites);
            phase = std::move(outcomes.front().phase);
        }
        PreparedEvaluation prepared;
        {
            ScopedTimer timer(&trace.timers, "staticsel.select");
            prepared = prepareEvaluationReplay(
                nullptr, buffer, config,
                config.scheme != StaticScheme::None ? &phase : nullptr);
        }
        std::vector<FusedSim> sims(1);
        sims[0].predictor = prepared.combined.get();
        sims[0].options = evalSimOptions(config, prepared);
        const std::string layer = "core.eval." + spec.predictor + ".plain";
        {
            ScopedTimer timer(&trace.timers, layer);
            simulateReplayFused(sims, buffer, &sites);
        }
        trace.counts.add(layer + ".branches", sims[0].stats.branches);
        CheckpointRecord record;
        {
            ScopedTimer timer(&trace.timers, "core.finish");
            record.result = finishPreparedEvaluation(
                prepared, config, sims[0].stats, &buffer);
        }
        record.fingerprint = sweep.fingerprints.front();
        record.label = sweep.labels.front();
        std::filesystem::remove(checkpoint_path);
        {
            ScopedTimer timer(&trace.timers, "core.checkpoint_record");
            SweepCheckpoint checkpoint(checkpoint_path);
            (void)checkpoint.record(record);
        }
        ServiceResponse response;
        {
            ScopedTimer timer(&trace.timers, "core.checkpoint_restore");
            SweepCheckpoint checkpoint(checkpoint_path);
            (void)checkpoint.load();
            if (const CheckpointRecord *found =
                    checkpoint.find(record.fingerprint))
                response.cells.push_back(*found);
        }
        response.id = request.id;
        response.fingerprint = sweep.requestFingerprint;
        response.executed = 1;
        {
            ScopedTimer timer(&trace.timers, "service.protocol");
            Result<ServiceResponse> echoed =
                parseResponse(renderResponse(response));
            if (echoed.ok() && echoed.value().cells.size() == 1)
                out.digest =
                    resultDigest(echoed.value().cells.front().result);
        }
    }
    out.wallSeconds = secondsSince(start);
    out.seconds = trace.seconds();
    out.counts = trace.counts.snapshot();
    return out;
}

/** Round-trip percentile over @p samples, or over one class of them. */
double
latencyPercentile(const std::vector<Sample> &samples, double p,
                  std::optional<bool> resubmit = std::nullopt)
{
    std::vector<double> ms;
    for (const Sample &sample : samples) {
        if (!resubmit || sample.resubmit == *resubmit)
            ms.push_back(sample.ms);
    }
    return percentile(ms, p);
}

/** Send the cold warm-up request on @p socket; returns its sample. */
Sample
sendWarmup(const std::string &socket, std::uint64_t seed)
{
    Sample warmup;
    warmup.spec = warmupSpec(seed);
    Result<ServiceClient> client = connectWithRetry(socket);
    if (!client.ok()) {
        std::fprintf(stderr, "perfbench: %s\n",
                     client.error().describe().c_str());
        return warmup;
    }
    ServiceRequest request;
    request.id = "warmup";
    request.kind = RequestKind::Run;
    request.sweep = warmup.spec;
    Result<ServiceResponse> response = client.value().call(request);
    if (response.ok()) {
        warmup.answered = true;
        warmup.response = std::move(response.value());
    }
    client.value().close();
    return warmup;
}

/**
 * One set-up sample: start a daemon process (this binary's serve
 * mode) on fresh state under options.dir and time it from the start
 * until it answers the cold warm-up request. The daemon is then
 * drained and waited for, untimed.
 */
double
timeDaemonStart(const LoadOptions &options, unsigned k,
                BatchReference &reference, Checks &checks)
{
    const std::string base = options.dir + "/setup" + std::to_string(k);
    std::vector<std::string> args = {"bpsim_perfbench", "serve",
                                     "--socket",        base + ".sock",
                                     "--state-dir",     base};
    std::vector<char *> argv;
    for (std::string &arg : args)
        argv.push_back(arg.data());
    argv.push_back(nullptr);
    posix_spawn_file_actions_t actions;
    posix_spawn_file_actions_init(&actions);
    // Its stdout would only carry its peak RSS.
    posix_spawn_file_actions_addopen(&actions, STDOUT_FILENO, "/dev/null",
                                     O_WRONLY, 0);
    const auto start = Clock::now();
    pid_t pid = -1;
    const int spawned = posix_spawn(&pid, "/proc/self/exe", &actions,
                                    nullptr, argv.data(), environ);
    posix_spawn_file_actions_destroy(&actions);
    if (spawned != 0) {
        checks.expect(false, "set-up daemon starts");
        return 0.0;
    }
    const Sample warmup = sendWarmup(base + ".sock", options.seed);
    const double seconds = secondsSince(start);
    // Drain it; one that has not exited 20 s later is killed, so no
    // daemon outlives the run.
    ::kill(pid, SIGTERM);
    int status = 0;
    const auto drain_deadline = Clock::now() + std::chrono::seconds(20);
    while (::waitpid(pid, &status, WNOHANG) == 0) {
        if (Clock::now() >= drain_deadline) {
            ::kill(pid, SIGKILL);
            ::waitpid(pid, &status, 0);
            break;
        }
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    checks.expect(sampleCorrect(warmup, reference),
                  "set-up daemon answers the warm-up request");
    checks.expect(WIFEXITED(status) && WEXITSTATUS(status) == 0,
                  "set-up daemon drains");
    return seconds;
}

} // namespace

int
serve(const std::string &socket, const std::string &state_dir)
{
    ServiceOptions options;
    options.socketPath = socket;
    options.stateDir = state_dir;
    options.threads = 1;
    ServiceServer server(options);
    const Result<void> started = server.start();
    if (!started.ok()) {
        std::fprintf(stderr, "bpsim_perfbench serve: %s\n",
                     started.error().describe().c_str());
        return 1;
    }
    drainFd = server.drainFd();
    struct sigaction action{};
    action.sa_handler = onTermSignal;
    sigemptyset(&action.sa_mask);
    sigaction(SIGTERM, &action, nullptr);
    server.waitUntilStopped();
    std::printf("{\"peak_rss_mb\": %.17g}\n", peakRssMiB());
    return 0;
}

int
runLoad(const LoadOptions &options)
{
    BatchReference reference;
    Checks checks;

    // Warm the daemon the load runs on with the cold warm-up request.
    checks.expect(sampleCorrect(sendWarmup(options.socket, options.seed),
                                reference),
                  "warm-up request");

    RequestPool pool(options.seed);
    std::atomic<std::size_t> next_index{0};
    std::vector<Sample> queued;
    std::vector<Sample> alone;
    std::vector<double> setup;
    double wall = 0.0;
    if (options.trace) {
        // Two connections (requests queue behind each other), then
        // one (nothing queues): the difference of their p50s is the
        // queue wait.
        closedLoop(options.socket, pool, 2, options.seconds / 2,
                   next_index, queued);
        closedLoop(options.socket, pool, 1, options.seconds / 2,
                   next_index, alone);
    } else {
        // A set-up sample before each equal slice of the load, so the
        // samples span the host's slow and fast phases as the load
        // does.
        for (unsigned k = 0; k < setupSamples; ++k) {
            setup.push_back(timeDaemonStart(options, k, reference, checks));
            std::fprintf(stderr, "perfbench: set-up sample %u: %.4f s\n", k,
                         setup.back());
            wall += closedLoop(options.socket, pool, 2,
                               options.seconds / setupSamples, next_index,
                               queued);
        }
    }

    // Untimed: every answer against its class and the batch path.
    std::vector<SweepSpec> sent;
    for (const std::vector<Sample> *phase : {&queued, &alone}) {
        for (const Sample &sample : *phase)
            sent.push_back(sample.spec);
    }
    reference.precompute(sent, verifyThreads);
    Count executed_branches = 0;
    Count cells = 0;
    Count restored = 0;
    for (const std::vector<Sample> *phase : {&queued, &alone}) {
        for (const Sample &sample : *phase) {
            checks.expect(sampleCorrect(sample, reference),
                   specKey(sample.spec) +
                       (sample.resubmit ? " (resubmit)" : " (fresh)"));
            cells += sample.response.cells.size();
            restored += sample.response.restored;
            if (!sample.resubmit) {
                for (const CheckpointRecord &cell : sample.response.cells)
                    executed_branches += cell.result.simulatedBranches;
            }
        }
    }

    if (!options.trace) {
        const double requests = static_cast<double>(queued.size());
        std::fprintf(stderr,
                     "perfbench: service_mix seed %llu: %zu requests "
                     "(%llu restored) in %.3f s, %zu set-up samples, %lld "
                     "checks, %lld failed (error_rate %.6f)\n",
                     static_cast<unsigned long long>(options.seed),
                     queued.size(), static_cast<unsigned long long>(restored),
                     wall, setup.size(), checks.attempted, checks.failed,
                     static_cast<double>(checks.failed) /
                         static_cast<double>(checks.attempted));
        printReport(
            checks.attempted, checks.failed,
            {{"setup_s", median(setup)},
             {"sim_branches_per_s",
              static_cast<double>(executed_branches) / wall},
             {"requests_per_s", requests / wall},
             {"latency_p50_ms", latencyPercentile(queued, 50)},
             {"latency_p95_ms", latencyPercentile(queued, 95)},
             {"requests", requests}});
        return 0;
    }

    // Traced: compose the fresh specs the one-connection phase sent,
    // up to one pass of the 32 combinations.
    std::map<std::string, std::vector<double>> per_request;
    std::map<std::string, double> seconds_total;
    std::map<std::string, Count> counts_total;
    std::vector<double> composed_wall;
    const std::string path = options.dir + "/composed.jsonl";
    for (const Sample &sample : alone) {
        if (sample.resubmit || composed_wall.size() == comboCount)
            continue;
        const ComposedRequest composed = composeRequest(sample.spec, path);
        checks.expect(composed.digest == reference.digest(sample.spec),
               specKey(sample.spec) + " equals its traced composition");
        composed_wall.push_back(composed.wallSeconds);
        for (const auto &[name, seconds] : composed.seconds) {
            seconds_total[name] += seconds;
            per_request[name].push_back(seconds);
        }
        for (const auto &[name, count] : composed.counts)
            counts_total[name] += count;
    }
    std::filesystem::remove(path);
    const auto per_request_median = [&](const std::string &name) {
        return median(per_request[name]);
    };

    std::map<std::string, double> m;
    const double fresh_ms = latencyPercentile(alone, 50, false);
    m["service.fresh_ms"] = fresh_ms;
    m["service.cached_ms"] = latencyPercentile(alone, 50, true);
    m["service.latency_p50_ms"] = latencyPercentile(queued, 50);
    m["service.latency_p95_ms"] = latencyPercentile(queued, 95);
    m["service.queue_wait_ms"] =
        latencyPercentile(queued, 50) - latencyPercentile(alone, 50);
    m["service.compile_ms"] = 1e3 * per_request_median("service.compile");
    m["service.protocol_us"] = 1e6 * per_request_median("service.protocol");
    m["core.checkpoint_record_ms"] =
        1e3 * per_request_median("core.checkpoint_record");
    m["core.checkpoint_restore_ms"] =
        1e3 * per_request_median("core.checkpoint_restore");
    m["trace.request_materialize_ms"] =
        1e3 * per_request_median("trace.request_materialize");
    m["trace.site_index_s"] = seconds_total["trace.site_index"];
    m["profile.phase_s"] = seconds_total["profile.phase"];
    m["staticsel.select_s"] = seconds_total["staticsel.select"];
    m["service.restored_ratio"] =
        cells > 0 ? static_cast<double>(restored) /
                        static_cast<double>(cells)
                  : 0.0;
    addEvalMetrics(seconds_total, counts_total, m);
    const double composed_total =
        std::accumulate(composed_wall.begin(), composed_wall.end(), 0.0);
    m["traced.coverage"] =
        composed_total > 0 ? total(seconds_total) / composed_total : 0.0;
    m["traced.overhead_ratio"] =
        fresh_ms > 0 ? 1e3 * median(composed_wall) / fresh_ms : 0.0;
    printReport(checks.attempted, checks.failed, m);
    return 0;
}

} // namespace perfbench
