#include "core/runner.hh"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <deque>
#include <limits>
#include <memory>
#include <mutex>
#include <thread>
#include <unordered_map>
#include <utility>

#include "cache/artifact_cache.hh"
#include "core/checkpoint.hh"
#include "core/simd.hh"
#include "support/atomic_file.hh"
#include "support/fault.hh"
#include "support/json.hh"
#include "support/logging.hh"
#include "trace/replay_buffer.hh"

namespace bpsim
{

namespace
{

double
secondsSince(std::chrono::steady_clock::time_point start)
{
    return std::chrono::duration<double>(
               std::chrono::steady_clock::now() - start)
        .count();
}

/** Sentinel for "cell has no shared profiling phase". */
constexpr std::size_t noPhase = std::numeric_limits<std::size_t>::max();

/**
 * Worker index of the calling thread within the pool currently
 * executing it; 0 everywhere else. The coordinating thread
 * participates as worker 0, so its default needs no special casing.
 */
thread_local unsigned poolWorkerIndex = 0;

/**
 * Cache identity of a cell's profiling run: everything that affects
 * the ProfilePhase and nothing that doesn't (the selection scheme and
 * its tunables apply downstream, which is what makes the phase
 * shareable across scheme cells). Empty when the phase is uncacheable
 * (a makeDynamic factory with no dynamicKey).
 */
std::string
profileCacheKey(const MatrixCell &cell)
{
    const ExperimentConfig &config = cell.config;
    const std::string identity = predictorIdentityOf(config);
    if (identity.empty())
        return {};
    return std::to_string(cell.programIndex) + "|" +
           std::to_string(
               static_cast<unsigned>(config.profileInput)) +
           "|" + std::to_string(config.profileBranches) + "|" +
           identity;
}

/**
 * Run @p fn up to 1 + @p retries times, retrying only transient
 * failures. Returns the final Error (std::nullopt on success) and
 * reports the attempts made through @p attempts. Non-ErrorException
 * exceptions become internal errors and never retry.
 */
std::optional<Error>
attemptWithRetries(unsigned retries, unsigned &attempts,
                   const std::function<void()> &fn)
{
    for (attempts = 1;; ++attempts) {
        try {
            fn();
            return std::nullopt;
        } catch (const ErrorException &failure) {
            if (!failure.error().transient() || attempts > retries)
                return failure.error();
        } catch (const std::exception &failure) {
            return Error(ErrorCode::Internal,
                         std::string("unexpected exception: ") +
                             failure.what());
        }
    }
}

/** Short input-set name for fused-group labels. */
const char *
inputSetName(InputSet input)
{
    return input == InputSet::Train ? "train" : "ref";
}

/** Comma-joined index list ("3,4,7") for journal payloads. */
std::string
joinIndexList(const std::vector<Count> &values)
{
    std::string out;
    for (std::size_t i = 0; i < values.size(); ++i) {
        if (i > 0)
            out += ",";
        out += std::to_string(values[i]);
    }
    return out;
}

/**
 * One planned fused pass: work items (cell or profile-phase indices)
 * that share a replay buffer, stepped together by one worker.
 */
struct FusedGroupPlan
{
    std::size_t programIndex = 0;
    InputSet input = InputSet::Ref;
    std::vector<std::size_t> members;
};

/**
 * Group @p items by their shared buffer, in first-seen item order so
 * the plan — and with it every result — is independent of the thread
 * count. @p key maps an item to its (program index, input) pair. The
 * group count is small (programs × inputs), so the linear scan beats
 * a map.
 */
template <typename Key>
std::vector<FusedGroupPlan>
groupForFusion(const std::vector<std::size_t> &items, const Key &key)
{
    std::vector<FusedGroupPlan> groups;
    for (const std::size_t item : items) {
        const auto [program, input] = key(item);
        FusedGroupPlan *group = nullptr;
        for (FusedGroupPlan &candidate : groups) {
            if (candidate.programIndex == program &&
                candidate.input == input) {
                group = &candidate;
                break;
            }
        }
        if (group == nullptr) {
            groups.push_back({program, input, {}});
            group = &groups.back();
        }
        group->members.push_back(item);
    }
    return groups;
}

/**
 * Split each group's member list into near-equal contiguous chunks so
 * a sweep with fewer groups than workers still spreads across the
 * pool. Chunking never changes results — each member still steps
 * through its own records — only which worker steps it.
 */
std::vector<FusedGroupPlan>
chunkGroups(std::vector<FusedGroupPlan> groups, unsigned threads)
{
    const std::size_t per_group =
        groups.empty() ? 1
                       : (threads + groups.size() - 1) / groups.size();
    std::vector<FusedGroupPlan> chunks;
    for (FusedGroupPlan &group : groups) {
        const std::size_t parts = std::clamp<std::size_t>(
            per_group, 1, group.members.size());
        const std::size_t base = group.members.size() / parts;
        const std::size_t extra = group.members.size() % parts;
        std::size_t at = 0;
        for (std::size_t c = 0; c < parts; ++c) {
            const std::size_t len = base + (c < extra ? 1 : 0);
            FusedGroupPlan chunk;
            chunk.programIndex = group.programIndex;
            chunk.input = group.input;
            chunk.members.assign(group.members.begin() + at,
                                 group.members.begin() + at + len);
            at += len;
            chunks.push_back(std::move(chunk));
        }
    }
    return chunks;
}

} // namespace

unsigned
resolveThreadCount(unsigned requested)
{
    if (requested > 0) {
        if (requested > maxResolvedThreads) {
            std::fprintf(stderr,
                         "bpsim: warning: %u threads requested; "
                         "clamping to %u\n",
                         requested, maxResolvedThreads);
            return maxResolvedThreads;
        }
        return requested;
    }
    const unsigned hardware = std::thread::hardware_concurrency();
    const unsigned fallback = hardware > 0 ? hardware : 1;
    if (const char *env = std::getenv("BPSIM_THREADS")) {
        char *end = nullptr;
        const unsigned long value = std::strtoul(env, &end, 10);
        // strtoul wraps negative input to a huge value; treat it as
        // garbage like any other unparseable token.
        if (end == env || *end != '\0' || value == 0 ||
            env[0] == '-') {
            // Garbage in the environment degrades to the hardware
            // default with a warning: a bad shell export should not
            // kill a sweep that would otherwise run fine.
            std::fprintf(stderr,
                         "bpsim: warning: BPSIM_THREADS expects a "
                         "positive integer, got '%s'; using %u\n",
                         env, fallback);
            return fallback;
        }
        if (value > maxResolvedThreads) {
            std::fprintf(stderr,
                         "bpsim: warning: BPSIM_THREADS=%lu; "
                         "clamping to %u\n",
                         value, maxResolvedThreads);
            return maxResolvedThreads;
        }
        return static_cast<unsigned>(value);
    }
    return fallback;
}

void
addThreadsOption(ArgParser &args)
{
    args.addOption("threads", "0",
                   "worker threads (0 = $BPSIM_THREADS, else hardware "
                   "concurrency)");
}

unsigned
threadsFromArgs(const ArgParser &args)
{
    return resolveThreadCount(
        static_cast<unsigned>(args.getUint("threads")));
}

TaskPool::TaskPool(unsigned threads)
    : workers(resolveThreadCount(threads))
{
}

unsigned
TaskPool::currentWorkerIndex()
{
    return poolWorkerIndex;
}

void
TaskPool::run(std::vector<std::function<void()>> tasks)
{
    const std::vector<std::exception_ptr> errors =
        runCollect(std::move(tasks));
    // Every task ran (or captured); rethrow the first failure by task
    // index so the escaping exception is thread-count independent.
    for (const std::exception_ptr &error : errors) {
        if (error)
            std::rethrow_exception(error);
    }
}

std::vector<std::exception_ptr>
TaskPool::runCollect(std::vector<std::function<void()>> tasks)
{
    std::vector<std::exception_ptr> errors(tasks.size());
    if (tasks.empty())
        return errors;
    const auto guarded = [&](std::size_t task_index) {
        try {
            tasks[task_index]();
        } catch (...) {
            errors[task_index] = std::current_exception();
        }
    };
    const unsigned n = static_cast<unsigned>(
        std::min<std::size_t>(workers, tasks.size()));
    if (n <= 1) {
        for (std::size_t i = 0; i < tasks.size(); ++i)
            guarded(i);
        return errors;
    }

    // Round-robin deal onto per-worker deques. Each worker drains its
    // own deque from the front and, when empty, steals from the back
    // of the others, so long-running tails redistribute themselves.
    struct WorkerDeque
    {
        std::deque<std::size_t> items;
        std::mutex lock;
    };
    std::vector<WorkerDeque> deques(n);
    for (std::size_t i = 0; i < tasks.size(); ++i)
        deques[i % n].items.push_back(i);

    std::atomic<std::size_t> remaining{tasks.size()};

    const auto worker = [&](unsigned self) {
        poolWorkerIndex = self;
        for (;;) {
            std::size_t task_index = 0;
            bool found = false;
            {
                std::lock_guard<std::mutex> guard(deques[self].lock);
                if (!deques[self].items.empty()) {
                    task_index = deques[self].items.front();
                    deques[self].items.pop_front();
                    found = true;
                }
            }
            for (unsigned v = 1; v < n && !found; ++v) {
                WorkerDeque &victim = deques[(self + v) % n];
                std::lock_guard<std::mutex> guard(victim.lock);
                if (!victim.items.empty()) {
                    task_index = victim.items.back();
                    victim.items.pop_back();
                    found = true;
                }
            }
            if (!found) {
                // Every queue is empty; wait for in-flight tasks (a
                // thief could still re-populate nothing — tasks never
                // spawn tasks) and exit.
                if (remaining.load(std::memory_order_acquire) == 0)
                    return;
                std::this_thread::yield();
                continue;
            }
            guarded(task_index);
            remaining.fetch_sub(1, std::memory_order_acq_rel);
        }
    };

    std::vector<std::thread> threads;
    threads.reserve(n - 1);
    for (unsigned t = 1; t < n; ++t)
        threads.emplace_back(worker, t);
    worker(0);
    for (auto &thread : threads)
        thread.join();
    return errors;
}

double
MatrixResult::serialEstimateSeconds() const
{
    double total = materializeSeconds + profileSeconds;
    for (const auto &cell : cells)
        total += cell.wallSeconds;
    return total;
}

double
MatrixResult::kernelBranchesPerSecond() const
{
    double sim_seconds = profileSeconds;
    for (const auto &cell : cells)
        sim_seconds += cell.wallSeconds;
    return sim_seconds > 0.0
               ? static_cast<double>(actualBranches) / sim_seconds
               : 0.0;
}

double
MatrixResult::speedupVsSerialEstimate() const
{
    return wallSeconds > 0.0 ? serialEstimateSeconds() / wallSeconds
                             : 0.0;
}

Result<std::pair<unsigned, unsigned>>
parseShardSpec(const std::string &spec)
{
    const auto invalid = [&spec] {
        return Result<std::pair<unsigned, unsigned>>(
            Error(ErrorCode::ConfigInvalid,
                  "shard spec must be 1-based i/N with 1 <= i <= N")
                .withContext("got '" + spec + "'"));
    };
    const std::size_t slash = spec.find('/');
    if (slash == std::string::npos || slash == 0 ||
        slash + 1 >= spec.size())
        return invalid();
    const std::string index_text = spec.substr(0, slash);
    const std::string count_text = spec.substr(slash + 1);
    const auto is_digits = [](const std::string &text) {
        return !text.empty() &&
               text.find_first_not_of("0123456789") ==
                   std::string::npos;
    };
    if (!is_digits(index_text) || !is_digits(count_text) ||
        index_text.size() > 9 || count_text.size() > 9)
        return invalid();
    const unsigned long index = std::strtoul(index_text.c_str(),
                                             nullptr, 10);
    const unsigned long count = std::strtoul(count_text.c_str(),
                                             nullptr, 10);
    if (index == 0 || count == 0 || index > count)
        return invalid();
    return Result<std::pair<unsigned, unsigned>>(
        std::pair<unsigned, unsigned>(
            static_cast<unsigned>(index),
            static_cast<unsigned>(count)));
}

ExperimentRunner::ExperimentRunner(RunnerOptions options)
    : options(options), taskPool(options.threads)
{
    if (!this->options.cacheDir.empty())
        cache = std::make_unique<ArtifactCache>(this->options.cacheDir);
}

ExperimentRunner::~ExperimentRunner() = default;

void
ExperimentRunner::validateShardOptions() const
{
    if (options.shardCount == 0 || options.shardIndex == 0 ||
        options.shardIndex > options.shardCount) {
        raise(Error(ErrorCode::ConfigInvalid,
                    "shard index/count must satisfy 1 <= index <= "
                    "count")
                  .withContext("got shard " +
                               std::to_string(options.shardIndex) +
                               "/" +
                               std::to_string(options.shardCount)));
    }
}

const std::string &
ExperimentRunner::fingerprintOf(std::size_t index)
{
    bpsim_assert(index < cells.size(), "fingerprint index out of range");
    if (fingerprintMemo.size() < cells.size())
        fingerprintMemo.resize(cells.size());
    if (!fingerprintMemo[index].has_value()) {
        fingerprintMemo[index] = cellFingerprint(
            *programs[cells[index].programIndex], cells[index].config);
    }
    return *fingerprintMemo[index];
}

bool
ExperimentRunner::cellInShard(std::size_t index)
{
    if (options.shardCount <= 1)
        return true;
    // Unfingerprintable cells (keyless makeDynamic factories) hash
    // their label instead, so every cell lands in exactly one shard
    // and a merged shard set still covers the whole matrix.
    const std::string &fingerprint = fingerprintOf(index);
    const std::string &identity =
        fingerprint.empty() ? cells[index].label : fingerprint;
    return shardOfFingerprint(identity, options.shardCount) ==
           options.shardIndex - 1;
}

std::size_t
ExperimentRunner::addProgram(SyntheticProgram program)
{
    return addWorkload(
        std::make_unique<SyntheticProgram>(std::move(program)));
}

std::size_t
ExperimentRunner::addWorkload(std::unique_ptr<WorkloadSource> workload)
{
    bpsim_assert(workload != nullptr, "null workload registered");
    programs.push_back(std::move(workload));
    demand.push_back({});
    buffers.emplace_back();
    return programs.size() - 1;
}

const WorkloadSource &
ExperimentRunner::program(std::size_t index) const
{
    bpsim_assert(index < programs.size(), "program index out of range");
    return *programs[index];
}

std::size_t
ExperimentRunner::addCell(std::size_t program_index,
                          const ExperimentConfig &config,
                          std::string label)
{
    bpsim_assert(program_index < programs.size(),
                 "cell references unknown program");
    MatrixCell cell;
    cell.programIndex = program_index;
    cell.config = config;
    // Attach the journal's counter registry so the engine's per-run
    // counters (kernel vs virtual path, branch totals) land in the
    // metrics summary. Not part of the cell's identity: the profile
    // cache key ignores it and results are unaffected.
    if (options.journal != nullptr)
        cell.config.counters = &options.journal->counters();
    // The runner-wide --no-simd switch can only narrow a cell's
    // config, never widen it: results are bit-identical either way,
    // so — like counters — this is invisible to the profile-cache
    // key and the checkpoint fingerprint.
    cell.config.simd = cell.config.simd && options.simd;
    if (label.empty()) {
        const std::string identity = predictorIdentityOf(config);
        label = programs[program_index]->name() + "/" +
                (identity.empty()
                     ? predictorKindName(config.kind) + ":" +
                           std::to_string(config.sizeBytes)
                     : identity) +
                "/" + staticSchemeName(config.scheme);
    }
    cell.label = std::move(label);
    // Demands are folded in at materialize() time (not here) so a
    // sharded run only materializes the buffers its own cells touch.
    cells.push_back(std::move(cell));
    return cells.size() - 1;
}

const MatrixCell &
ExperimentRunner::cell(std::size_t index) const
{
    bpsim_assert(index < cells.size(), "cell index out of range");
    return cells[index];
}

void
ExperimentRunner::requireBuffer(std::size_t program_index,
                                InputSet input, Count branches)
{
    bpsim_assert(program_index < programs.size(),
                 "buffer demand for unknown program");
    Count &needed =
        demand[program_index][static_cast<unsigned>(input)];
    needed = std::max(needed, branches);
}

void
ExperimentRunner::noteCellDemand(
    const MatrixCell &cell,
    std::vector<std::array<Count, numInputSets>> &plan) const
{
    const ExperimentConfig &config = cell.config;
    const auto require = [&plan, &cell](InputSet input,
                                        Count branches) {
        Count &needed =
            plan[cell.programIndex][static_cast<unsigned>(input)];
        needed = std::max(needed, branches);
    };
    // Warmup branches come out of the same stream ahead of the
    // measured window, so the buffer must cover both.
    Count eval_needed = config.evalBranches + config.evalWarmupBranches;
    if (config.scheme != StaticScheme::None) {
        require(config.profileInput, config.profileBranches);
        if (config.filterUnstable &&
            config.profileInput != config.evalInput) {
            eval_needed =
                std::max(eval_needed, config.profileBranches);
        }
    }
    require(config.evalInput, eval_needed);
}

void
ExperimentRunner::materialize()
{
    validateShardOptions();
    // The buffer plan: explicit requireBuffer() demands plus the
    // demands of every cell this shard owns. Folding cell demands in
    // here (not at addCell time) is what makes sharding a real
    // materialization win — a shard never generates or maps a buffer
    // only other shards' cells touch.
    auto plan = demand;
    for (std::size_t i = 0; i < cells.size(); ++i) {
        if (cellInShard(i))
            noteCellDemand(cells[i], plan);
    }

    // Collect programs with outstanding demand. One task per program
    // (not per buffer): materialization mutates the program's input
    // state, so a program's buffers must be filled sequentially.
    std::vector<std::size_t> pending;
    for (std::size_t p = 0; p < programs.size(); ++p) {
        for (unsigned input = 0; input < numInputSets; ++input) {
            const Count needed = plan[p][input];
            const ReplayBuffer *existing = buffers[p][input].get();
            if (needed > 0 &&
                (existing == nullptr || existing->size() < needed)) {
                pending.push_back(p);
                break;
            }
        }
    }
    if (pending.empty())
        return;

    obs::RunJournal *journal = options.journal;
    const auto start = std::chrono::steady_clock::now();
    taskPool.parallelFor(pending.size(), [&](std::size_t i) {
        const std::size_t p = pending[i];
        faultPoint(fault_points::materialize, programs[p]->name());
        for (unsigned input = 0; input < numInputSets; ++input) {
            const Count needed = plan[p][input];
            const ReplayBuffer *existing = buffers[p][input].get();
            if (needed == 0 ||
                (existing != nullptr && existing->size() >= needed))
                continue;
            std::string key;
            if (cache != nullptr) {
                key = replayArtifactKey(programs[p]->name(),
                                        programs[p]->seedValue(),
                                        input, needed);
                auto lookup = cache->loadReplay(key);
                if (!lookup.ok()) {
                    // Corrupt artifact: journal it, then regenerate
                    // below — the store overwrites the bad file.
                    std::fprintf(stderr,
                                 "bpsim: warning: corrupt replay "
                                 "artifact: %s\n",
                                 lookup.error().describe().c_str());
                    if (journal != nullptr) {
                        journal->record(
                            obs::EventKind::CacheCorrupt,
                            TaskPool::currentWorkerIndex(),
                            programs[p]->name(),
                            {obs::Field::str("artifact", "replay"),
                             obs::Field::str("key", key)});
                    }
                } else if (lookup.value().hit) {
                    buffers[p][input] = std::make_unique<ReplayBuffer>(
                        std::move(lookup.value().buffer));
                    if (journal != nullptr) {
                        journal->record(
                            obs::EventKind::Cache,
                            TaskPool::currentWorkerIndex(),
                            programs[p]->name(),
                            {obs::Field::str("artifact", "replay"),
                             obs::Field::str("op", "hit"),
                             obs::Field::u64(
                                 "bytes",
                                 buffers[p][input]->memoryBytes())});
                    }
                    continue;
                }
            }
            programs[p]->setInput(static_cast<InputSet>(input));
            buffers[p][input] = std::make_unique<ReplayBuffer>(
                ReplayBuffer::materialize(*programs[p], needed));
            if (cache != nullptr) {
                auto stored =
                    cache->storeReplay(key, *buffers[p][input]);
                if (!stored.ok()) {
                    // A write failure only costs the next process a
                    // regeneration; never fail the run for it.
                    std::fprintf(stderr,
                                 "bpsim: warning: replay artifact "
                                 "store failed: %s\n",
                                 stored.error().describe().c_str());
                } else if (journal != nullptr) {
                    journal->record(
                        obs::EventKind::Cache,
                        TaskPool::currentWorkerIndex(),
                        programs[p]->name(),
                        {obs::Field::str("artifact", "replay"),
                         obs::Field::str("op", "store"),
                         obs::Field::u64(
                             "bytes",
                             buffers[p][input]->memoryBytes())});
                }
            }
        }
    });
    materializeSeconds += secondsSince(start);
}

const ReplayBuffer &
ExperimentRunner::buffer(std::size_t program_index,
                         InputSet input) const
{
    bpsim_assert(program_index < programs.size(),
                 "buffer query for unknown program");
    const auto &held =
        buffers[program_index][static_cast<unsigned>(input)];
    bpsim_assert(held != nullptr,
                 "buffer not materialized (call materialize())");
    return *held;
}

MatrixResult
ExperimentRunner::run()
{
    obs::RunJournal *journal = options.journal;
    TimerRegistry *timers =
        journal != nullptr ? &journal->timers() : nullptr;

    validateShardOptions();

    // Checkpoint binding and resume load come first: an unreadable
    // checkpoint under --resume is a whole-run failure, raised before
    // any simulation work or journal events.
    std::unique_ptr<SweepCheckpoint> checkpoint;
    if (!options.checkpointPath.empty()) {
        checkpoint =
            std::make_unique<SweepCheckpoint>(options.checkpointPath);
    }
    if (options.resume && checkpoint != nullptr) {
        Result<void> loaded = checkpoint->load();
        if (!loaded.ok()) {
            raise(std::move(loaded.error())
                      .withContext("while resuming sweep"));
        }
    }
    std::vector<std::string> fingerprints(cells.size());
    if (checkpoint != nullptr || options.shardCount > 1) {
        for (std::size_t i = 0; i < cells.size(); ++i)
            fingerprints[i] = fingerprintOf(i);
    }

    // Shard membership. Out-of-shard cells keep their result slots
    // (indices stay matrix-stable for benches that print by position)
    // but are excluded from demand, profiling, execution, journal
    // events, checkpointing and aggregation.
    std::vector<char> in_shard(cells.size(), 1);
    if (options.shardCount > 1) {
        for (std::size_t i = 0; i < cells.size(); ++i)
            in_shard[i] = cellInShard(i) ? 1 : 0;
    }

    // Stamp the checkpoint with this run's shard identity. A resumed
    // file carrying a different stamp would silently mix slices of
    // different partitions, so that is rejected up front; the
    // immediate flush gives even a zero-cell shard a header-stamped
    // file for `merge` to verify.
    if (checkpoint != nullptr) {
        ShardStamp stamp;
        stamp.shardIndex = options.shardIndex;
        stamp.shardCount = options.shardCount;
        stamp.matrixCells = cells.size();
        for (std::size_t i = 0; i < cells.size(); ++i) {
            if (in_shard[i] && !fingerprints[i].empty())
                ++stamp.shardCells;
        }
        const std::optional<ShardStamp> existing = checkpoint->shard();
        if (existing.has_value() &&
            (existing->shardIndex != stamp.shardIndex ||
             existing->shardCount != stamp.shardCount ||
             existing->matrixCells != stamp.matrixCells)) {
            raise(Error(ErrorCode::ConfigInvalid,
                        "checkpoint was written by a different "
                        "shard or matrix")
                      .withContext(
                          "file '" + options.checkpointPath +
                          "' is shard " +
                          std::to_string(existing->shardIndex) + "/" +
                          std::to_string(existing->shardCount) +
                          " of " +
                          std::to_string(existing->matrixCells) +
                          " cells; this run is shard " +
                          std::to_string(stamp.shardIndex) + "/" +
                          std::to_string(stamp.shardCount) + " of " +
                          std::to_string(stamp.matrixCells)));
        }
        checkpoint->setShard(stamp);
        const Result<void> flushed = checkpoint->flush();
        if (!flushed.ok()) {
            std::fprintf(stderr,
                         "bpsim: warning: checkpoint header write "
                         "failed: %s\n",
                         flushed.error().describe().c_str());
        }
    }

    // Resolve the dispatch level once up front so the journal and the
    // runner JSON agree on what the engine will pick (the engine
    // re-resolves per simulation, but the inputs — CPU, options,
    // BPSIM_SIMD — are identical).
    const SimdLevel dispatch_level = resolveSimdLevel(options.simd);

    if (journal != nullptr) {
        journal->record(
            obs::EventKind::RunBegin, TaskPool::currentWorkerIndex(),
            journal->runLabel(),
            {obs::Field::u64("threads", taskPool.threadCount()),
             obs::Field::u64("cells", cells.size()),
             obs::Field::str("dispatch",
                             simdLevelName(dispatch_level)),
             obs::Field::u64("simd_width",
                             simdWidth(dispatch_level)),
             obs::Field::u64("shard_index", options.shardIndex),
             obs::Field::u64("shard_count", options.shardCount)});
    }

    const auto start = std::chrono::steady_clock::now();
    {
        if (journal != nullptr)
            journal->record(obs::EventKind::PhaseBegin,
                            TaskPool::currentWorkerIndex(),
                            "materialize");
        ScopedTimer timer(timers, "runner.materialize");
        try {
            materialize();
        } catch (...) {
            // Nothing can run without buffers: close the phase
            // bracket and let the failure escape to the caller.
            if (journal != nullptr) {
                journal->record(obs::EventKind::PhaseEnd,
                                TaskPool::currentWorkerIndex(),
                                "materialize",
                                {obs::Field::f64("seconds", 0.0)});
            }
            throw;
        }
        const double seconds = timer.stop();
        if (journal != nullptr) {
            std::size_t bytes = 0;
            for (const auto &per_program : buffers) {
                for (const auto &held : per_program) {
                    if (held != nullptr)
                        bytes += held->memoryBytes();
                }
            }
            std::vector<obs::Field> fields = {
                obs::Field::f64("seconds", seconds),
                obs::Field::u64("bytes", bytes)};
            if (cache != nullptr) {
                const ArtifactCacheStats stats = cache->stats();
                fields.push_back(obs::Field::u64("cache_replay_hits",
                                                 stats.replayHits));
                fields.push_back(obs::Field::u64(
                    "cache_replay_misses", stats.replayMisses));
                fields.push_back(
                    obs::Field::u64("mmap_bytes", stats.mappedBytes));
            }
            journal->record(obs::EventKind::Materialize,
                            TaskPool::currentWorkerIndex(),
                            "materialize", std::move(fields));
            journal->record(obs::EventKind::PhaseEnd,
                            TaskPool::currentWorkerIndex(),
                            "materialize",
                            {obs::Field::f64("seconds", seconds)});
        }
    }

    MatrixResult result;
    result.cells.resize(cells.size());
    result.threads = taskPool.threadCount();
    result.fused = options.fused;
    result.dispatch = simdLevelName(dispatch_level);
    result.simdLanes = simdWidth(dispatch_level);
    result.shardIndex = options.shardIndex;
    result.shardCount = options.shardCount;

    // Per-cell validation up front: an invalid cell becomes a failed
    // result without executing anything — crucially it also stays
    // out of the profile-phase plan, where its config could not
    // build a predictor. Out-of-shard cells are not validated: they
    // are another process's responsibility, and marking them failed
    // here would double-count the failure across shards.
    std::vector<std::optional<Error>> invalid(cells.size());
    for (std::size_t i = 0; i < cells.size(); ++i) {
        if (!in_shard[i])
            continue;
        Result<void> valid = cells[i].config.validate();
        if (!valid.ok())
            invalid[i] = std::move(valid.error());
    }

    // Cells restored from the checkpoint (copied out: the checkpoint
    // grows concurrently once workers start recording new cells).
    std::vector<std::optional<CheckpointRecord>> restored(cells.size());
    if (options.resume && checkpoint != nullptr) {
        for (std::size_t i = 0; i < cells.size(); ++i) {
            if (!in_shard[i] || invalid[i].has_value())
                continue;
            const CheckpointRecord *record =
                checkpoint->find(fingerprints[i]);
            if (record != nullptr)
                restored[i] = *record;
        }
    }

    const auto run_start = std::chrono::steady_clock::now();

    // Phase A: the unique profiling runs. Distinct cells often need
    // byte-identical profiling simulations (every scheme cell of one
    // program × predictor does); run each unique one once, in
    // first-seen cell order so the task list — and with it every
    // result — is independent of the thread count. The plan (and the
    // cache accounting) covers restored cells too: it is a property
    // of the matrix, so a resumed run reports the same hit/miss
    // counts as an uninterrupted one.
    struct ProfileTask
    {
        std::size_t programIndex;
        InputSet input;
        const ExperimentConfig *config;
    };
    std::vector<ProfileTask> profile_tasks;
    std::vector<std::size_t> cell_phase(cells.size(), noPhase);
    if (options.profileCache) {
        std::unordered_map<std::string, std::size_t> phase_of_key;
        for (std::size_t i = 0; i < cells.size(); ++i) {
            const ExperimentConfig &config = cells[i].config;
            if (!in_shard[i] || invalid[i].has_value())
                continue;
            if (config.scheme == StaticScheme::None)
                continue;
            const std::string key = profileCacheKey(cells[i]);
            if (key.empty())
                continue;
            const auto [it, inserted] =
                phase_of_key.try_emplace(key, profile_tasks.size());
            if (inserted) {
                profile_tasks.push_back({cells[i].programIndex,
                                         config.profileInput,
                                         &config});
            } else {
                ++result.profileCacheHits;
            }
            cell_phase[i] = it->second;
        }
        result.profileCacheMisses = profile_tasks.size();
    }

    // Only phases with at least one pending consumer execute; a
    // phase whose every consumer was restored is skipped (its branch
    // count is recovered from the checkpoint records below).
    std::vector<char> phase_needed(profile_tasks.size(), 0);
    for (std::size_t i = 0; i < cells.size(); ++i) {
        if (cell_phase[i] != noPhase && !restored[i].has_value())
            phase_needed[cell_phase[i]] = 1;
    }
    std::vector<std::size_t> phase_exec;
    for (std::size_t j = 0; j < profile_tasks.size(); ++j) {
        if (phase_needed[j])
            phase_exec.push_back(j);
    }

    std::vector<ProfilePhase> phases(profile_tasks.size());
    std::vector<Count> phase_branches(profile_tasks.size(), 0);
    std::vector<double> phase_walls(profile_tasks.size(), 0.0);
    std::vector<char> phase_kernel(profile_tasks.size(), 0);
    std::vector<char> phase_simd(profile_tasks.size(), 0);
    std::vector<std::optional<Error>> phase_errors(
        profile_tasks.size());
    std::atomic<bool> abortRun{false};
    std::atomic<Count> fused_group_count{0};

    // Cooperative cancellation: polled at the same gates as the
    // fail-fast flag, in both phases. Work not yet started when the
    // token trips is skipped with a Cancelled error; work in flight
    // finishes (and checkpoints) normally.
    const auto cancelled = [&] {
        return options.cancel && options.cancel();
    };

    // Artifact-cache pass over the executable phases: a valid on-disk
    // profile satisfies a phase without simulating anything. Each
    // disk hit still journals a profile_phase event (marked
    // cache="disk") so the events-vs-misses invariant the validator
    // checks holds on warm runs; kernel/simd are vacuously true for a
    // phase nothing simulated, mirroring how restored cells keep
    // their recorded flags. profileCacheMisses deliberately stays the
    // in-memory plan size — the disk hit/miss split is reported
    // separately in the cache counters.
    std::vector<std::string> phase_disk_keys(profile_tasks.size());
    if (cache != nullptr && !phase_exec.empty()) {
        std::vector<std::size_t> still_exec;
        still_exec.reserve(phase_exec.size());
        for (const std::size_t j : phase_exec) {
            const ProfileTask &task = profile_tasks[j];
            const ExperimentConfig &config = *task.config;
            const WorkloadSource &program =
                *programs[task.programIndex];
            const std::string identity = predictorIdentityOf(config);
            phase_disk_keys[j] = profileArtifactKey(
                program.name(), program.seedValue(),
                static_cast<unsigned>(task.input),
                config.profileBranches, identity);
            ScopedTimer timer(timers, "runner.profile_cache_load");
            auto lookup = cache->loadProfile(phase_disk_keys[j]);
            if (!lookup.ok()) {
                std::fprintf(stderr,
                             "bpsim: warning: corrupt profile "
                             "artifact: %s\n",
                             lookup.error().describe().c_str());
                if (journal != nullptr) {
                    journal->record(
                        obs::EventKind::CacheCorrupt,
                        TaskPool::currentWorkerIndex(),
                        program.name(),
                        {obs::Field::str("artifact", "profile"),
                         obs::Field::str("key", phase_disk_keys[j])});
                }
                still_exec.push_back(j);
                continue;
            }
            if (!lookup.value().hit) {
                timer.stop();
                still_exec.push_back(j);
                continue;
            }
            phases[j].profile = std::move(lookup.value().profile);
            phases[j].simulatedBranches =
                lookup.value().simulatedBranches;
            phase_branches[j] = phases[j].simulatedBranches;
            phase_kernel[j] = 1;
            phase_simd[j] = 1;
            phase_walls[j] = timer.stop();
            if (journal != nullptr) {
                journal->record(
                    obs::EventKind::Cache,
                    TaskPool::currentWorkerIndex(), program.name(),
                    {obs::Field::str("artifact", "profile"),
                     obs::Field::str("op", "hit"),
                     obs::Field::u64("branches", phase_branches[j])});
                journal->record(
                    obs::EventKind::ProfilePhase,
                    TaskPool::currentWorkerIndex(), program.name(),
                    {obs::Field::u64("phase", j),
                     obs::Field::f64("seconds", phase_walls[j]),
                     obs::Field::boolean("kernel", true),
                     obs::Field::boolean("simd", true),
                     obs::Field::u64("branches", phase_branches[j]),
                     obs::Field::str("cache", "disk")});
            }
        }
        phase_exec = std::move(still_exec);
    }

    const auto groupLabel = [&](const FusedGroupPlan &chunk) {
        return programs[chunk.programIndex]->name() + "/" +
               inputSetName(chunk.input);
    };

    // One fused profiling chunk: gate each member through its own
    // abort/fault checks (so an injected fault fails exactly that
    // member and leaves the rest of the group unaffected), then run
    // the survivors' profiling sims in a single pass over the shared
    // buffer.
    const auto runFusedProfileChunk = [&](const FusedGroupPlan
                                              &chunk) {
        const std::string &program_name =
            programs[chunk.programIndex]->name();
        std::vector<std::size_t> live;
        for (const std::size_t j : chunk.members) {
            if (cancelled()) {
                phase_errors[j] =
                    Error(ErrorCode::Cancelled,
                          "skipped: run cancelled before the "
                          "profiling phase started");
                continue;
            }
            if (abortRun.load(std::memory_order_relaxed)) {
                phase_errors[j] = Error(
                    ErrorCode::CellFailed,
                    "skipped: fail-fast after an earlier failure");
                continue;
            }
            unsigned attempts = 0;
            std::optional<Error> failure = attemptWithRetries(
                options.retries, attempts, [&] {
                    faultPoint(fault_points::profilePhase,
                               program_name);
                });
            if (failure.has_value()) {
                phase_errors[j] = std::move(*failure).withContext(
                    "in shared profiling phase (" + program_name +
                    ")");
                if (options.failFast)
                    abortRun.store(true, std::memory_order_relaxed);
                continue;
            }
            live.push_back(j);
        }
        if (live.empty())
            return;

        ScopedTimer timer(timers, "runner.profile_phase");
        std::vector<const ExperimentConfig *> configs;
        configs.reserve(live.size());
        for (const std::size_t j : live)
            configs.push_back(profile_tasks[j].config);
        std::vector<FusedProfileOutcome> outcomes;
        unsigned pass_attempts = 0;
        std::optional<Error> pass_failure = attemptWithRetries(
            options.retries, pass_attempts, [&] {
                outcomes = runProfilePhasesFusedReplay(
                    buffer(chunk.programIndex, chunk.input), configs);
            });
        const double wall = timer.stop();
        if (pass_failure.has_value()) {
            for (const std::size_t j : live) {
                Error failure = *pass_failure;
                phase_errors[j] = std::move(failure).withContext(
                    "in shared profiling phase (" + program_name +
                    ")");
            }
            if (options.failFast)
                abortRun.store(true, std::memory_order_relaxed);
            return;
        }

        Count total_branches = 0;
        for (const FusedProfileOutcome &outcome : outcomes)
            total_branches += outcome.phase.simulatedBranches;
        std::vector<Count> member_phases;
        for (std::size_t k = 0; k < live.size(); ++k) {
            const std::size_t j = live[k];
            phases[j] = std::move(outcomes[k].phase);
            phase_branches[j] = phases[j].simulatedBranches;
            phase_kernel[j] = outcomes[k].usedFastPath ? 1 : 0;
            phase_simd[j] = outcomes[k].usedSimd ? 1 : 0;
            // Prorate the pass wall over members by branch share so
            // the serial estimate stays comparable to per-cell runs.
            phase_walls[j] =
                total_branches > 0
                    ? wall * static_cast<double>(phase_branches[j]) /
                          static_cast<double>(total_branches)
                    : wall / static_cast<double>(live.size());
            member_phases.push_back(j);
            if (journal != nullptr) {
                journal->record(
                    obs::EventKind::ProfilePhase,
                    TaskPool::currentWorkerIndex(), program_name,
                    {obs::Field::u64("phase", j),
                     obs::Field::f64("seconds", phase_walls[j]),
                     obs::Field::boolean("kernel",
                                         outcomes[k].usedFastPath),
                     obs::Field::boolean("simd",
                                         outcomes[k].usedSimd),
                     obs::Field::u64("branches",
                                     phase_branches[j])});
            }
        }
        if (journal != nullptr) {
            journal->record(
                obs::EventKind::FusedGroup,
                TaskPool::currentWorkerIndex(), groupLabel(chunk),
                {obs::Field::str("phase", "profile"),
                 obs::Field::u64("members", live.size()),
                 obs::Field::str("cells",
                                 joinIndexList(member_phases)),
                 obs::Field::f64("seconds", wall),
                 obs::Field::u64("branches", total_branches)});
        }
        fused_group_count.fetch_add(1, std::memory_order_relaxed);
    };

    if (journal != nullptr && !phase_exec.empty())
        journal->record(obs::EventKind::PhaseBegin,
                        TaskPool::currentWorkerIndex(), "profile");
    // One standalone profiling phase (the non-fused path).
    const auto runProfilePhaseSolo = [&](std::size_t j) {
        const ProfileTask &task = profile_tasks[j];
        const std::string &program_name =
            programs[task.programIndex]->name();
        if (cancelled()) {
            phase_errors[j] =
                Error(ErrorCode::Cancelled,
                      "skipped: run cancelled before the profiling "
                      "phase started");
            return;
        }
        if (abortRun.load(std::memory_order_relaxed)) {
            phase_errors[j] =
                Error(ErrorCode::CellFailed,
                      "skipped: fail-fast after an earlier failure");
            return;
        }
        ScopedTimer timer(timers, "runner.profile_phase");
        bool fast = false;
        bool simd = false;
        unsigned attempts = 0;
        std::optional<Error> failure = attemptWithRetries(
            options.retries, attempts, [&] {
                faultPoint(fault_points::profilePhase, program_name);
                phases[j] = runProfilePhaseReplay(
                    buffer(task.programIndex, task.input),
                    *task.config, &fast, &simd);
            });
        phase_walls[j] = timer.stop();
        if (failure.has_value()) {
            phase_errors[j] = std::move(*failure).withContext(
                "in shared profiling phase (" + program_name + ")");
            if (options.failFast)
                abortRun.store(true, std::memory_order_relaxed);
            return;
        }
        phase_branches[j] = phases[j].simulatedBranches;
        phase_kernel[j] = fast ? 1 : 0;
        phase_simd[j] = simd ? 1 : 0;
        if (journal != nullptr) {
            journal->record(
                obs::EventKind::ProfilePhase,
                TaskPool::currentWorkerIndex(), program_name,
                {obs::Field::u64("phase", j),
                 obs::Field::f64("seconds", phase_walls[j]),
                 obs::Field::boolean("kernel", fast),
                 obs::Field::boolean("simd", simd),
                 obs::Field::u64("branches",
                                 phases[j].simulatedBranches)});
        }
    };

    if (options.fused) {
        // Fused profiling: group the executable phases by their
        // shared profile buffer and run each chunk's predictors in
        // one pass over it.
        const std::vector<FusedGroupPlan> profile_chunks =
            chunkGroups(groupForFusion(
                            phase_exec,
                            [&](std::size_t j) {
                                return std::pair(
                                    profile_tasks[j].programIndex,
                                    profile_tasks[j].input);
                            }),
                        taskPool.threadCount());
        taskPool.parallelFor(profile_chunks.size(),
                             [&](std::size_t c) {
                                 runFusedProfileChunk(
                                     profile_chunks[c]);
                             });
    } else {
        taskPool.parallelFor(phase_exec.size(), [&](std::size_t k) {
            runProfilePhaseSolo(phase_exec[k]);
        });
    }
    // Persist freshly executed phases so the next process (or the
    // next shard) loads them instead of re-simulating. Store failures
    // only cost a future regeneration.
    if (cache != nullptr) {
        for (const std::size_t j : phase_exec) {
            if (phase_errors[j].has_value() ||
                phase_disk_keys[j].empty())
                continue;
            const Result<void> stored = cache->storeProfile(
                phase_disk_keys[j], phases[j].profile,
                phases[j].simulatedBranches);
            if (!stored.ok()) {
                std::fprintf(stderr,
                             "bpsim: warning: profile artifact "
                             "store failed: %s\n",
                             stored.error().describe().c_str());
            } else if (journal != nullptr) {
                journal->record(
                    obs::EventKind::Cache,
                    TaskPool::currentWorkerIndex(),
                    programs[profile_tasks[j].programIndex]->name(),
                    {obs::Field::str("artifact", "profile"),
                     obs::Field::str("op", "store"),
                     obs::Field::u64("branches",
                                     phase_branches[j])});
            }
        }
    }
    for (const double wall : phase_walls)
        result.profileSeconds += wall;
    if (journal != nullptr && !phase_exec.empty())
        journal->record(obs::EventKind::PhaseEnd,
                        TaskPool::currentWorkerIndex(), "profile",
                        {obs::Field::f64("seconds",
                                         result.profileSeconds)});

    // Phase B plumbing, shared by the per-cell and fused paths so
    // both emit byte-identical journal events and checkpoint records.

    // Progress hook: one call per in-shard cell once its outcome is
    // final (executed, restored or failed). Runs on worker threads.
    const auto notifyCell = [&](std::size_t i) {
        if (options.onCellFinished)
            options.onCellFinished(i, result.cells[i]);
    };

    // Close a cell's journal bracket with a cell_error and set its
    // failure slot; with failFast, wave the rest of the sweep off.
    const auto failCell = [&](std::size_t i, Error error,
                              unsigned attempts) {
        CellResult &out = result.cells[i];
        out.error = std::move(error);
        out.attempts = attempts;
        // Cancellation ends cells without aborting the run: the
        // token is already monotonic, and fail-fast would repaint
        // the remaining cells' errors as cell_failed.
        if (options.failFast &&
            out.error->code() != ErrorCode::Cancelled)
            abortRun.store(true, std::memory_order_relaxed);
        if (journal != nullptr) {
            journal->record(
                obs::EventKind::CellError,
                TaskPool::currentWorkerIndex(), cells[i].label,
                {obs::Field::u64("cell", i),
                 obs::Field::str("code",
                                 errorCodeName(out.error->code())),
                 obs::Field::str("message", out.error->message()),
                 obs::Field::u64("attempts", attempts)});
        }
        notifyCell(i);
    };

    const auto emitCellEnd = [&](std::size_t i) {
        if (journal == nullptr)
            return;
        const CellResult &out = result.cells[i];
        const SimStats &stats = out.result.stats;
        const Count classified = stats.collisions.constructive +
                                 stats.collisions.destructive;
        const Count neutral =
            stats.collisions.collisions > classified
                ? stats.collisions.collisions - classified
                : 0;
        journal->record(
            obs::EventKind::CellEnd,
            TaskPool::currentWorkerIndex(), cells[i].label,
            {obs::Field::u64("cell", i),
             obs::Field::f64("seconds", out.wallSeconds),
             obs::Field::boolean("kernel", out.usedKernel),
             obs::Field::boolean("simd", out.usedSimd),
             obs::Field::boolean("profile_cached",
                                 out.profileCached),
             obs::Field::boolean("restored", out.restored),
             obs::Field::u64("branches", stats.branches),
             obs::Field::u64("simulated_branches",
                             out.result.simulatedBranches),
             obs::Field::u64("instructions", stats.instructions),
             obs::Field::u64("mispredictions",
                             stats.mispredictions),
             obs::Field::f64("misp_ki", stats.mispKi()),
             obs::Field::u64("hints", out.result.hintCount),
             obs::Field::u64("static_predicted",
                             stats.staticPredicted),
             obs::Field::u64("lookups", stats.collisions.lookups),
             obs::Field::u64("collisions",
                             stats.collisions.collisions),
             obs::Field::u64("constructive",
                             stats.collisions.constructive),
             obs::Field::u64("destructive",
                             stats.collisions.destructive),
             obs::Field::u64("neutral", neutral)});

        // Scenario cells add a compact multi-context summary: the
        // cross- vs self-context split of the attributed collisions.
        // The full NxN matrix is runner/bench JSON payload, not a
        // journal event.
        const std::vector<ContextAliasCell> &matrix =
            out.result.aliasMatrix;
        const std::size_t contexts =
            cells[i].config.scenarioContexts;
        if (contexts == 0 ||
            matrix.size() != contexts * contexts)
            return;
        Count cross_collisions = 0;
        Count cross_destructive = 0;
        Count self_collisions = 0;
        Count self_destructive = 0;
        for (std::size_t victim = 0; victim < contexts; ++victim) {
            for (std::size_t aggr = 0; aggr < contexts; ++aggr) {
                const ContextAliasCell &entry =
                    matrix[victim * contexts + aggr];
                if (victim == aggr) {
                    self_collisions += entry.collisions;
                    self_destructive += entry.destructive;
                } else {
                    cross_collisions += entry.collisions;
                    cross_destructive += entry.destructive;
                }
            }
        }
        journal->record(
            obs::EventKind::ScenarioCell,
            TaskPool::currentWorkerIndex(), cells[i].label,
            {obs::Field::u64("cell", i),
             obs::Field::u64("contexts", contexts),
             obs::Field::u64("collisions_cross", cross_collisions),
             obs::Field::u64("destructive_cross", cross_destructive),
             obs::Field::u64("collisions_self", self_collisions),
             obs::Field::u64("destructive_self", self_destructive)});
    };

    // Persist before the journal event: a kill between the two can
    // only lose the cell (re-run on resume), never record it twice.
    // A failed checkpoint write degrades durability, not
    // correctness, so it warns instead of failing the cell.
    const auto writeCheckpoint = [&](std::size_t i) {
        if (checkpoint == nullptr || fingerprints[i].empty())
            return;
        const CellResult &out = result.cells[i];
        try {
            faultPoint(fault_points::checkpointWrite, cells[i].label);
            CheckpointRecord record;
            record.fingerprint = fingerprints[i];
            record.label = cells[i].label;
            record.result = out.result;
            record.usedKernel = out.usedKernel;
            record.usedSimd = out.usedSimd;
            record.phaseBranches =
                out.profileCached ? phase_branches[cell_phase[i]]
                                  : 0;
            const Result<void> recorded =
                checkpoint->record(std::move(record));
            if (!recorded.ok()) {
                std::fprintf(stderr,
                             "bpsim: warning: checkpoint write "
                             "failed for '%s': %s\n",
                             cells[i].label.c_str(),
                             recorded.error().describe().c_str());
            }
        } catch (const ErrorException &write_failure) {
            std::fprintf(stderr,
                         "bpsim: warning: checkpoint write "
                         "failed for '%s': %s\n",
                         cells[i].label.c_str(),
                         write_failure.what());
        }
    };

    // One complete cell (the non-fused path; the fused path reuses
    // it for the no-simulation invalid/restored cases).
    const auto runCell = [&](std::size_t i) {
        const MatrixCell &cell = cells[i];
        const ExperimentConfig &config = cell.config;
        CellResult &out = result.cells[i];
        // Another shard's cell: keep the empty result slot, emit no
        // events — from this process's perspective it does not run.
        if (!in_shard[i]) {
            out.shardSkipped = true;
            return;
        }
        if (journal != nullptr)
            journal->record(obs::EventKind::CellBegin,
                            TaskPool::currentWorkerIndex(), cell.label,
                            {obs::Field::u64("cell", i)});

        if (invalid[i].has_value()) {
            failCell(i, *invalid[i], 0);
            return;
        }

        // Restored from the checkpoint: surface the persisted result
        // without executing. profileCached comes from the matrix's
        // phase plan so cache accounting matches an uninterrupted
        // run; wallSeconds stays 0 (no work was done).
        if (restored[i].has_value()) {
            out.result = restored[i]->result;
            out.usedKernel = restored[i]->usedKernel;
            out.usedSimd = restored[i]->usedSimd;
            out.profileCached = cell_phase[i] != noPhase;
            out.restored = true;
            emitCellEnd(i);
            notifyCell(i);
            return;
        }

        if (cancelled()) {
            failCell(i,
                     Error(ErrorCode::Cancelled,
                           "skipped: run cancelled before the cell "
                           "started"),
                     0);
            return;
        }

        if (abortRun.load(std::memory_order_relaxed)) {
            failCell(
                i,
                Error(ErrorCode::CellFailed,
                      "skipped: fail-fast after an earlier failure"),
                0);
            return;
        }

        const ProfilePhase *cached = nullptr;
        if (cell_phase[i] != noPhase) {
            if (phase_errors[cell_phase[i]].has_value()) {
                // A cancelled phase means the cell never had a
                // chance to run; keep the Cancelled code so callers
                // can tell "not started" from "broken".
                const ErrorCode phase_code =
                    phase_errors[cell_phase[i]]->code();
                failCell(i,
                         Error(phase_code == ErrorCode::Cancelled
                                   ? ErrorCode::Cancelled
                                   : ErrorCode::CellFailed,
                               "shared profiling phase failed")
                             .withContext(
                                 phase_errors[cell_phase[i]]
                                     ->describe()),
                         0);
                return;
            }
            cached = &phases[cell_phase[i]];
        }
        const ReplayBuffer *profile_buffer =
            config.scheme != StaticScheme::None && cached == nullptr
                ? &buffer(cell.programIndex, config.profileInput)
                : nullptr;

        ScopedTimer timer(timers, "runner.cell");
        bool fast = false;
        bool simd = false;
        unsigned attempts = 0;
        ExperimentResult cell_result;
        std::optional<Error> failure = attemptWithRetries(
            options.retries, attempts, [&] {
                faultPoint(fault_points::cell, cell.label);
                cell_result = runExperimentReplay(
                    profile_buffer,
                    buffer(cell.programIndex, config.evalInput),
                    config, cached, &fast, &simd);
            });
        out.wallSeconds = timer.stop();
        if (failure.has_value()) {
            failCell(i,
                     std::move(*failure).withContext(
                         "while running cell " + cell.label),
                     attempts);
            return;
        }
        out.result = cell_result;
        out.attempts = attempts;
        out.profileCached = cached != nullptr;
        out.usedKernel =
            fast && (cached == nullptr || phase_kernel[cell_phase[i]]);
        out.usedSimd =
            simd && (cached == nullptr || phase_simd[cell_phase[i]]);

        writeCheckpoint(i);
        emitCellEnd(i);
        notifyCell(i);
    };

    // One fused evaluation chunk: prepare each member cell (its
    // profiling, merge filter, selection and predictor construction),
    // then step every prepared predictor through the shared eval
    // buffer in one pass and assemble per-cell results. Per-member
    // gates keep failure semantics identical to the per-cell path: an
    // injected fault or failed shared phase takes down exactly that
    // member, and the survivors' results are unaffected.
    const auto runFusedCellChunk = [&](const FusedGroupPlan &chunk) {
        struct LiveCell
        {
            std::size_t index = 0;
            PreparedEvaluation prepared;
            bool cached = false;
            unsigned attempts = 0;
            double prepareSeconds = 0.0;
        };
        std::vector<LiveCell> live;
        for (const std::size_t i : chunk.members) {
            const MatrixCell &cell = cells[i];
            const ExperimentConfig &config = cell.config;
            if (journal != nullptr) {
                journal->record(obs::EventKind::CellBegin,
                                TaskPool::currentWorkerIndex(),
                                cell.label,
                                {obs::Field::u64("cell", i)});
            }
            if (cancelled()) {
                failCell(i,
                         Error(ErrorCode::Cancelled,
                               "skipped: run cancelled before the "
                               "cell started"),
                         0);
                continue;
            }
            if (abortRun.load(std::memory_order_relaxed)) {
                failCell(i,
                         Error(ErrorCode::CellFailed,
                               "skipped: fail-fast after an earlier "
                               "failure"),
                         0);
                continue;
            }
            const ProfilePhase *cached = nullptr;
            if (cell_phase[i] != noPhase) {
                if (phase_errors[cell_phase[i]].has_value()) {
                    const ErrorCode phase_code =
                        phase_errors[cell_phase[i]]->code();
                    failCell(i,
                             Error(phase_code == ErrorCode::Cancelled
                                       ? ErrorCode::Cancelled
                                       : ErrorCode::CellFailed,
                                   "shared profiling phase failed")
                                 .withContext(
                                     phase_errors[cell_phase[i]]
                                         ->describe()),
                             0);
                    continue;
                }
                cached = &phases[cell_phase[i]];
            }
            const ReplayBuffer *profile_buffer =
                config.scheme != StaticScheme::None &&
                        cached == nullptr
                    ? &buffer(cell.programIndex, config.profileInput)
                    : nullptr;

            ScopedTimer timer(timers, "runner.cell");
            LiveCell entry;
            entry.index = i;
            entry.cached = cached != nullptr;
            std::optional<Error> failure = attemptWithRetries(
                options.retries, entry.attempts, [&] {
                    faultPoint(fault_points::cell, cell.label);
                    entry.prepared = prepareEvaluationReplay(
                        profile_buffer,
                        buffer(cell.programIndex, config.evalInput),
                        config, cached);
                });
            entry.prepareSeconds = timer.stop();
            if (failure.has_value()) {
                result.cells[i].wallSeconds = entry.prepareSeconds;
                failCell(i,
                         std::move(*failure).withContext(
                             "while running cell " + cell.label),
                         entry.attempts);
                continue;
            }
            live.push_back(std::move(entry));
        }
        if (live.empty())
            return;

        const ReplayBuffer &eval_buffer =
            buffer(chunk.programIndex, chunk.input);
        std::vector<FusedSim> sims(live.size());
        for (std::size_t k = 0; k < live.size(); ++k) {
            sims[k].predictor = live[k].prepared.combined.get();
            sims[k].options = evalSimOptions(
                cells[live[k].index].config, live[k].prepared);
        }
        ScopedTimer pass_timer(timers, "runner.fused_pass");
        unsigned pass_attempts = 0;
        std::optional<Error> pass_failure = attemptWithRetries(
            options.retries, pass_attempts, [&] {
                simulateReplayFused(sims, eval_buffer);
            });
        const double pass_wall = pass_timer.stop();
        if (pass_failure.has_value()) {
            for (const LiveCell &entry : live) {
                result.cells[entry.index].wallSeconds =
                    entry.prepareSeconds;
                Error failure = *pass_failure;
                failCell(entry.index,
                         std::move(failure).withContext(
                             "while running cell " +
                             cells[entry.index].label),
                         entry.attempts + pass_attempts - 1);
            }
            return;
        }

        // Per-record work of each member: measured branches plus its
        // warmup slice of the shared buffer. Used to prorate the
        // pass wall so per-cell timings and the serial estimate stay
        // comparable to per-cell runs.
        double total_records = 0.0;
        std::vector<double> member_records(live.size(), 0.0);
        for (std::size_t k = 0; k < live.size(); ++k) {
            member_records[k] =
                static_cast<double>(sims[k].stats.branches) +
                static_cast<double>(
                    std::min<Count>(sims[k].options.warmupBranches,
                                    eval_buffer.size()));
            total_records += member_records[k];
        }
        std::vector<Count> member_cells;
        std::vector<Count> member_branches;
        std::vector<Count> member_misps;
        Count group_branches = 0;
        for (std::size_t k = 0; k < live.size(); ++k) {
            const std::size_t i = live[k].index;
            CellResult &out = result.cells[i];
            out.result = finishPreparedEvaluation(
                live[k].prepared, cells[i].config, sims[k].stats,
                &eval_buffer);
            out.attempts = live[k].attempts + pass_attempts - 1;
            out.profileCached = live[k].cached;
            const bool fast = live[k].prepared.preEvalFastPath &&
                              sims[k].usedFastPath;
            out.usedKernel =
                fast &&
                (!live[k].cached || phase_kernel[cell_phase[i]]);
            const bool simd = live[k].prepared.preEvalSimd &&
                              sims[k].usedSimd;
            out.usedSimd =
                simd &&
                (!live[k].cached || phase_simd[cell_phase[i]]);
            out.wallSeconds =
                live[k].prepareSeconds +
                (total_records > 0.0
                     ? pass_wall * member_records[k] / total_records
                     : pass_wall /
                           static_cast<double>(live.size()));
            writeCheckpoint(i);
            emitCellEnd(i);
            notifyCell(i);
            member_cells.push_back(i);
            member_branches.push_back(sims[k].stats.branches);
            member_misps.push_back(sims[k].stats.mispredictions);
            group_branches += sims[k].stats.branches;
        }
        if (journal != nullptr) {
            journal->record(
                obs::EventKind::FusedGroup,
                TaskPool::currentWorkerIndex(), groupLabel(chunk),
                {obs::Field::str("phase", "cells"),
                 obs::Field::u64("members", live.size()),
                 obs::Field::str("cells",
                                 joinIndexList(member_cells)),
                 obs::Field::f64("seconds", pass_wall),
                 obs::Field::u64("branches", group_branches),
                 obs::Field::str("branches_per_cell",
                                 joinIndexList(member_branches)),
                 obs::Field::str("mispredictions_per_cell",
                                 joinIndexList(member_misps))});
        }
        fused_group_count.fetch_add(1, std::memory_order_relaxed);
    };

    // Phase B: the cells. Each worker owns its predictor and profile
    // state; buffers and cached phases are shared read-only, so the
    // hot path takes no locks.
    if (journal != nullptr)
        journal->record(obs::EventKind::PhaseBegin,
                        TaskPool::currentWorkerIndex(), "cells");
    if (options.fused) {
        // Invalid and restored cells need no simulation; handle them
        // on the coordinator (via runCell's early paths) so fused
        // chunks hold only real work.
        std::vector<std::size_t> pending;
        for (std::size_t i = 0; i < cells.size(); ++i) {
            if (!in_shard[i] || invalid[i].has_value() ||
                restored[i].has_value())
                runCell(i);
            else
                pending.push_back(i);
        }
        const std::vector<FusedGroupPlan> cell_chunks = chunkGroups(
            groupForFusion(pending,
                           [&](std::size_t i) {
                               return std::pair(
                                   cells[i].programIndex,
                                   cells[i].config.evalInput);
                           }),
            taskPool.threadCount());
        taskPool.parallelFor(cell_chunks.size(), [&](std::size_t c) {
            runFusedCellChunk(cell_chunks[c]);
        });
    } else {
        taskPool.parallelFor(cells.size(), runCell);
    }
    result.fusedGroups =
        fused_group_count.load(std::memory_order_relaxed);
    if (journal != nullptr)
        journal->record(obs::EventKind::PhaseEnd,
                        TaskPool::currentWorkerIndex(), "cells",
                        {obs::Field::f64("seconds",
                                         secondsSince(run_start))});
    result.runSeconds = secondsSince(run_start);
    result.wallSeconds = secondsSince(start);
    result.materializeSeconds = materializeSeconds;

    // A phase skipped because its every consumer was restored never
    // ran; recover its branch count from any restored consumer so
    // the actual-branches accounting matches an uninterrupted run.
    for (std::size_t i = 0; i < result.cells.size(); ++i) {
        if (restored[i].has_value() && cell_phase[i] != noPhase &&
            phase_branches[cell_phase[i]] == 0)
            phase_branches[cell_phase[i]] = restored[i]->phaseBranches;
    }

    for (std::size_t i = 0; i < result.cells.size(); ++i) {
        const CellResult &cell = result.cells[i];
        if (cell.shardSkipped) {
            ++result.shardSkippedCells;
            continue;
        }
        if (!cell.ok()) {
            ++result.failedCells;
            continue;
        }
        if (cell.restored)
            ++result.restoredCells;
        result.totalBranches += cell.result.simulatedBranches;
        // A cached phase's branches appear in every consumer's
        // simulatedBranches; count them once (below) for the actual
        // work done.
        result.actualBranches += cell.result.simulatedBranches;
        if (cell.profileCached)
            result.actualBranches -= phase_branches[cell_phase[i]];
        if (cell.usedKernel)
            ++result.kernelCells;
        if (cell.usedSimd)
            ++result.simdCells;
    }
    for (const Count branches : phase_branches)
        result.actualBranches += branches;
    result.shardCells = cells.size() - result.shardSkippedCells;
    for (const auto &per_program : buffers) {
        for (const auto &held : per_program) {
            if (held != nullptr)
                result.replayBytes += held->memoryBytes();
        }
    }
    if (cache != nullptr) {
        const ArtifactCacheStats stats = cache->stats();
        result.cacheReplayHits = stats.replayHits;
        result.cacheReplayMisses = stats.replayMisses;
        result.cacheProfileHits = stats.profileHits;
        result.cacheProfileMisses = stats.profileMisses;
        result.cacheCorrupt = stats.corrupt;
        result.mappedBytes = stats.mappedBytes;
    }

    if (journal != nullptr) {
        journal->record(
            obs::EventKind::RunEnd, TaskPool::currentWorkerIndex(),
            journal->runLabel(),
            {obs::Field::f64("seconds", result.wallSeconds),
             obs::Field::f64("run_seconds", result.runSeconds),
             obs::Field::u64("cells",
                             result.cells.size() -
                                 result.shardSkippedCells),
             obs::Field::u64("total_branches", result.totalBranches),
             obs::Field::u64("actual_branches",
                             result.actualBranches),
             obs::Field::u64("profile_cache_hits",
                             result.profileCacheHits),
             obs::Field::u64("profile_cache_misses",
                             result.profileCacheMisses),
             obs::Field::u64("kernel_cells", result.kernelCells),
             obs::Field::u64("simd_cells", result.simdCells),
             obs::Field::u64("failed_cells", result.failedCells),
             obs::Field::u64("restored_cells",
                             result.restoredCells),
             obs::Field::boolean("fused", result.fused),
             obs::Field::u64("fused_groups", result.fusedGroups),
             obs::Field::u64("shard_index", result.shardIndex),
             obs::Field::u64("shard_count", result.shardCount),
             obs::Field::u64("shard_cells", result.shardCells),
             obs::Field::u64("shard_skipped",
                             result.shardSkippedCells),
             obs::Field::u64("cache_replay_hits",
                             result.cacheReplayHits),
             obs::Field::u64("cache_replay_misses",
                             result.cacheReplayMisses),
             obs::Field::u64("cache_profile_hits",
                             result.cacheProfileHits),
             obs::Field::u64("cache_profile_misses",
                             result.cacheProfileMisses),
             obs::Field::u64("cache_corrupt", result.cacheCorrupt),
             obs::Field::u64("mmap_bytes", result.mappedBytes)});
    }
    return result;
}

void
writeRunnerJson(const std::string &path, const std::string &bench,
                const ExperimentRunner &runner,
                const MatrixResult &result, double baseline_seconds)
{
    AtomicFile writer(path);
    if (!writer.ok())
        bpsim_fatal("cannot write '", path, "'");
    std::FILE *file = writer.stream();

    std::fprintf(file, "{\n");
    std::fprintf(file, "  \"bench\": \"%s\",\n", bench.c_str());
    std::fprintf(file, "  \"threads\": %u,\n", result.threads);
    std::fprintf(file, "  \"cells\": [\n");
    for (std::size_t i = 0; i < result.cells.size(); ++i) {
        const CellResult &cell = result.cells[i];
        const MatrixCell &meta = runner.cell(i);
        std::fprintf(
            file,
            "    {\"label\": \"%s\", \"program\": \"%s\", "
            "\"misp_ki\": %.6f, \"hints\": %zu, "
            "\"branches\": %llu, \"wall_seconds\": %.6f, "
            "\"branches_per_second\": %.1f, "
            "\"kernel\": %s, \"simd\": %s, \"profile_cached\": %s",
            meta.label.c_str(),
            runner.program(meta.programIndex).name().c_str(),
            cell.result.stats.mispKi(), cell.result.hintCount,
            static_cast<unsigned long long>(
                cell.result.simulatedBranches),
            cell.wallSeconds, cell.branchesPerSecond(),
            cell.usedKernel ? "true" : "false",
            cell.usedSimd ? "true" : "false",
            cell.profileCached ? "true" : "false");
        if (cell.restored)
            std::fprintf(file, ", \"restored\": true");
        if (cell.shardSkipped)
            std::fprintf(file, ", \"shard_skipped\": true");
        // Scenario cells carry the per-context breakdown and the
        // full NxN interference matrix (victim-major order).
        if (meta.config.scenarioContexts > 0 &&
            !cell.result.contextStats.empty()) {
            const std::size_t contexts =
                cell.result.contextStats.size();
            std::fprintf(file,
                         ", \"scenario\": true, \"contexts\": %zu",
                         contexts);
            std::fprintf(file, ", \"context_stats\": [");
            for (std::size_t c = 0; c < contexts; ++c) {
                const ContextStats &ctx =
                    cell.result.contextStats[c];
                std::fprintf(
                    file,
                    "%s{\"context\": %zu, \"branches\": %llu, "
                    "\"instructions\": %llu, "
                    "\"mispredictions\": %llu, \"misp_ki\": %.6f, "
                    "\"static_predicted\": %llu, "
                    "\"collisions\": %llu}",
                    c == 0 ? "" : ", ", c,
                    static_cast<unsigned long long>(ctx.branches),
                    static_cast<unsigned long long>(
                        ctx.instructions),
                    static_cast<unsigned long long>(
                        ctx.mispredictions),
                    ctx.mispKi(),
                    static_cast<unsigned long long>(
                        ctx.staticPredicted),
                    static_cast<unsigned long long>(
                        ctx.collisions));
            }
            std::fprintf(file, "]");
            if (cell.result.aliasMatrix.size() ==
                contexts * contexts) {
                std::fprintf(file, ", \"interference\": [");
                for (std::size_t v = 0; v < contexts; ++v) {
                    for (std::size_t a = 0; a < contexts; ++a) {
                        const ContextAliasCell &pair =
                            cell.result
                                .aliasMatrix[v * contexts + a];
                        std::fprintf(
                            file,
                            "%s{\"victim\": %zu, "
                            "\"aggressor\": %zu, "
                            "\"collisions\": %llu, "
                            "\"constructive\": %llu, "
                            "\"destructive\": %llu}",
                            v == 0 && a == 0 ? "" : ", ", v, a,
                            static_cast<unsigned long long>(
                                pair.collisions),
                            static_cast<unsigned long long>(
                                pair.constructive),
                            static_cast<unsigned long long>(
                                pair.destructive));
                    }
                }
                std::fprintf(file, "]");
            }
        }
        if (!cell.ok()) {
            std::fprintf(
                file,
                ", \"error\": {\"code\": \"%s\", \"message\": %s, "
                "\"attempts\": %u}",
                errorCodeName(cell.error->code()),
                jsonQuote(cell.error->message()).c_str(),
                cell.attempts);
        }
        std::fprintf(file, "}%s\n",
                     i + 1 < result.cells.size() ? "," : "");
    }
    std::fprintf(file, "  ],\n");
    std::fprintf(file, "  \"materialize_seconds\": %.6f,\n",
                 result.materializeSeconds);
    std::fprintf(file, "  \"profile_seconds\": %.6f,\n",
                 result.profileSeconds);
    std::fprintf(file, "  \"profile_cache_hits\": %llu,\n",
                 static_cast<unsigned long long>(
                     result.profileCacheHits));
    std::fprintf(file, "  \"profile_cache_misses\": %llu,\n",
                 static_cast<unsigned long long>(
                     result.profileCacheMisses));
    std::fprintf(file, "  \"kernel_cells\": %llu,\n",
                 static_cast<unsigned long long>(result.kernelCells));
    std::fprintf(file, "  \"simd_cells\": %llu,\n",
                 static_cast<unsigned long long>(result.simdCells));
    std::fprintf(file, "  \"dispatch\": \"%s\",\n",
                 result.dispatch.c_str());
    std::fprintf(file, "  \"simd_width\": %u,\n", result.simdLanes);
    std::fprintf(file, "  \"fused\": %s,\n",
                 result.fused ? "true" : "false");
    std::fprintf(file, "  \"fused_groups\": %llu,\n",
                 static_cast<unsigned long long>(result.fusedGroups));
    std::fprintf(file, "  \"failed_cells\": %llu,\n",
                 static_cast<unsigned long long>(result.failedCells));
    std::fprintf(file, "  \"restored_cells\": %llu,\n",
                 static_cast<unsigned long long>(
                     result.restoredCells));
    std::fprintf(file, "  \"shard_index\": %u,\n", result.shardIndex);
    std::fprintf(file, "  \"shard_count\": %u,\n", result.shardCount);
    std::fprintf(file, "  \"shard_cells\": %llu,\n",
                 static_cast<unsigned long long>(result.shardCells));
    std::fprintf(file, "  \"shard_skipped_cells\": %llu,\n",
                 static_cast<unsigned long long>(
                     result.shardSkippedCells));
    std::fprintf(file, "  \"cache_replay_hits\": %llu,\n",
                 static_cast<unsigned long long>(
                     result.cacheReplayHits));
    std::fprintf(file, "  \"cache_replay_misses\": %llu,\n",
                 static_cast<unsigned long long>(
                     result.cacheReplayMisses));
    std::fprintf(file, "  \"cache_profile_hits\": %llu,\n",
                 static_cast<unsigned long long>(
                     result.cacheProfileHits));
    std::fprintf(file, "  \"cache_profile_misses\": %llu,\n",
                 static_cast<unsigned long long>(
                     result.cacheProfileMisses));
    std::fprintf(file, "  \"cache_corrupt\": %llu,\n",
                 static_cast<unsigned long long>(
                     result.cacheCorrupt));
    std::fprintf(file, "  \"mmap_bytes\": %zu,\n",
                 result.mappedBytes);
    std::fprintf(file, "  \"run_seconds\": %.6f,\n",
                 result.runSeconds);
    std::fprintf(file, "  \"wall_seconds\": %.6f,\n",
                 result.wallSeconds);
    std::fprintf(file, "  \"total_branches\": %llu,\n",
                 static_cast<unsigned long long>(result.totalBranches));
    std::fprintf(file, "  \"actual_branches\": %llu,\n",
                 static_cast<unsigned long long>(
                     result.actualBranches));
    std::fprintf(file, "  \"kernel_branches_per_second\": %.1f,\n",
                 result.kernelBranchesPerSecond());
    std::fprintf(
        file, "  \"branches_per_second\": %.1f,\n",
        result.wallSeconds > 0.0
            ? static_cast<double>(result.totalBranches) /
                  result.wallSeconds
            : 0.0);
    std::fprintf(file, "  \"replay_buffer_bytes\": %zu,\n",
                 result.replayBytes);
    std::fprintf(file, "  \"serial_estimate_seconds\": %.6f,\n",
                 result.serialEstimateSeconds());
    if (baseline_seconds > 0.0) {
        std::fprintf(file, "  \"baseline_seconds\": %.6f,\n",
                     baseline_seconds);
        std::fprintf(file, "  \"speedup_vs_baseline\": %.3f,\n",
                     result.wallSeconds > 0.0
                         ? baseline_seconds / result.wallSeconds
                         : 0.0);
    }
    std::fprintf(file, "  \"speedup_vs_serial_estimate\": %.3f\n",
                 result.speedupVsSerialEstimate());
    std::fprintf(file, "}\n");
    const Result<void> committed = writer.commit();
    if (!committed.ok())
        bpsim_fatal(committed.error().describe());
}

} // namespace bpsim
