/**
 * @file
 * The bpsim service daemon core: a long-lived experiment server over
 * a Unix domain socket.
 *
 * Clients submit run/sweep requests as JSONL (see protocol.hh); the
 * server executes them on the matrix runner and persists every
 * request's finished cells in a per-fingerprint checkpoint under its
 * state directory. That checkpoint doubles as an idempotent response
 * cache: re-submitting a completed request restores every cell
 * (bit-identical deterministic fields) without re-simulating, and a
 * request interrupted by a deadline, a cancel, a crash or a restart
 * resumes from exactly the cells it had finished.
 *
 * Robustness model:
 *
 *  - Bounded admission: at most queueLimit requests wait for the
 *    executor; excess submissions are shed immediately with
 *    resource_exhausted and a retry-after hint instead of growing an
 *    unbounded backlog.
 *  - Deadlines: a request's deadline is armed at admission. Expiry
 *    cancels cooperatively — cells not yet started are skipped, the
 *    cell in flight finishes and is checkpointed — and still-queued
 *    requests that expire are answered without running at all.
 *  - Isolation: one request's failure (poisoned config, injected
 *    fault) becomes its own structured error response; the daemon
 *    and concurrent requests are unaffected. Requests execute one at
 *    a time on the executor thread, so a per-request fault-injection
 *    arming can never leak into a neighbour.
 *  - Quarantine: a fingerprint whose requests keep failing
 *    (quarantineThreshold consecutive cell_failed/internal outcomes)
 *    is rejected at admission with config_invalid until a success
 *    clears it; the list persists across restarts.
 *  - Graceful drain: SIGTERM (via drainFd()) stops admission,
 *    finishes and checkpoints the request in flight, answers queued
 *    requests with resource_exhausted, flushes the journal, closes
 *    subscribers and removes the socket.
 *
 * Every request's lifecycle is journalled (request_begin /
 * request_cell / request_end / request_rejected / service_state) and
 * streamed live to subscribe-op connections.
 */

#ifndef BPSIM_SERVICE_SERVER_HH
#define BPSIM_SERVICE_SERVER_HH

#include <atomic>
#include <cstddef>
#include <chrono>
#include <condition_variable>
#include <deque>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "obs/run_journal.hh"
#include "service/protocol.hh"
#include "support/error.hh"

namespace bpsim::service
{

/**
 * Longest request line the daemon buffers, newline excluded. A
 * client that sends more without a newline gets a config_invalid
 * reply and the connection closes, so no connection can make the
 * daemon buffer without bound.
 */
inline constexpr std::size_t maxRequestLineBytes = std::size_t{1} << 20;

/** Daemon construction options. */
struct ServiceOptions
{
    /** Unix-domain socket path to listen on. */
    std::string socketPath;

    /** Directory holding request checkpoints and the quarantine
     * list; created if absent. */
    std::string stateDir;

    /** Runner worker threads per request (0 = resolve from the
     * environment/hardware, like the CLI). */
    unsigned threads = 1;

    /** Admitted-but-not-yet-executing requests allowed before
     * load-shedding kicks in. */
    std::size_t queueLimit = 8;

    /** Consecutive failing requests that quarantine a fingerprint. */
    unsigned quarantineThreshold = 3;

    /** Honor per-request fault-injection specs (test/CI servers
     * only); off, a request carrying one is rejected. */
    bool allowFaultInjection = false;

    /** Write the service journal (JSONL + metrics) here on drain
     * (empty = keep it in memory only). */
    std::string journalPath;

    /** Suggested client back-off when a request is shed (ms). */
    Count retryAfterMs = 250;

    /** Test-only: run on the executor thread as each request starts
     * executing (before its deadline check). Tests block in it to
     * hold the executor busy, making queue-full and queued-deadline
     * scenarios deterministic instead of timing-dependent. */
    std::function<void()> onExecuteBegin;
};

/** Daemon counters (status responses and tests). */
struct ServiceStats
{
    Count completed = 0;
    Count failed = 0;
    Count rejected = 0;
    Count cancelled = 0;
    Count expired = 0;
    Count quarantinedNow = 0;
};

/**
 * The daemon. start() binds the socket and spawns the accept and
 * executor threads; requestDrain() (or one byte written to
 * drainFd(), the only async-signal-safe trigger) begins a graceful
 * drain; waitUntilStopped() joins everything.
 */
class ServiceServer
{
  public:
    explicit ServiceServer(ServiceOptions options);
    ~ServiceServer();

    ServiceServer(const ServiceServer &) = delete;
    ServiceServer &operator=(const ServiceServer &) = delete;

    /** Bind, listen and spawn the service threads. io_failure when
     * the socket or state directory cannot be set up. */
    Result<void> start();

    /**
     * Write end of the drain pipe: writing one byte starts a
     * graceful drain. This is the signal-handler hook — write(2) is
     * async-signal-safe, none of the rest of the server is.
     */
    int drainFd() const { return drainPipe[1]; }

    /** Begin a graceful drain from normal (non-signal) code. */
    void requestDrain();

    /** Has a drain been requested? */
    bool draining() const
    {
        return drainRequested.load(std::memory_order_acquire);
    }

    /** Block until the drain finished and every thread joined. */
    void waitUntilStopped();

    /** Counter snapshot. */
    ServiceStats stats() const;

    /** The journal (tests inspect it after a drain). */
    const obs::RunJournal &journal() const { return serviceJournal; }

  private:
    /** One admitted run/sweep request waiting for / under execution. */
    struct Job
    {
        ServiceRequest request;
        CompiledSweep compiled;
        std::chrono::steady_clock::time_point deadline{};
        bool hasDeadline = false;

        std::atomic<bool> cancelRequested{false};

        std::mutex lock;
        std::condition_variable cv;
        bool done = false;
        ServiceResponse response;
    };

    void acceptLoop();
    void executorLoop();
    void handleConnection(int fd);

    /** Serve one request line; returns false when the connection
     * loop should stop. @p fd_handed_off is set when the fd now
     * belongs to the subscriber broadcast list (do not close it). */
    bool handleLine(int fd, const std::string &line,
                    bool &fd_handed_off);

    /** Admission: validate, fingerprint, shed, quarantine-check and
     * enqueue; blocks until the job completes and returns its
     * response. */
    ServiceResponse admitAndWait(ServiceRequest request);

    /** Execute one job on the executor thread. */
    void executeJob(const std::shared_ptr<Job> &job);

    ServiceResponse statusResponse(const std::string &id);
    ServiceResponse cancelResponse(const ServiceRequest &request);

    /** Journal an event and broadcast its line to subscribers. */
    void publish(obs::EventKind kind, const std::string &label,
                 std::vector<obs::Field> fields);

    void loadQuarantine();
    void persistQuarantine();

    /** Checkpoint path of a request fingerprint. */
    std::string checkpointPathFor(const std::string &fingerprint) const;

    void closeListenerAndUnlink();

    ServiceOptions options;

    int listenFd = -1;
    int drainPipe[2] = {-1, -1};
    std::atomic<bool> drainRequested{false};
    std::atomic<bool> started{false};

    std::thread acceptThread;
    std::thread executorThread;

    mutable std::mutex stateLock;
    std::condition_variable queueCv;
    std::deque<std::shared_ptr<Job>> queue;
    std::shared_ptr<Job> active;
    std::map<std::string, std::shared_ptr<Job>> jobsById;
    std::map<std::string, unsigned> quarantineStrikes;
    std::vector<std::thread> connectionThreads;
    std::vector<int> connectionFds;
    std::vector<int> subscriberFds;
    ServiceStats counters;

    obs::RunJournal serviceJournal;
};

} // namespace bpsim::service

#endif // BPSIM_SERVICE_SERVER_HH
