/**
 * @file
 * The µserve daemon core: transport-agnostic request processing with
 * admission control, a bounded queue, per-client quotas, deadlines,
 * and graceful drain. Transports (unix socket, --stdio pipe, the
 * in-process storm/test harnesses) only move bytes: they open a
 * Session with a reply sink, feed() received bytes in, and write the
 * bytes the sink hands back. Everything protocol-shaped lives here,
 * which is what lets the tests exercise every robustness path without
 * a network.
 *
 * Robustness contract (guarded by tests/test_serve.cc and the storm):
 *
 *  - Every well-formed RUN request resolves to exactly one of
 *    OK / ERROR / SHED / DEADLINE. Never silence, never a hang.
 *  - A malformed or hostile byte stream poisons only its own
 *    connection: the offender gets one structured ERROR (bad-frame)
 *    and is cut off; other sessions and the daemon keep running.
 *  - OK payloads are byte-identical to a direct in-process run of the
 *    same design (canonicalResult over runOn) at any job count.
 *  - beginDrain()/drain() stop admission (new RUNs shed with reason
 *    "drain"), resolve everything already admitted, and leave the
 *    queue empty — the SIGTERM path of the daemon.
 */
#pragma once

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "serve/cache.hh"
#include "serve/frame.hh"
#include "serve/protocol.hh"
#include "serve/quota.hh"
#include "support/metrics.hh"
#include "support/slog.hh"
#include "support/trace.hh"
#include "uir/serialize.hh"

namespace muir::serve
{

/** Every way a RUN request ends (the table in server.cc). */
enum class Resolution : uint8_t;

/** Daemon tuning knobs (all have safe defaults). */
struct ServerOptions
{
    /** Worker threads (0 = resolveJobs: MUIR_JOBS, else hardware). */
    unsigned jobs = 0;
    /** Admitted-but-not-started requests before load shedding. */
    size_t queueCapacity = 64;
    /** Per-client token-bucket refill rate (requests/sec). */
    double quotaRate = 50.0;
    /** Per-client burst capacity (tokens). */
    double quotaBurst = 20.0;
    /** Cycle budget for runs that do not set max_cycles. */
    uint64_t defaultMaxCycles = 1000000000ull;
    /** retry_after_ms hint on queue-full sheds. */
    uint64_t retryAfterMs = 50;
    /** RUN payload admission cap (bytes). */
    size_t maxRequestBytes = uir::kMaxSerializedBytes;
    /** Honor work_delay_ms (tests/chaos only; never in production). */
    bool allowWorkDelay = false;
    /** Design-cache capacity (compiled designs). */
    size_t cacheCapacity = 64;

    /**
     * @name μtrace (request-scoped tracing)
     * Rate 0 disables tracing for unstamped requests entirely — the
     * test-guarded invariant is that OK replies are then
     * byte-identical to direct runs. Client-stamped requests
     * (`trace=<id>`) are always traced, whatever the rate.
     * @{
     */
    /** Head-sampling probability in [0, 1]. */
    double traceSampleRate = 0.0;
    /** Seed for sampling draws and generated trace ids. */
    uint64_t traceSeed = 1;
    /** Always retain traces slower than this (µs; 0 = rule off). */
    uint64_t traceSlowUs = 0;
    /** Retained-trace ring capacity. */
    size_t traceRingCapacity = 256;
    /** @} */

    /** Structured NDJSON event log (null = logging off). Not owned. */
    slog::Logger *logger = nullptr;
};

/**
 * One client connection. Opaque to transports beyond construction;
 * the Server mutates it only through feed()/reply paths.
 */
class Session
{
  public:
    using Sink = std::function<void(const std::string &bytes)>;

    Session(std::string client_id, Sink sink)
        : clientId_(std::move(client_id)), sink_(std::move(sink))
    {
    }

    const std::string &clientId() const { return clientId_; }
    /** Unrecoverable stream error seen; transport should close. */
    bool dead() const { return dead_.load(std::memory_order_acquire); }

  private:
    friend class Server;

    std::string clientId_;
    Sink sink_;
    FrameDecoder decoder_;
    std::mutex feedMutex_;  ///< serializes feed() per session
    std::mutex writeMutex_; ///< serializes reply frames per session
    std::atomic<bool> dead_{false};
};

/** The daemon core. One instance per process; transports share it. */
class Server
{
  public:
    explicit Server(ServerOptions options = {});
    ~Server();
    Server(const Server &) = delete;
    Server &operator=(const Server &) = delete;

    /** Open a session; @p sink receives encoded reply frames. */
    std::shared_ptr<Session> openSession(std::string client_id,
                                         Session::Sink sink);

    /**
     * Feed received bytes. Complete frames are dispatched: cheap
     * replies (errors, sheds, pong, stats) go out synchronously on the
     * caller's thread; admitted RUNs resolve later from a worker.
     * @return false when the connection must close (poisoned stream).
     */
    bool feed(const std::shared_ptr<Session> &session, const char *data,
              size_t n);
    bool feed(const std::shared_ptr<Session> &session,
              const std::string &bytes)
    {
        return feed(session, bytes.data(), bytes.size());
    }

    /** Stop admitting RUNs (they shed with reason "drain"). */
    void beginDrain();
    bool draining() const;

    /**
     * Resolve everything already admitted: waits up to @p budget_ms
     * for queue + in-flight to empty, then cancels still-queued jobs
     * as DEADLINE (reason "drain") and waits for in-flight runs (each
     * bounded by its cycle budget). Every admitted request has been
     * replied to when this returns. @return true when all work
     * finished naturally within the budget.
     */
    bool drain(uint64_t budget_ms);

    /** Stop worker threads (drain first for a graceful exit). */
    void stop();

    /** A SHUTDOWN frame arrived; the transport should exit its loop. */
    bool shutdownRequested() const;

    size_t queueDepth() const;
    unsigned inFlight() const;

    /** Deterministic-schema stats JSON (the STATS reply payload). */
    std::string statsJson() const;

    /** The μtrace collector (TRACE replies, storm audits). */
    trace::Tracer &tracer() { return tracer_; }
    const trace::Tracer &tracer() const { return tracer_; }

    /** The serve.* metrics registry (counters/latency histogram). */
    metrics::Registry &registry() { return metrics_; }
    const metrics::Registry &registry() const { return metrics_; }

    const ServerOptions &options() const { return options_; }

  private:
    struct Job
    {
        std::shared_ptr<Session> session;
        uint32_t tag = 0;
        RunRequest request;
        /** Wall deadline (0 = none), on the server's monotonic axis. */
        double deadlineSec = 0.0;
        double admitSec = 0.0;
        /** The request's trace (null = untraced). */
        std::shared_ptr<trace::ActiveTrace> trace;
        /** @name Stage boundaries (µs on the trace's clock; 0 = not
         *  reached or untraced)
         *  @{ */
        uint64_t parseUs = 0;
        uint64_t validateUs = 0;
        uint64_t quotaUs = 0;
        uint64_t admitUs = 0;
        uint64_t claimUs = 0;
        uint64_t compileUs = 0;
        /** @} */
    };

    void workerLoop();
    void runJob(Job &&job);
    void dispatchFrame(const std::shared_ptr<Session> &session,
                       const Frame &frame);
    void handleRun(const std::shared_ptr<Session> &session,
                   const Frame &frame);
    void handleTrace(const std::shared_ptr<Session> &session,
                     const Frame &frame);
    /**
     * End @p job the way @p how says: bump its serve.* counters,
     * finish its trace at @p end_us, log its request.* event and send
     * its reply frame. @p text is the ERROR message, the DEADLINE
     * detail or the OK payload; @p number is the ERROR line, the SHED
     * retry_after_ms or the OK cycles; @p code is a design's ERROR
     * code (Resolution::Design only).
     */
    void resolve(const Job &job, Resolution how, uint64_t end_us,
                 const std::string &text = {}, uint64_t number = 0,
                 const std::string &code = {});
    /** Record the admission span and its ladder steps up to @p end_us. */
    static uint64_t admissionSpan(const Job &job, uint64_t end_us);
    /** Forward to the logger when one is configured. */
    void logEvent(slog::Level level, const char *event,
                  uint64_t trace_id, uint64_t span_id,
                  std::vector<std::pair<std::string, std::string>>
                      attrs = {});
    void send(const std::shared_ptr<Session> &session, FrameKind kind,
              uint32_t tag, const std::string &payload);
    void sendError(const std::shared_ptr<Session> &session,
                   uint32_t tag, const ErrorReply &error);
    /** Seconds since construction (monotonic). */
    double nowSec() const;
    double serviceEstimateMs() const;

    const ServerOptions options_;
    const unsigned jobs_;
    const std::chrono::steady_clock::time_point epoch_;

    DesignCache cache_;
    QuotaTable quota_;
    metrics::Registry metrics_;
    trace::Tracer tracer_;
    slog::Logger *const log_; ///< null = structured logging off

    mutable std::mutex mutex_;
    std::condition_variable workCv_;  ///< workers wait for jobs
    std::condition_variable drainCv_; ///< drain() waits for empty
    std::deque<Job> queue_;
    unsigned inFlight_ = 0;
    bool draining_ = false;
    bool cancelPending_ = false; ///< drain budget expired: fail queued
    bool stopping_ = false;
    double serviceEmaMs_ = 0.0;
    std::atomic<bool> shutdownRequested_{false};

    std::vector<std::thread> workers_;
};

} // namespace muir::serve
