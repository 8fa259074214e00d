/**
 * @file
 * μtrace — request-scoped distributed tracing for the serving stack.
 * μmeter answers "how is the daemon doing in aggregate"; μtrace
 * answers "where did *this* request's time go": every request owns a
 * trace (a 64-bit id plus a tree of spans with parent links,
 * wall-clock starts, and durations), stages of the request path open
 * child spans, and finished traces land in a bounded in-memory ring
 * the TRACE protocol kind serves back out.
 *
 * Retention policy (the interesting traces survive, the bulk does
 * not): a seeded head-rate sampling decision is taken per trace —
 * deterministic under a fixed seed, so tests can assert the exact
 * pattern — and is then overridden by always-retain rules: traces a
 * client stamped (`trace=<id>` on the RUN line), traces resolving
 * ERROR/SHED/DEADLINE, and traces slower than the configured slow
 * threshold are kept regardless of the sampling draw. Every finished
 * trace takes exactly one retained-or-dropped decision (the storm
 * audits this), and the ring evicts oldest-first when full.
 *
 * Observational-guard contract (the μprof/μmeter discipline): with
 * tracing off and no stamped id, Tracer::begin returns null and every
 * span helper no-ops on the null handle — replies, simulated cycles,
 * and stats are byte-identical either way, guarded by test.
 */
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <deque>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

namespace muir::trace
{

/** Trace outcome vocabulary (mirrors the µserve reply kinds). */
inline constexpr const char *kOutcomeOk = "OK";
inline constexpr const char *kOutcomeError = "ERROR";
inline constexpr const char *kOutcomeShed = "SHED";
inline constexpr const char *kOutcomeDeadline = "DEADLINE";

/** Why a finished trace was retained ("" = it was dropped). */
inline constexpr const char *kRetainStamped = "stamped";
inline constexpr const char *kRetainOutcome = "outcome";
inline constexpr const char *kRetainSlow = "slow";
inline constexpr const char *kRetainSampled = "head-sampled";

/** One span: a named interval inside a trace, with a parent link. */
struct Span
{
    /** Unique within the trace; the root stage spans have parent 0. */
    uint64_t id = 0;
    uint64_t parent = 0;
    std::string name;
    /** Microseconds since the trace started. */
    uint64_t startUs = 0;
    uint64_t durUs = 0;
    /** Still open when the trace finished (cancellation paths). */
    bool open = false;
    std::vector<std::pair<std::string, std::string>> attrs;
};

/** One finished (or in-flight) trace: the whole request's story. */
struct TraceData
{
    uint64_t traceId = 0;
    /** Request description, e.g. "run workload=fib passes=queue:4". */
    std::string name;
    /** kOutcome* once finished; "" while the request is in flight. */
    std::string outcome;
    /** kRetain* for retained traces; "" means dropped. */
    std::string retain;
    /** The client supplied the id (trace=<id> on the RUN line). */
    bool stamped = false;
    /** The seeded head-sampling draw said keep. */
    bool headSampled = false;
    /** Wall-clock anchor (UNIX epoch µs) for log/Perfetto merging. */
    uint64_t startUnixUs = 0;
    /** Total request duration in µs. */
    uint64_t durUs = 0;
    std::vector<Span> spans;

    /** Duration of the first top-level span named @p name (0 = none). */
    uint64_t stageUs(const std::string &name) const;
};

/** Tracer tuning knobs. */
struct TracerOptions
{
    /**
     * Head-sampling probability in [0, 1]. 0 disables tracing for
     * unstamped requests entirely (no spans recorded, no clock reads
     * beyond what the server already takes).
     */
    double sampleRate = 0.0;
    /** Seed for the sampling draws and generated trace ids. */
    uint64_t seed = 1;
    /** Always retain traces slower than this (µs; 0 = rule off). */
    uint64_t slowUs = 0;
    /** Retained-trace ring capacity (oldest evicted first). */
    size_t ringCapacity = 256;
};

class Tracer;

/**
 * One request's trace under construction. Thread-safe: admission
 * records spans from the transport thread, execution from a worker.
 * Obtained from Tracer::begin() (possibly null — all methods must be
 * reached through the null-safe ScopedSpan or a null check).
 */
class ActiveTrace
{
  public:
    uint64_t traceId() const { return data_.traceId; }
    bool stamped() const { return data_.stamped; }

    /** Microseconds since the trace started (its own clock). */
    uint64_t nowUs() const;

    /** Rename the trace once the request is parsed. */
    void rename(const std::string &name);

    /** Open a live span; @return its id (parent 0 = top level). */
    uint64_t begin(const std::string &name, uint64_t parent = 0);

    /** Close a live span (duration = now − start). Unknown id: no-op. */
    void end(uint64_t span);

    /**
     * Record a completed span with explicit boundaries (µs since the
     * trace started). This is how the server makes the top-level
     * stage chain partition the request's wall time exactly: each
     * stage starts where the previous one ended.
     */
    uint64_t add(const std::string &name, uint64_t parent,
                 uint64_t start_us, uint64_t end_us);

    /**
     * Reset a span's end boundary. Lets a stage span be created at
     * its exact start stamp (so children can parent onto it while the
     * stage runs) and closed at its exact end stamp later.
     */
    void close(uint64_t span, uint64_t end_us);

    /** Attach a key=value attribute to a span. Unknown id: no-op. */
    void attr(uint64_t span, const std::string &key,
              const std::string &value);

  private:
    friend class Tracer;

    ActiveTrace(uint64_t trace_id, std::string name, bool stamped,
                std::chrono::steady_clock::time_point epoch);

    mutable std::mutex mutex_;
    TraceData data_;
    const std::chrono::steady_clock::time_point epoch_;
    uint64_t nextSpanId_ = 1;
    /** Guards the exactly-once finish decision (error unwind paths). */
    std::atomic<bool> finished_{false};
};

/**
 * The trace collector: sampling policy, retention rules, and the
 * bounded ring of retained traces. One per daemon; thread-safe.
 */
class Tracer
{
  public:
    explicit Tracer(TracerOptions options = {});

    /** Tracing is on for unstamped requests. */
    bool enabled() const { return options_.sampleRate > 0.0; }

    const TracerOptions &options() const { return options_; }

    /**
     * Start a trace. @p stamped_id is the client-provided id (0 =
     * unstamped). Returns null when tracing is off and the request is
     * unstamped — the no-overhead path. Stamped traces are always
     * recorded (and always retained), whatever the sample rate.
     * @p epoch anchors span offsets (defaults to "now"); the server
     * passes its dispatch-entry timestamp so pre-begin admission work
     * still lands inside the trace.
     */
    std::shared_ptr<ActiveTrace>
    begin(const std::string &name, uint64_t stamped_id = 0,
          std::chrono::steady_clock::time_point epoch =
              std::chrono::steady_clock::now());

    /**
     * Finish a trace: stamp the outcome, take the exactly-once
     * retained-or-dropped decision, and push retained traces into the
     * ring. @p dur_us_override fixes the total duration (0 = use the
     * trace's clock); the server passes its final stage boundary so
     * the stage spans partition the total exactly. Null @p t no-ops.
     */
    void finish(const std::shared_ptr<ActiveTrace> &t,
                const std::string &outcome,
                uint64_t dur_us_override = 0);

    /**
     * Retained traces, oldest first. @p id filters to one trace id
     * (0 = all); @p limit keeps only the newest N (0 = all).
     */
    std::vector<std::shared_ptr<const TraceData>>
    recent(size_t limit = 0, uint64_t id = 0) const;

    /** @name Decision counters (started == retained + dropped once idle) */
    /** @{ */
    uint64_t started() const;
    uint64_t retained() const;
    uint64_t dropped() const;
    uint64_t evicted() const;
    /** Dropped traces that resolved with @p outcome (audit hook). */
    uint64_t droppedFor(const std::string &outcome) const;
    /** @} */

  private:
    const TracerOptions options_;

    mutable std::mutex mutex_;
    std::deque<std::shared_ptr<const TraceData>> ring_;
    uint64_t decisionCounter_ = 0; ///< seeds the per-trace draw
    uint64_t started_ = 0;
    uint64_t retained_ = 0;
    uint64_t dropped_ = 0;
    uint64_t evicted_ = 0;
    std::map<std::string, uint64_t> droppedByOutcome_;
};

/**
 * Null-safe RAII span over a possibly-null ActiveTrace handle: the
 * tracing-off path costs one pointer test per scope.
 */
class ScopedSpan
{
  public:
    ScopedSpan(ActiveTrace *t, const char *name, uint64_t parent = 0)
        : trace_(t)
    {
        if (trace_)
            id_ = trace_->begin(name, parent);
    }
    ScopedSpan(const std::shared_ptr<ActiveTrace> &t, const char *name,
               uint64_t parent = 0)
        : ScopedSpan(t.get(), name, parent)
    {
    }
    ~ScopedSpan()
    {
        if (trace_)
            trace_->end(id_);
    }
    ScopedSpan(const ScopedSpan &) = delete;
    ScopedSpan &operator=(const ScopedSpan &) = delete;

    uint64_t id() const { return id_; }

    void
    attr(const std::string &key, const std::string &value)
    {
        if (trace_)
            trace_->attr(id_, key, value);
    }

  private:
    ActiveTrace *trace_;
    uint64_t id_ = 0;
};

/**
 * @name Exports
 * @{
 */

/**
 * The `muir.trace.v1` JSON document: tracer decision counters plus
 * the given traces, oldest first, with a deterministic key schema
 * (values vary, keys never do). This is the TRACE reply payload.
 */
std::string
tracesJson(const std::vector<std::shared_ptr<const TraceData>> &traces,
           const Tracer *tracer = nullptr);

/**
 * Parse a `muir.trace.v1` document back (the client side of the TRACE
 * round trip). @return false with a one-line diagnostic on anything
 * that is not a well-formed v1 document.
 */
bool tracesFromJson(const std::string &json,
                    std::vector<TraceData> &out, std::string *error);

/**
 * ASCII waterfall of one trace: the span tree indented by depth, each
 * span with start/duration columns and a bar positioned on the
 * request's [0, total] axis (muir-client --trace).
 */
std::string renderWaterfall(const TraceData &trace,
                            unsigned bar_width = 32);

/**
 * Chrome trace-event (Perfetto) export of host-side spans: one "X"
 * duration event per span on a per-trace track under a "muir-serve
 * host" process. When @p sim_trace_json holds a `--emit-trace-json`
 * document (the μprof/μscope machinery), its traceEvents are spliced
 * into the same document, so one Perfetto view shows the request
 * lifecycle above the simulated-cycle slice and counter tracks.
 * @return "" with a diagnostic in @p error if the sim document does
 * not parse.
 */
std::string
perfettoJson(const std::vector<std::shared_ptr<const TraceData>> &traces,
             const std::string &sim_trace_json = "",
             std::string *error = nullptr);

/** @} */

} // namespace muir::trace
