#include "serve/server.hh"

#include <algorithm>
#include <cmath>
#include <iterator>

#include "support/parallel.hh"
#include "support/strings.hh"
#include "workloads/driver.hh"

namespace muir::serve
{

/** Indexes kResolutions, in the same order. */
enum class Resolution : uint8_t
{
    Ok,
    TooLarge,
    BadRequest,
    UnknownWorkload,
    Design,
    CheckFailed,
    Internal,
    InternalUnknown,
    ShedQuota,
    ShedQueue,
    ShedDrain,
    DeadlineAdmission,
    DeadlineQueueWait,
    DeadlineCycleBudget,
    DeadlineExpired,
    DeadlineDrain,
};

namespace
{

/** Fixed-schema latency sub-object for statsJson. */
std::string
latencyJson(const metrics::HistogramData *h)
{
    if (!h || h->empty())
        return "{\"count\":0,\"p50_us\":0,\"p95_us\":0,"
               "\"p99_us\":0,\"max_us\":0}";
    return fmt("{\"count\":%llu,\"p50_us\":%llu,\"p95_us\":%llu,"
               "\"p99_us\":%llu,\"max_us\":%llu}",
               (unsigned long long)h->count,
               (unsigned long long)h->percentile(50),
               (unsigned long long)h->percentile(95),
               (unsigned long long)h->percentile(99),
               (unsigned long long)h->maxValue);
}

/** A reply kind's serve.<kind> counter, request.<kind> event and
 *  trace outcome. */
struct ReplyKind
{
    FrameKind frame;
    const char *counter;
    const char *event;
    const char *outcome;
};

constexpr ReplyKind kOk{FrameKind::Ok, "serve.ok", "request.ok",
                        trace::kOutcomeOk};
constexpr ReplyKind kError{FrameKind::Error, "serve.error",
                           "request.error", trace::kOutcomeError};
constexpr ReplyKind kShed{FrameKind::Shed, "serve.shed", "request.shed",
                          trace::kOutcomeShed};
constexpr ReplyKind kDeadline{FrameKind::Deadline, "serve.deadline",
                              "request.deadline",
                              trace::kOutcomeDeadline};

/** What a request.<kind> event carries after the code or reason. */
enum class Event : uint8_t
{
    None,     ///< no event at all
    Bare,     ///< nothing more
    Workload, ///< the workload (an OK event adds its cycles)
    Client,   ///< the client id
    What,     ///< the exception's message
};

/**
 * One way a RUN request ends. A SHED or DEADLINE reason also names
 * the serve.<kind>.<reason> counter; an ERROR's reason is its code.
 */
struct ResolutionRow
{
    const ReplyKind *kind;
    /** Null for OK, and for a design error (the design's code). */
    const char *reason;
    /** Refused before the queue: the admission span carries it. */
    bool admission;
    Event event;
};

using enum Event;

/** Every RUN resolution, in STATS counter order. */
constexpr ResolutionRow kResolutions[] = {
    {&kOk, nullptr, false, Workload},
    {&kError, kErrTooLarge, true, None},
    {&kError, kErrBadRequest, true, None},
    {&kError, kErrUnknownWorkload, true, Workload},
    {&kError, nullptr, false, Workload},
    {&kError, kErrCheckFailed, false, Workload},
    {&kError, kErrInternal, false, What},
    {&kError, kErrInternal, false, Bare},
    {&kShed, "quota", true, Client},
    {&kShed, "queue", true, Workload},
    {&kShed, "drain", true, Workload},
    {&kDeadline, "admission", true, Workload},
    {&kDeadline, "queue-wait", false, Workload},
    {&kDeadline, "cycle-budget", false, Workload},
    {&kDeadline, "expired", false, Workload},
    {&kDeadline, "drain", false, Workload},
};
static_assert(std::size(kResolutions) ==
              size_t(Resolution::DeadlineDrain) + 1);

/** The serve.<kind>.<reason> counter, or "" (OK and ERROR rows). */
std::string
reasonCounter(const ResolutionRow &row)
{
    if (row.kind != &kShed && row.kind != &kDeadline)
        return {};
    return std::string(row.kind->counter) + "." + row.reason;
}

} // namespace

Server::Server(ServerOptions options)
    : options_(options), jobs_(resolveJobs(options.jobs)),
      epoch_(std::chrono::steady_clock::now()),
      cache_(options.cacheCapacity),
      quota_(options.quotaRate, options.quotaBurst),
      tracer_(trace::TracerOptions{options.traceSampleRate,
                                   options.traceSeed,
                                   options.traceSlowUs,
                                   options.traceRingCapacity}),
      log_(options.logger)
{
    workers_.reserve(jobs_);
    for (unsigned i = 0; i < jobs_; ++i)
        workers_.emplace_back([this] { workerLoop(); });
}

Server::~Server() { stop(); }

double
Server::nowSec() const
{
    std::chrono::duration<double> d =
        std::chrono::steady_clock::now() - epoch_;
    return d.count();
}

double
Server::serviceEstimateMs() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    return serviceEmaMs_;
}

void
Server::logEvent(slog::Level level, const char *event,
                 uint64_t trace_id, uint64_t span_id,
                 std::vector<std::pair<std::string, std::string>> attrs)
{
    if (log_)
        log_->event(level, event, trace_id, span_id,
                    std::move(attrs));
}

std::shared_ptr<Session>
Server::openSession(std::string client_id, Session::Sink sink)
{
    return std::make_shared<Session>(std::move(client_id),
                                     std::move(sink));
}

void
Server::send(const std::shared_ptr<Session> &session, FrameKind kind,
             uint32_t tag, const std::string &payload)
{
    std::string bytes = encodeFrame(kind, tag, payload);
    std::lock_guard<std::mutex> lock(session->writeMutex_);
    if (session->sink_)
        session->sink_(bytes);
}

void
Server::sendError(const std::shared_ptr<Session> &session, uint32_t tag,
                  const ErrorReply &error)
{
    metrics_.add("serve.error");
    send(session, FrameKind::Error, tag, renderErrorReply(error));
}

bool
Server::feed(const std::shared_ptr<Session> &session, const char *data,
             size_t n)
{
    std::lock_guard<std::mutex> lock(session->feedMutex_);
    if (session->dead())
        return false;
    session->decoder_.feed(data, n);
    for (;;) {
        Frame frame;
        std::string decode_error;
        DecodeStatus status =
            session->decoder_.next(frame, &decode_error);
        if (status == DecodeStatus::NeedMore)
            return true;
        if (status == DecodeStatus::Ready) {
            dispatchFrame(session, frame);
            continue;
        }
        // BadMagic / TooLarge: the stream cannot be trusted again.
        // One structured ERROR (tag 0 — the original tag is part of
        // the corrupted bytes), then the connection dies. The daemon
        // and every other session carry on.
        metrics_.add("serve.bad_frames");
        session->dead_.store(true, std::memory_order_release);
        logEvent(slog::Level::Error, "session.poisoned", 0, 0,
                 {{"client", session->clientId()},
                  {"error", decode_error}});
        sendError(session, 0,
                  ErrorReply{kErrBadFrame, 0, decode_error});
        return false;
    }
}

void
Server::dispatchFrame(const std::shared_ptr<Session> &session,
                      const Frame &frame)
{
    if (!frameKindKnown(frame.kind)) {
        // The length was still trustworthy, so the stream stays in
        // sync: reply and keep the connection.
        metrics_.add("serve.bad_frames");
        sendError(session, frame.tag,
                  ErrorReply{kErrBadFrame, 0,
                             fmt("unknown frame kind 0x%02x",
                                 frame.kind)});
        return;
    }
    switch (frame.kindEnum()) {
      case FrameKind::Ping:
        send(session, FrameKind::Pong, frame.tag, frame.payload);
        return;
      case FrameKind::Stats:
        send(session, FrameKind::StatsReply, frame.tag, statsJson());
        return;
      case FrameKind::Shutdown:
        beginDrain();
        shutdownRequested_.store(true, std::memory_order_release);
        logEvent(slog::Level::Info, "shutdown.requested", 0, 0,
                 {{"client", session->clientId()}});
        send(session, FrameKind::Bye, frame.tag, "");
        return;
      case FrameKind::Run:
        handleRun(session, frame);
        return;
      case FrameKind::Trace:
        handleTrace(session, frame);
        return;
      default:
        // A client sent a reply kind. Recoverable nonsense.
        sendError(session, frame.tag,
                  ErrorReply{kErrBadRequest, 0,
                             fmt("%s is a reply kind, not a request",
                                 frameKindName(frame.kindEnum()))});
        return;
    }
}

void
Server::handleRun(const std::shared_ptr<Session> &session,
                  const Frame &frame)
{
    metrics_.add("serve.accepted");
    auto entry = std::chrono::steady_clock::now();
    Job job;
    job.session = session;
    job.tag = frame.tag;

    // Admission control, cheapest checks first. Structural rejects
    // (size, syntax, unknown workload) come before quota/queue so a
    // client's junk never burns its own tokens or a queue slot.
    // Size/syntax rejects stay untraced: a stamp inside an
    // unparseable payload cannot be honored.
    if (frame.payload.size() > options_.maxRequestBytes) {
        resolve(job, Resolution::TooLarge, 0,
                fmt("request payload is %zu bytes; the admission cap "
                    "is %zu",
                    frame.payload.size(), options_.maxRequestBytes));
        return;
    }
    std::string parse_error;
    if (!parseRunRequest(frame.payload, job.request, &parse_error)) {
        resolve(job, Resolution::BadRequest, 0, parse_error);
        return;
    }
    const RunRequest &req = job.request;

    // One trace per parsed request, anchored at dispatch entry so the
    // size/parse work above lands inside it. Null when tracing is off
    // and the client did not stamp — the no-overhead path.
    job.trace = tracer_.begin(
        "run " + req.workload +
            (req.passes.empty() ? std::string()
                                : " passes=" + req.passes),
        req.traceId, entry);
    const std::shared_ptr<trace::ActiveTrace> &t = job.trace;
    if (t)
        job.parseUs = t->nowUs();

    const auto &names = workloads::workloadNames();
    if (std::find(names.begin(), names.end(), req.workload) ==
        names.end()) {
        resolve(job, Resolution::UnknownWorkload, 0,
                fmt("unknown workload '%s'", req.workload.c_str()));
        return;
    }
    if (t)
        job.validateUs = t->nowUs();

    double now = nowSec();
    {
        std::lock_guard<std::mutex> lock(mutex_);
        if (draining_ || stopping_) {
            resolve(job, Resolution::ShedDrain, 0);
            return;
        }
    }
    bool quota_ok = quota_.tryAcquire(session->clientId(), now);
    if (t)
        job.quotaUs = t->nowUs();
    if (!quota_ok) {
        resolve(job, Resolution::ShedQuota, 0, {},
                quota_.retryAfterMs(session->clientId(), now));
        return;
    }

    job.admitSec = now;
    if (req.deadlineMs)
        job.deadlineSec = now + double(req.deadlineMs) / 1000.0;

    {
        std::lock_guard<std::mutex> lock(mutex_);
        if (queue_.size() >= options_.queueCapacity) {
            resolve(job, Resolution::ShedQueue, 0, {},
                    options_.retryAfterMs);
            return;
        }
        // Admission-time feasibility: a deadline shorter than one
        // typical service time can never be met — reject now instead
        // of burning a worker on a run we will throw away.
        if (job.deadlineSec > 0.0 && serviceEmaMs_ > 0.0 &&
            double(req.deadlineMs) < serviceEmaMs_) {
            resolve(job, Resolution::DeadlineAdmission, 0,
                    fmt("deadline %llums is infeasible: typical "
                        "service time is ~%.1fms",
                        (unsigned long long)req.deadlineMs,
                        serviceEmaMs_));
            return;
        }
        if (t) {
            // Admitted: seal the admission stage at this boundary so
            // "queue-wait" can start exactly where it ended.
            job.admitUs = t->nowUs();
            admissionSpan(job, job.admitUs);
        }
        queue_.push_back(std::move(job));
        metrics_.gaugeMax("serve.queue_depth_peak", queue_.size());
    }
    workCv_.notify_one();
}

uint64_t
Server::admissionSpan(const Job &job, uint64_t end_us)
{
    trace::ActiveTrace &t = *job.trace;
    uint64_t adm = t.add("admission", 0, 0, end_us);
    t.add("parse", adm, 0, job.parseUs);
    if (job.validateUs)
        t.add("validate", adm, job.parseUs, job.validateUs);
    if (job.quotaUs)
        t.add("quota", adm, job.validateUs, job.quotaUs);
    return adm;
}

void
Server::resolve(const Job &job, Resolution how, uint64_t end_us,
                const std::string &text, uint64_t number,
                const std::string &code)
{
    const ResolutionRow &row = kResolutions[size_t(how)];
    const ReplyKind &kind = *row.kind;
    const char *reason = row.reason ? row.reason : code.c_str();
    metrics_.add(kind.counter);
    std::string counter = reasonCounter(row);
    if (!counter.empty())
        metrics_.add(counter);

    const std::shared_ptr<trace::ActiveTrace> &t = job.trace;
    uint64_t trace_id = t ? t->traceId() : 0;
    std::string stages;
    if (t && row.admission) {
        // A refusal closes the trace: the admission stage covers the
        // whole request, with the ladder steps as children.
        end_us = t->nowUs();
        t->attr(admissionSpan(job, end_us), "reject", reason);
    } else if (t && row.kind == &kDeadline) {
        // The machine-greppable DEADLINE breakdown: stage durations
        // from the same boundary stamps the stage spans use, so the
        // line and the trace agree to the microsecond and sum to the
        // total.
        stages = fmt("\ntrace id=0x%016llx admission_us=%llu "
                     "queue_us=%llu compile_us=%llu run_us=%llu",
                     (unsigned long long)trace_id,
                     (unsigned long long)job.admitUs,
                     (unsigned long long)(job.claimUs - job.admitUs),
                     (unsigned long long)(job.compileUs - job.claimUs),
                     (unsigned long long)(end_us - job.compileUs));
    }
    tracer_.finish(t, kind.outcome, end_us);

    if (log_ && row.event != None) {
        std::vector<std::pair<std::string, std::string>> attrs;
        if (row.kind != &kOk)
            attrs.emplace_back(row.kind == &kError ? "code" : "reason",
                               reason);
        if (row.event == Workload)
            attrs.emplace_back("workload", job.request.workload);
        else if (row.event == Client)
            attrs.emplace_back("client", job.session->clientId());
        else if (row.event == What)
            attrs.emplace_back("what", text);
        if (row.kind == &kOk)
            attrs.emplace_back("cycles",
                               fmt("%llu", (unsigned long long)number));
        bool internal = how == Resolution::Internal ||
                        how == Resolution::InternalUnknown;
        log_->event(row.kind == &kOk ? slog::Level::Info
                    : internal       ? slog::Level::Error
                                     : slog::Level::Warn,
                    kind.event, trace_id, 0, std::move(attrs));
    }

    if (row.kind == &kOk)
        send(job.session, kind.frame, job.tag, text);
    else
        send(job.session, kind.frame, job.tag,
             row.kind == &kError
                 ? renderErrorReply({reason, unsigned(number), text})
             : row.kind == &kShed
                 ? renderShedReply({reason, number})
                 : renderDeadlineReply({reason, text + stages}));
}

void
Server::handleTrace(const std::shared_ptr<Session> &session,
                    const Frame &frame)
{
    TraceRequest req;
    std::string parse_error;
    if (!parseTraceRequest(frame.payload, req, &parse_error)) {
        sendError(session, frame.tag,
                  ErrorReply{kErrBadRequest, 0, parse_error});
        return;
    }
    auto traces = tracer_.recent(size_t(req.limit), req.id);
    send(session, FrameKind::TraceReply, frame.tag,
         trace::tracesJson(traces, &tracer_));
}

void
Server::workerLoop()
{
    for (;;) {
        Job job;
        {
            std::unique_lock<std::mutex> lock(mutex_);
            workCv_.wait(lock, [&] {
                return stopping_ || !queue_.empty();
            });
            if (queue_.empty()) {
                // stopping_ with an empty queue: time to exit.
                return;
            }
            job = std::move(queue_.front());
            queue_.pop_front();
            ++inFlight_;
        }
        runJob(std::move(job));
        {
            std::lock_guard<std::mutex> lock(mutex_);
            --inFlight_;
        }
        drainCv_.notify_all();
    }
}

void
Server::runJob(Job &&job)
{
    double started = nowSec();
    const std::shared_ptr<trace::ActiveTrace> &t = job.trace;
    if (t) {
        job.claimUs = job.compileUs = t->nowUs();
        t->add("queue-wait", 0, job.admitUs, job.claimUs);
    }

    bool cancel_queued;
    {
        std::lock_guard<std::mutex> lock(mutex_);
        cancel_queued = cancelPending_;
    }
    if (cancel_queued) {
        // Drain budget expired while this job sat in the queue. It
        // still resolves — as a deadline, never as silence.
        resolve(job, Resolution::DeadlineDrain, job.claimUs,
                "daemon drained before the run started");
        return;
    }
    if (job.deadlineSec > 0.0 && started >= job.deadlineSec) {
        resolve(job, Resolution::DeadlineQueueWait, job.claimUs,
                fmt("deadline expired after %.1fms in the queue",
                    (started - job.admitSec) * 1000.0));
        return;
    }

    try {
        uint64_t compile_span =
            t ? t->add("compile", 0, job.claimUs, job.claimUs) : 0;
        auto design =
            cache_.lookup(job.request, t.get(), compile_span);
        if (t) {
            job.compileUs = t->nowUs();
            t->close(compile_span, job.compileUs);
        }
        if (!design->ok()) {
            resolve(job, Resolution::Design, job.compileUs,
                    design->error.message, design->error.line,
                    design->error.code);
            return;
        }

        uint64_t run_span =
            t ? t->add("run", 0, job.compileUs, job.compileUs) : 0;
        if (options_.allowWorkDelay && job.request.workDelayMs) {
            trace::ScopedSpan delay_span(t, "work-delay", run_span);
            uint64_t delay =
                std::min<uint64_t>(job.request.workDelayMs, 1000);
            std::this_thread::sleep_for(
                std::chrono::milliseconds(delay));
        }

        const uint64_t budget =
            job.request.maxCycles
                ? std::min(job.request.maxCycles,
                           options_.defaultMaxCycles)
                : options_.defaultMaxCycles;
        // A budget at or above the design's cycles cannot trip the
        // watchdog (every event is ready by then), so the design's OK
        // reply answers without a replay. A tighter budget, or a
        // design without an OK reply, replays under the watchdog.
        const bool memo =
            !design->okReply.empty() && budget >= design->cycles;
        workloads::RunResult result;
        if (memo) {
            result.cycles = design->cycles;
        } else {
            workloads::RunOptions ro;
            ro.watchdog = true;
            ro.maxCycles = budget;
            // Compile-once replay: every ok design carries its frozen
            // DDG and that run's functional result, so this run skips
            // execution, the recording and the CSR rebuild
            // (sim/compiled_ddg.hh reuse contract).
            ro.compiled = design->compiled.get();
            metrics_.add("serve.replays");
            uint64_t sim_span = t ? t->begin("simulate", run_span) : 0;
            result = workloads::runOn(design->workload, *design->accel, ro);
            if (t) {
                t->end(sim_span);
                t->attr(sim_span, "cycles",
                        fmt("%llu", (unsigned long long)result.cycles));
            }
        }

        double finished = nowSec();
        uint64_t end_us = t ? t->nowUs() : 0;
        if (t)
            t->close(run_span, end_us);
        double service_ms = (finished - started) * 1000.0;
        {
            std::lock_guard<std::mutex> lock(mutex_);
            serviceEmaMs_ = serviceEmaMs_ == 0.0
                                ? service_ms
                                : 0.8 * serviceEmaMs_ +
                                      0.2 * service_ms;
        }
        metrics_.observe("serve.latency_us",
                         uint64_t((finished - job.admitSec) * 1e6));

        if (result.hang.tripped()) {
            // The PR-3 watchdog is the in-flight cancellation path: a
            // run past its cycle budget stops deterministically and
            // reports why, instead of wedging a worker forever.
            if (t)
                t->attr(run_span, "watchdog", "tripped");
            resolve(job, Resolution::DeadlineCycleBudget, end_us,
                    result.hang.render());
            return;
        }
        if (!result.check.empty()) {
            resolve(job, Resolution::CheckFailed, end_us, result.check);
            return;
        }
        if (job.deadlineSec > 0.0 && finished >= job.deadlineSec) {
            resolve(job, Resolution::DeadlineExpired, end_us,
                    fmt("run finished %.1fms past the deadline",
                        (finished - job.deadlineSec) * 1000.0));
            return;
        }
        std::string replayed;
        if (!memo)
            replayed = canonicalResult(result);
        resolve(job, Resolution::Ok, end_us,
                memo ? design->okReply : replayed, result.cycles);
    } catch (const std::exception &e) {
        resolve(job, Resolution::Internal, 0, e.what());
    } catch (...) {
        resolve(job, Resolution::InternalUnknown, 0,
                "unexpected exception during run");
    }
}

void
Server::beginDrain()
{
    bool was;
    {
        std::lock_guard<std::mutex> lock(mutex_);
        was = draining_;
        draining_ = true;
    }
    if (!was)
        logEvent(slog::Level::Info, "drain.begin", 0, 0);
}

bool
Server::draining() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    return draining_;
}

bool
Server::drain(uint64_t budget_ms)
{
    beginDrain();
    std::unique_lock<std::mutex> lock(mutex_);
    bool finished = drainCv_.wait_for(
        lock, std::chrono::milliseconds(budget_ms),
        [&] { return queue_.empty() && inFlight_ == 0; });
    if (!finished) {
        // Budget blown: still-queued jobs resolve as DEADLINE(drain)
        // instead of running; in-flight runs are bounded by their
        // cycle budgets, so this second wait terminates.
        cancelPending_ = true;
        workCv_.notify_all();
        drainCv_.wait(lock,
                      [&] { return queue_.empty() && inFlight_ == 0; });
    }
    lock.unlock();
    logEvent(slog::Level::Info, "drain.end", 0, 0,
             {{"clean", finished ? "true" : "false"}});
    return finished;
}

void
Server::stop()
{
    {
        std::lock_guard<std::mutex> lock(mutex_);
        if (stopping_)
            return;
        stopping_ = true;
        draining_ = true;
        cancelPending_ = true;
    }
    workCv_.notify_all();
    for (std::thread &t : workers_)
        t.join();
    workers_.clear();
}

bool
Server::shutdownRequested() const
{
    return shutdownRequested_.load(std::memory_order_acquire);
}

size_t
Server::queueDepth() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    return queue_.size();
}

unsigned
Server::inFlight() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    return inFlight_;
}

std::string
Server::statsJson() const
{
    metrics::Snapshot snap = metrics_.snapshot();
    size_t depth;
    unsigned in_flight;
    {
        std::lock_guard<std::mutex> lock(mutex_);
        depth = queue_.size();
        in_flight = inFlight_;
    }
    // Hand-rolled with a fixed key order: values vary run to run, the
    // schema never does (the same discipline as muir.hostperf.v1).
    std::string out = "{\"muir.serve.v1\":{";
    out += fmt("\"workers\":%u,", jobs_);
    out += fmt("\"queue_depth\":%zu,", depth);
    out += fmt("\"in_flight\":%u,", in_flight);
    out += fmt("\"queue_depth_peak\":%llu,",
               (unsigned long long)snap.gauge("serve.queue_depth_peak"));
    auto counter = [&](const std::string &name) {
        out += fmt("\"%s\":%llu,", name.c_str(),
                   (unsigned long long)snap.counter(name));
    };
    counter("serve.accepted");
    for (size_t i = 0; i < std::size(kResolutions); ++i) {
        const ResolutionRow &row = kResolutions[i];
        if (i == 0 || row.kind != kResolutions[i - 1].kind)
            counter(row.kind->counter);
        std::string reason = reasonCounter(row);
        if (!reason.empty())
            counter(reason);
    }
    counter("serve.bad_frames");
    out += fmt("\"cache_hits\":%llu,",
               (unsigned long long)cache_.hits());
    out += fmt("\"cache_misses\":%llu,",
               (unsigned long long)cache_.misses());
    out += fmt("\"record_hits\":%llu,",
               (unsigned long long)cache_.recordHits());
    // Replays of a cached index: one per compiled design miss, plus
    // every request whose budget could trip.
    out += fmt("\"compiled_ddg_reuse\":%llu,",
               (unsigned long long)(cache_.replays() +
                                    snap.counter("serve.replays")));
    out += fmt("\"trace\":{\"started\":%llu,\"retained\":%llu,"
               "\"dropped\":%llu,\"evicted\":%llu},",
               (unsigned long long)tracer_.started(),
               (unsigned long long)tracer_.retained(),
               (unsigned long long)tracer_.dropped(),
               (unsigned long long)tracer_.evicted());
    out += "\"latency\":";
    out += latencyJson(snap.histogram("serve.latency_us"));
    out += "}}";
    return out;
}

} // namespace muir::serve
