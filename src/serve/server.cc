#include "serve/server.hh"

#include <algorithm>
#include <cmath>

#include "support/parallel.hh"
#include "support/strings.hh"
#include "workloads/driver.hh"

namespace muir::serve
{

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

    // Admission control, cheapest checks first. Structural rejects
    // (size, syntax, unknown workload) come before quota/queue so a
    // client's junk never burns its own tokens or a queue slot.
    // Size/syntax rejects stay untraced: a stamp inside an
    // unparseable payload cannot be honored.
    if (frame.payload.size() > options_.maxRequestBytes) {
        sendError(session, frame.tag,
                  ErrorReply{kErrTooLarge, 0,
                             fmt("request payload is %zu bytes; the "
                                 "admission cap is %zu",
                                 frame.payload.size(),
                                 options_.maxRequestBytes)});
        return;
    }
    RunRequest req;
    std::string parse_error;
    if (!parseRunRequest(frame.payload, req, &parse_error)) {
        sendError(session, frame.tag,
                  ErrorReply{kErrBadRequest, 0, parse_error});
        return;
    }

    // One trace per parsed request, anchored at dispatch entry so the
    // size/parse work above lands inside it. Null when tracing is off
    // and the client did not stamp — the no-overhead path.
    std::shared_ptr<trace::ActiveTrace> t = tracer_.begin(
        "run " + req.workload +
            (req.passes.empty() ? std::string()
                                : " passes=" + req.passes),
        req.traceId, entry);
    uint64_t trace_id = t ? t->traceId() : 0;
    uint64_t parse_end = t ? t->nowUs() : 0;
    uint64_t validate_end = 0;
    uint64_t quota_end = 0;

    // Close the trace on an admission reject: the "admission" stage
    // covers the whole request, with the ladder steps as children.
    auto reject = [&](const char *outcome, const char *reason) {
        if (!t)
            return;
        uint64_t now = t->nowUs();
        uint64_t adm = t->add("admission", 0, 0, now);
        t->add("parse", adm, 0, parse_end);
        if (validate_end)
            t->add("validate", adm, parse_end, validate_end);
        if (quota_end)
            t->add("quota", adm, validate_end, quota_end);
        t->attr(adm, "reject", reason);
        tracer_.finish(t, outcome, now);
    };

    const auto &names = workloads::workloadNames();
    if (std::find(names.begin(), names.end(), req.workload) ==
        names.end()) {
        reject(trace::kOutcomeError, kErrUnknownWorkload);
        logEvent(slog::Level::Warn, "request.error", trace_id, 0,
                 {{"code", kErrUnknownWorkload},
                  {"workload", req.workload}});
        sendError(session, frame.tag,
                  ErrorReply{kErrUnknownWorkload, 0,
                             fmt("unknown workload '%s'",
                                 req.workload.c_str())});
        return;
    }
    if (t)
        validate_end = t->nowUs();

    double now = nowSec();
    {
        std::lock_guard<std::mutex> lock(mutex_);
        if (draining_ || stopping_) {
            metrics_.add("serve.shed");
            metrics_.add("serve.shed.drain");
            reject(trace::kOutcomeShed, "drain");
            logEvent(slog::Level::Warn, "request.shed", trace_id, 0,
                     {{"reason", "drain"},
                      {"workload", req.workload}});
            send(session, FrameKind::Shed, frame.tag,
                 renderShedReply({"drain", 0}));
            return;
        }
    }
    bool quota_ok = quota_.tryAcquire(session->clientId(), now);
    if (t)
        quota_end = t->nowUs();
    if (!quota_ok) {
        metrics_.add("serve.shed");
        metrics_.add("serve.shed.quota");
        reject(trace::kOutcomeShed, "quota");
        logEvent(slog::Level::Warn, "request.shed", trace_id, 0,
                 {{"reason", "quota"},
                  {"client", session->clientId()}});
        send(session, FrameKind::Shed, frame.tag,
             renderShedReply(
                 {"quota",
                  quota_.retryAfterMs(session->clientId(), now)}));
        return;
    }

    Job job;
    job.session = session;
    job.tag = frame.tag;
    job.request = std::move(req);
    job.admitSec = now;
    if (job.request.deadlineMs)
        job.deadlineSec = now + double(job.request.deadlineMs) / 1000.0;

    {
        std::lock_guard<std::mutex> lock(mutex_);
        if (queue_.size() >= options_.queueCapacity) {
            metrics_.add("serve.shed");
            metrics_.add("serve.shed.queue");
            reject(trace::kOutcomeShed, "queue");
            logEvent(slog::Level::Warn, "request.shed", trace_id, 0,
                     {{"reason", "queue"},
                      {"workload", job.request.workload}});
            send(session, FrameKind::Shed, frame.tag,
                 renderShedReply({"queue", options_.retryAfterMs}));
            return;
        }
        // Admission-time feasibility: a deadline shorter than one
        // typical service time can never be met — reject now instead
        // of burning a worker on a run we will throw away.
        if (job.deadlineSec > 0.0 && serviceEmaMs_ > 0.0 &&
            double(job.request.deadlineMs) < serviceEmaMs_) {
            metrics_.add("serve.deadline");
            metrics_.add("serve.deadline.admission");
            reject(trace::kOutcomeDeadline, "admission");
            logEvent(slog::Level::Warn, "request.deadline", trace_id,
                     0,
                     {{"reason", "admission"},
                      {"workload", job.request.workload}});
            send(session, FrameKind::Deadline, frame.tag,
                 renderDeadlineReply(
                     {"admission",
                      fmt("deadline %llums is infeasible: typical "
                          "service time is ~%.1fms",
                          (unsigned long long)job.request.deadlineMs,
                          serviceEmaMs_)}));
            return;
        }
        if (t) {
            // Admitted: seal the admission stage at this boundary so
            // "queue-wait" can start exactly where it ended.
            job.admitUs = t->nowUs();
            uint64_t adm = t->add("admission", 0, 0, job.admitUs);
            t->add("parse", adm, 0, parse_end);
            t->add("validate", adm, parse_end, validate_end);
            t->add("quota", adm, validate_end, quota_end);
            job.trace = t;
        }
        queue_.push_back(std::move(job));
        metrics_.gaugeMax("serve.queue_depth_peak", queue_.size());
    }
    workCv_.notify_one();
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
    uint64_t trace_id = t ? t->traceId() : 0;
    uint64_t claim_us = t ? t->nowUs() : 0;
    if (t)
        t->add("queue-wait", 0, job.admitUs, claim_us);

    // The machine-greppable DEADLINE breakdown: stage durations from
    // the same boundary stamps the stage spans use, so the line and
    // the trace agree to the microsecond and sum to the total.
    auto stageLine = [&](uint64_t compile_end, uint64_t run_end) {
        return fmt("\ntrace id=0x%016llx admission_us=%llu "
                   "queue_us=%llu compile_us=%llu run_us=%llu",
                   (unsigned long long)trace_id,
                   (unsigned long long)job.admitUs,
                   (unsigned long long)(claim_us - job.admitUs),
                   (unsigned long long)(compile_end - claim_us),
                   (unsigned long long)(run_end - compile_end));
    };

    bool cancel_queued;
    {
        std::lock_guard<std::mutex> lock(mutex_);
        cancel_queued = cancelPending_;
    }
    if (cancel_queued) {
        // Drain budget expired while this job sat in the queue. It
        // still resolves — as a deadline, never as silence.
        metrics_.add("serve.deadline");
        metrics_.add("serve.deadline.drain");
        std::string detail = "daemon drained before the run started";
        if (t)
            detail += stageLine(claim_us, claim_us);
        tracer_.finish(t, trace::kOutcomeDeadline, claim_us);
        logEvent(slog::Level::Warn, "request.deadline", trace_id, 0,
                 {{"reason", "drain"},
                  {"workload", job.request.workload}});
        send(job.session, FrameKind::Deadline, job.tag,
             renderDeadlineReply({"drain", detail}));
        return;
    }
    if (job.deadlineSec > 0.0 && started >= job.deadlineSec) {
        metrics_.add("serve.deadline");
        metrics_.add("serve.deadline.queue-wait");
        std::string detail =
            fmt("deadline expired after %.1fms in the queue",
                (started - job.admitSec) * 1000.0);
        if (t)
            detail += stageLine(claim_us, claim_us);
        tracer_.finish(t, trace::kOutcomeDeadline, claim_us);
        logEvent(slog::Level::Warn, "request.deadline", trace_id, 0,
                 {{"reason", "queue-wait"},
                  {"workload", job.request.workload}});
        send(job.session, FrameKind::Deadline, job.tag,
             renderDeadlineReply({"queue-wait", detail}));
        return;
    }

    try {
        uint64_t compile_span =
            t ? t->add("compile", 0, claim_us, claim_us) : 0;
        auto design =
            cache_.lookup(job.request, t.get(), compile_span);
        uint64_t compile_us = t ? t->nowUs() : 0;
        if (t)
            t->close(compile_span, compile_us);
        if (!design->ok()) {
            tracer_.finish(t, trace::kOutcomeError, compile_us);
            logEvent(slog::Level::Warn, "request.error", trace_id, 0,
                     {{"code", design->error.code},
                      {"workload", job.request.workload}});
            sendError(job.session, job.tag, design->error);
            return;
        }

        uint64_t run_span =
            t ? t->add("run", 0, compile_us, compile_us) : 0;
        if (options_.allowWorkDelay && job.request.workDelayMs) {
            trace::ScopedSpan delay_span(t, "work-delay", run_span);
            uint64_t delay =
                std::min<uint64_t>(job.request.workDelayMs, 1000);
            std::this_thread::sleep_for(
                std::chrono::milliseconds(delay));
        }

        workloads::RunOptions ro;
        ro.watchdog = true;
        ro.maxCycles =
            job.request.maxCycles
                ? std::min(job.request.maxCycles,
                           options_.defaultMaxCycles)
                : options_.defaultMaxCycles;
        // Compile-once replay: every ok design carries its frozen DDG
        // and that run's functional result, so this run skips
        // execution, the recording and the CSR rebuild
        // (sim/compiled_ddg.hh reuse contract).
        ro.compiled = design->compiled.get();
        metrics_.add("serve.compiled_ddg.reuse");
        uint64_t sim_span = t ? t->begin("simulate", run_span) : 0;
        workloads::RunResult result =
            workloads::runOn(design->workload, *design->accel, ro);
        if (t) {
            t->end(sim_span);
            t->attr(sim_span, "cycles",
                    fmt("%llu", (unsigned long long)result.cycles));
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
            metrics_.add("serve.deadline");
            metrics_.add("serve.deadline.cycle-budget");
            std::string detail = result.hang.render();
            if (t) {
                t->attr(run_span, "watchdog", "tripped");
                detail += stageLine(compile_us, end_us);
            }
            tracer_.finish(t, trace::kOutcomeDeadline, end_us);
            logEvent(slog::Level::Warn, "request.deadline", trace_id,
                     0,
                     {{"reason", "cycle-budget"},
                      {"workload", job.request.workload}});
            send(job.session, FrameKind::Deadline, job.tag,
                 renderDeadlineReply({"cycle-budget", detail}));
            return;
        }
        if (!result.check.empty()) {
            tracer_.finish(t, trace::kOutcomeError, end_us);
            logEvent(slog::Level::Warn, "request.error", trace_id, 0,
                     {{"code", kErrCheckFailed},
                      {"workload", job.request.workload}});
            sendError(job.session, job.tag,
                      ErrorReply{kErrCheckFailed, 0, result.check});
            return;
        }
        if (job.deadlineSec > 0.0 && finished >= job.deadlineSec) {
            metrics_.add("serve.deadline");
            metrics_.add("serve.deadline.expired");
            std::string detail =
                fmt("run finished %.1fms past the deadline",
                    (finished - job.deadlineSec) * 1000.0);
            if (t)
                detail += stageLine(compile_us, end_us);
            tracer_.finish(t, trace::kOutcomeDeadline, end_us);
            logEvent(slog::Level::Warn, "request.deadline", trace_id,
                     0,
                     {{"reason", "expired"},
                      {"workload", job.request.workload}});
            send(job.session, FrameKind::Deadline, job.tag,
                 renderDeadlineReply({"expired", detail}));
            return;
        }
        metrics_.add("serve.ok");
        tracer_.finish(t, trace::kOutcomeOk, end_us);
        logEvent(slog::Level::Info, "request.ok", trace_id, 0,
                 {{"workload", job.request.workload},
                  {"cycles",
                   fmt("%llu", (unsigned long long)result.cycles)}});
        send(job.session, FrameKind::Ok, job.tag,
             canonicalResult(result));
    } catch (const std::exception &e) {
        tracer_.finish(t, trace::kOutcomeError);
        logEvent(slog::Level::Error, "request.error", trace_id, 0,
                 {{"code", kErrInternal}, {"what", e.what()}});
        sendError(job.session, job.tag,
                  ErrorReply{kErrInternal, 0, e.what()});
    } catch (...) {
        tracer_.finish(t, trace::kOutcomeError);
        logEvent(slog::Level::Error, "request.error", trace_id, 0,
                 {{"code", kErrInternal}});
        sendError(job.session, job.tag,
                  ErrorReply{kErrInternal, 0,
                             "unexpected exception during run"});
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
    const char *counters[] = {
        "serve.accepted",        "serve.ok",
        "serve.error",           "serve.shed",
        "serve.shed.quota",      "serve.shed.queue",
        "serve.shed.drain",      "serve.deadline",
        "serve.deadline.admission", "serve.deadline.queue-wait",
        "serve.deadline.cycle-budget", "serve.deadline.expired",
        "serve.deadline.drain",  "serve.bad_frames",
    };
    for (const char *name : counters)
        out += fmt("\"%s\":%llu,", name,
                   (unsigned long long)snap.counter(name));
    out += fmt("\"cache_hits\":%llu,",
               (unsigned long long)cache_.hits());
    out += fmt("\"cache_misses\":%llu,",
               (unsigned long long)cache_.misses());
    out += fmt("\"record_hits\":%llu,",
               (unsigned long long)cache_.recordHits());
    out += fmt("\"compiled_ddg_reuse\":%llu,",
               (unsigned long long)snap.counter(
                   "serve.compiled_ddg.reuse"));
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
