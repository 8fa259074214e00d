/**
 * @file
 * serve_sweep: an in-process µserve daemon driven by one generator
 * thread over four sessions, one outstanding request each (a closed
 * loop, as muir-client and DSE drivers wait for every reply). The run
 * is a series of epochs, each a freshly started daemon answering the
 * next slice of the request stream, so cache misses (the first request
 * for a design in an epoch: cold) recur through the whole run instead
 * of bunching in its first seconds; later requests hit (warm).
 */
#include <algorithm>
#include <condition_variable>
#include <cstdlib>
#include <memory>
#include <mutex>

#include "serve/frame.hh"
#include "serve/protocol.hh"
#include "serve/server.hh"
#include "support/json.hh"
#include "support/strings.hh"
#include "ubench.hh"

namespace muir::ubench
{

namespace
{

constexpr unsigned kWorkers = 3;
constexpr unsigned kSessions = 4;
/** Requests per program in one timed epoch: short epochs give a run
 *  about thirty, so its faster half can step around bursts of other
 *  work on a shared host. */
constexpr uint64_t kEpochRounds = 64;
/** Requests per program in the untimed first epoch, enough that its
 *  daemon caches nearly every design on any seed (peak_rss_mb). */
constexpr uint64_t kWarmUpRounds = 128;

/** One reply frame, stamped when the server handed it to the sink. */
struct Reply
{
    unsigned session = 0;
    serve::Frame frame;
    Clock::time_point at;
};

/** Reply frames of every session, in arrival order. */
class Inbox
{
  public:
    void
    push(Reply reply)
    {
        {
            std::lock_guard<std::mutex> lock(mutex_);
            replies_.push_back(std::move(reply));
        }
        cv_.notify_one();
    }

    std::vector<Reply>
    wait()
    {
        std::unique_lock<std::mutex> lock(mutex_);
        cv_.wait(lock, [&] { return !replies_.empty(); });
        std::vector<Reply> out;
        out.swap(replies_);
        return out;
    }

  private:
    std::mutex mutex_;
    std::condition_variable cv_;
    std::vector<Reply> replies_;
};

/** One answered request. */
struct Answer
{
    uint64_t request = 0;
    size_t key = 0;
    bool cold = false;
    double sentMs = 0; ///< on the span log's clock
    double latencyMs = 0;
};

/** What one epoch (one daemon) measured. */
struct Epoch
{
    uint64_t sent = 0;
    uint64_t cold = 0;
    double elapsedMs = 0;
    double events = 0;
    std::vector<Answer> ok;
    std::vector<double> admitUs;
    size_t queueMax = 0;
    uint64_t hits = 0;
    uint64_t misses = 0;
    uint64_t reuse = 0;
    /** Process peak at the epoch's end. */
    double peakMb = 0;
    /** Retained μtrace traces (traced epochs only). */
    std::vector<std::shared_ptr<const trace::TraceData>> traces;

    double opsPerSec() const { return ok.size() * 1000.0 / elapsedMs; }
    double eventsPerSec() const { return events * 1000.0 / elapsedMs; }
};

/** The request stream's position and the cycles seen per design. */
struct Stream
{
    /** Rebuilt by every set-up; the same list each time. */
    std::unique_ptr<ServeList> list;
    uint64_t next = 0;
    /** Cycles per key (0 = never answered). */
    std::vector<uint64_t> keyCycles;
    size_t answeredKeys = 0;
};

/** The number after @p key at the start of a payload line (0 = none). */
uint64_t
field(const std::string &payload, const std::string &key)
{
    size_t at = payload.compare(0, key.size(), key) == 0
                    ? 0
                    : payload.find("\n" + key);
    if (at == std::string::npos)
        return 0;
    at += at ? key.size() + 1 : key.size();
    return std::strtoull(payload.c_str() + at, nullptr, 10);
}

serve::ServerOptions
serverOptions(size_t designs, bool traced)
{
    serve::ServerOptions opts;
    opts.jobs = kWorkers;
    // Sized so a well-behaved closed loop never sheds or evicts.
    opts.queueCapacity = 4 * kSessions;
    opts.quotaRate = 1e9;
    opts.quotaBurst = 1e9;
    opts.cacheCapacity = designs;
    if (traced) {
        opts.traceSampleRate = 1.0;
        opts.traceRingCapacity = size_t(1) << 20;
    }
    return opts;
}

/** Check μserve's own counters against what the generator saw. */
void
readStats(Result &res, const std::string &json, Epoch &ep)
{
    JsonValue doc;
    std::string error;
    const JsonValue *stats = nullptr;
    if (jsonParse(json, &doc, &error))
        stats = doc.get("muir.serve.v1");
    if (!stats) {
        res.inconsistent("unreadable statsJson: " + error);
        return;
    }
    auto counter = [&](const char *name) {
        const JsonValue *v = stats->get(name);
        return v ? v->asU64() : 0;
    };
    ep.hits = counter("cache_hits");
    ep.misses = counter("cache_misses");
    ep.reuse = counter("compiled_ddg_reuse");
    if (ep.misses != ep.cold)
        res.inconsistent(fmt("cache_misses=%llu but %llu cold requests",
                             (unsigned long long)ep.misses,
                             (unsigned long long)ep.cold));
    if (ep.hits + ep.misses != ep.sent)
        res.inconsistent(fmt("cache hits+misses=%llu but %llu requests",
                             (unsigned long long)(ep.hits + ep.misses),
                             (unsigned long long)ep.sent));
}

/**
 * Drive @p server through the stream's next @p rounds requests per
 * program, wait for every reply, then drain and stop the server.
 */
Epoch
runEpoch(Result &res, Stream &st, serve::Server &server,
         const SpanLog &log, bool traced, uint64_t rounds = kEpochRounds)
{
    const std::vector<DesignPoint> &keys = st.list->keys();
    Inbox inbox;
    std::vector<serve::FrameDecoder> decoders(kSessions);
    std::vector<std::shared_ptr<serve::Session>> sessions;
    for (unsigned s = 0; s < kSessions; ++s)
        sessions.push_back(server.openSession(
            fmt("ubench-%u", s), [&, s](const std::string &bytes) {
                // The server serializes replies per session, so each
                // decoder sees one writer at a time.
                Clock::time_point at = Clock::now();
                decoders[s].feed(bytes);
                serve::Frame frame;
                while (decoders[s].next(frame) ==
                       serve::DecodeStatus::Ready)
                    inbox.push({s, std::move(frame), at});
            }));

    struct Outstanding
    {
        bool busy = false;
        Answer answer;
        Clock::time_point sent;
    };
    std::vector<Outstanding> out(kSessions);
    std::vector<unsigned> in_flight(keys.size(), 0);
    std::vector<bool> requested(keys.size(), false);
    const uint64_t end =
        st.next + rounds * serveProgramNames().size();
    Epoch ep;

    Clock::time_point t0 = Clock::now();
    for (;;) {
        for (unsigned s = 0; st.next < end && s < kSessions; ++s) {
            if (out[s].busy)
                continue;
            size_t key = st.list->request(st.next);
            // Never two unanswered requests for one design: the stream
            // waits until the earlier one is answered.
            if (in_flight[key])
                break;
            serve::RunRequest req;
            req.workload = keys[key].workload;
            req.passes = keys[key].passes;
            if (traced)
                req.traceId = st.next + 1;
            std::string bytes =
                serve::encodeFrame(serve::FrameKind::Run,
                                   uint32_t(st.next),
                                   serve::renderRunRequest(req));
            out[s].busy = true;
            out[s].answer = {st.next, key, !requested[key], 0, 0};
            ep.cold += !requested[key];
            requested[key] = true;
            ++in_flight[key];
            ++st.next;
            ++ep.sent;
            ++res.attempted;
            Clock::time_point t_feed = Clock::now();
            out[s].sent = t_feed;
            out[s].answer.sentMs =
                std::chrono::duration<double, std::milli>(t_feed -
                                                          log.epoch())
                    .count();
            server.feed(sessions[s], bytes);
            ep.admitUs.push_back(msSince(t_feed) * 1000.0);
            ep.queueMax = std::max(ep.queueMax, server.queueDepth());
        }
        bool busy = std::any_of(out.begin(), out.end(),
                                [](const Outstanding &o) { return o.busy; });
        if (!busy)
            break;
        for (Reply &reply : inbox.wait()) {
            Outstanding &o = out[reply.session];
            const DesignPoint &d = keys[o.answer.key];
            std::string design = d.workload + " " + d.passes;
            o.busy = false;
            --in_flight[o.answer.key];
            o.answer.latencyMs =
                std::chrono::duration<double, std::milli>(reply.at -
                                                          o.sent)
                    .count();
            const std::string &payload = reply.frame.payload;
            if (reply.frame.tag != uint32_t(o.answer.request) ||
                reply.frame.kindEnum() != serve::FrameKind::Ok) {
                res.fail(fmt("%s: %s reply: %s", design.c_str(),
                             serve::frameKindName(reply.frame.kindEnum()),
                             payload.c_str()));
                continue;
            }
            uint64_t cycles = field(payload, "cycles=");
            uint64_t &first = st.keyCycles[o.answer.key];
            if (payload.find("\ncheck=ok\n") == std::string::npos ||
                cycles == 0 || (first && first != cycles)) {
                res.fail(design + ": reply disagrees with the design's "
                                  "first reply");
                continue;
            }
            if (!first) {
                first = cycles;
                ++st.answeredKeys;
            }
            ep.events += double(field(payload, "events = "));
            ep.ok.push_back(o.answer);
        }
        ep.queueMax = std::max(ep.queueMax, server.queueDepth());
    }
    ep.elapsedMs = msSince(t0);
    ep.peakMb = peakRssMb();
    server.drain(1000);
    readStats(res, server.statsJson(), ep);
    server.stop();
    if (traced)
        ep.traces = server.tracer().recent();
    return ep;
}

/** Set up an epoch: the request stream and a freshly started daemon. */
std::unique_ptr<serve::Server>
setUpServe(uint64_t seed, Stream &st, Setups &setups, bool traced)
{
    // On the generator thread's CPU clock, as for the toolchain
    // workloads: set-up is a sub-millisecond single-threaded step.
    CpuClock::time_point t0 = CpuClock::now();
    double build_ms = 0;
    st.list = std::make_unique<ServeList>(
        buildPrograms(serveProgramNames(), build_ms), seed);
    auto server = std::make_unique<serve::Server>(
        serverOptions(st.list->keys().size(), traced));
    setups.totalMs.push_back(msSince(t0));
    setups.buildMs.push_back(build_ms);
    return server;
}

/** Epochs until @p seconds have passed (and, with @p all_keys, every
 *  design has been answered once). */
std::vector<Epoch>
runEpochs(Result &res, uint64_t seed, Stream &st, Setups &setups,
          const SpanLog &log, double seconds, bool all_keys, bool traced)
{
    std::vector<Epoch> epochs;
    Clock::time_point t0 = Clock::now();
    do {
        std::unique_ptr<serve::Server> server =
            setUpServe(seed, st, setups, traced);
        epochs.push_back(runEpoch(res, st, *server, log, traced));
    } while (msSince(t0) < seconds * 1000.0 ||
             (all_keys && st.answeredKeys < st.keyCycles.size()));
    return epochs;
}

double
epochMedian(const std::vector<Epoch> &epochs, double (Epoch::*rate)() const)
{
    std::vector<double> v;
    for (const Epoch &ep : epochs)
        v.push_back((ep.*rate)());
    return median(v);
}

} // namespace

Result
runServeSweep(const Args &args)
{
    Result res;
    Setups setups;
    Stream st;
    setUpServe(args.seed, st, setups, false);
    st.keyCycles.assign(st.list->keys().size(), 0);
    if (!args.designsPath.empty()) {
        std::vector<DesignPoint> designs = st.list->keys();
        uint64_t epoch = kEpochRounds * serveProgramNames().size();
        for (uint64_t j = 0; j < epoch; ++j)
            designs.push_back(st.list->keys()[st.list->request(j)]);
        writeDesigns(args.designsPath, designs);
    }

    SpanLog log;
    // The untimed first epoch warms the process and gives the peak of
    // one daemon's life from a fresh heap; later epochs repeat the work
    // but add allocator fragmentation that varies from run to run.
    double peak_mb =
        runEpoch(res, st, *setUpServe(args.seed, st, setups, false), log,
                 false, kWarmUpRounds)
            .peakMb;
    if (!args.trace) {
        std::vector<Epoch> epochs =
            runEpochs(res, args.seed, st, setups, log, args.seconds,
                      /*all_keys=*/true, /*traced=*/false);
        // The faster half of the epochs by throughput: other work on a
        // shared host only slows an epoch, while a single epoch holds
        // too few cold requests for a steady p90 of its own. Their
        // latencies are pooled.
        std::vector<const Epoch *> fast;
        for (const Epoch &ep : epochs)
            fast.push_back(&ep);
        std::sort(fast.begin(), fast.end(),
                  [](const Epoch *a, const Epoch *b) {
                      return a->opsPerSec() > b->opsPerSec();
                  });
        fast.resize((fast.size() + 1) / 2);
        std::vector<double> cold_ms, warm_ms, ops_per_s, events_per_s;
        for (const Epoch *ep : fast) {
            for (const Answer &a : ep->ok)
                (a.cold ? cold_ms : warm_ms).push_back(a.latencyMs);
            ops_per_s.push_back(ep->opsPerSec());
            events_per_s.push_back(ep->eventsPerSec());
        }
        std::vector<double> cycles;
        for (uint64_t c : st.keyCycles)
            cycles.push_back(double(c));
        auto &m = res.metrics;
        m["setup_s"] = median(setups.totalMs) / 1000.0;
        m["ops_per_s"] = median(ops_per_s);
        m["sim_events_per_s"] = median(events_per_s);
        m["cold_ms_p50"] = percentile(cold_ms, 50);
        m["cold_ms_p90"] = percentile(cold_ms, 90);
        m["warm_ms_p50"] = percentile(warm_ms, 50);
        m["warm_ms_p90"] = percentile(warm_ms, 90);
        m["peak_rss_mb"] = peak_mb;
        m["sim_cycles_geomean"] = geomean(cycles);
        return res;
    }

    // Traced run: untraced epochs for the first half, then epochs on
    // daemons that trace every request.
    std::vector<Epoch> untraced = runEpochs(
        res, args.seed, st, setups, log, args.seconds / 2, false, false);
    std::vector<Epoch> traced = runEpochs(res, args.seed, st, setups, log,
                                          args.seconds / 2, false, true);

    // Each request becomes a root span; μserve's stage spans, taken
    // from its μtrace ring, become its children.
    std::vector<double> admit_us, queue_wait_ms, compile_ms, run_ms;
    size_t queue_max = 0;
    uint64_t hits = 0, misses = 0, reuse = 0;
    for (const Epoch &ep : traced) {
        admit_us.insert(admit_us.end(), ep.admitUs.begin(),
                        ep.admitUs.end());
        queue_max = std::max(queue_max, ep.queueMax);
        hits += ep.hits;
        misses += ep.misses;
        reuse += ep.reuse;
        std::map<uint64_t, const trace::TraceData *> by_id;
        for (const auto &t : ep.traces)
            by_id[t->traceId] = t.get();
        for (const Answer &a : ep.ok) {
            size_t root = log.add(a.request, "serve_sweep.request", -1,
                                  a.sentMs, a.latencyMs);
            auto it = by_id.find(a.request + 1);
            if (it == by_id.end()) {
                res.fail(fmt("request %llu has no trace",
                             (unsigned long long)a.request));
                continue;
            }
            const trace::TraceData &t = *it->second;
            std::map<uint64_t, size_t> index;
            for (const trace::Span &s : t.spans) {
                int64_t parent = int64_t(root);
                if (s.parent) {
                    auto p = index.find(s.parent);
                    if (p == index.end())
                        continue;
                    parent = int64_t(p->second);
                }
                index[s.id] =
                    log.add(a.request, "serve." + s.name, parent,
                            a.sentMs + s.startUs / 1000.0,
                            s.durUs / 1000.0);
            }
            queue_wait_ms.push_back(t.stageUs("queue-wait") / 1000.0);
            run_ms.push_back(t.stageUs("run") / 1000.0);
            if (a.cold)
                compile_ms.push_back(t.stageUs("compile") / 1000.0);
        }
    }
    auto &m = res.metrics;
    m["workloads.build_ms"] = median(setups.buildMs);
    m["serve.admit_us_p50"] = median(admit_us);
    m["serve.queue_depth_max"] = double(queue_max);
    m["serve.queue_wait_ms_p50"] = median(queue_wait_ms);
    m["serve.compile_ms_p50"] = median(compile_ms);
    m["serve.run_ms_p50"] = median(run_ms);
    m["serve.cache_hits"] = double(hits);
    m["serve.cache_misses"] = double(misses);
    m["serve.hit_ratio"] =
        hits + misses ? double(hits) / double(hits + misses) : 0;
    m["serve.compiled_ddg_reuse"] = double(reuse);
    m["trace.coverage"] = layerTimes(log).coverage;
    m["trace.overhead"] = epochMedian(traced, &Epoch::opsPerSec) /
                          epochMedian(untraced, &Epoch::opsPerSec);
    if (!args.spansPath.empty())
        log.write(args.spansPath);
    return res;
}

} // namespace muir::ubench
