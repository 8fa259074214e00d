/**
 * @file
 * µserve tests: the frame codec against truncation/corruption at every
 * byte boundary, the protocol payload round-trips, deterministic
 * backoff/quota policies, the compile-once design cache, and the
 * server's robustness contract — every well-formed request resolves to
 * exactly one reply, OK payloads are byte-identical to direct runs at
 * any job count, hostile bytes only kill their own connection, and
 * drain resolves everything admitted.
 */
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <map>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

#include "serve/backoff.hh"
#include "serve/cache.hh"
#include "serve/chaos.hh"
#include "serve/client.hh"
#include "serve/frame.hh"
#include "serve/protocol.hh"
#include "serve/quota.hh"
#include "serve/server.hh"
#include "support/slog.hh"
#include "support/strings.hh"
#include "support/trace.hh"
#include "uir/serialize.hh"
#include "workloads/driver.hh"

using namespace muir;
using namespace muir::serve;

namespace
{

// ---------------------------------------------------------- frame codec

TEST(ServeFrame, ExactRoundTrip)
{
    Frame in;
    in.kind = uint8_t(FrameKind::Run);
    in.tag = 0xDEADBEEF;
    in.payload = std::string("hello\0world", 11); // embedded NUL
    std::string bytes = encodeFrame(in);
    ASSERT_EQ(bytes.size(), kFrameHeaderBytes + in.payload.size());

    FrameDecoder dec;
    dec.feed(bytes);
    Frame out;
    ASSERT_EQ(dec.next(out), DecodeStatus::Ready);
    EXPECT_EQ(out.kind, in.kind);
    EXPECT_EQ(out.tag, in.tag);
    EXPECT_EQ(out.payload, in.payload);
    EXPECT_EQ(dec.next(out), DecodeStatus::NeedMore);
    EXPECT_EQ(dec.buffered(), 0u);
}

TEST(ServeFrame, EmptyPayloadRoundTrip)
{
    std::string bytes = encodeFrame(FrameKind::Ping, 7, "");
    FrameDecoder dec;
    dec.feed(bytes);
    Frame out;
    ASSERT_EQ(dec.next(out), DecodeStatus::Ready);
    EXPECT_EQ(out.kindEnum(), FrameKind::Ping);
    EXPECT_EQ(out.tag, 7u);
    EXPECT_TRUE(out.payload.empty());
}

TEST(ServeFrame, TruncationAtEveryByteBoundaryJustNeedsMore)
{
    std::string bytes =
        encodeFrame(FrameKind::Run, 42, "run workload=fib\n");
    for (size_t cut = 0; cut < bytes.size(); ++cut) {
        FrameDecoder dec;
        dec.feed(bytes.data(), cut);
        Frame out;
        ASSERT_EQ(dec.next(out), DecodeStatus::NeedMore)
            << "cut at byte " << cut;
        EXPECT_FALSE(dec.poisoned());
        // Feeding the remainder completes the frame exactly.
        dec.feed(bytes.data() + cut, bytes.size() - cut);
        ASSERT_EQ(dec.next(out), DecodeStatus::Ready)
            << "resume at byte " << cut;
        EXPECT_EQ(out.tag, 42u);
        EXPECT_EQ(out.payload, "run workload=fib\n");
    }
}

TEST(ServeFrame, ByteAtATimeFeedDecodesEverything)
{
    std::string bytes = encodeFrame(FrameKind::Stats, 1, "a") +
                        encodeFrame(FrameKind::Ping, 2, "bb") +
                        encodeFrame(FrameKind::Run, 3, "");
    FrameDecoder dec;
    std::vector<Frame> frames;
    for (char c : bytes) {
        dec.feed(&c, 1);
        Frame out;
        while (dec.next(out) == DecodeStatus::Ready)
            frames.push_back(out);
    }
    ASSERT_EQ(frames.size(), 3u);
    EXPECT_EQ(frames[0].payload, "a");
    EXPECT_EQ(frames[1].payload, "bb");
    EXPECT_EQ(frames[2].tag, 3u);
}

TEST(ServeFrame, BadMagicPoisonsPermanently)
{
    FrameDecoder dec;
    dec.feed("junk that is not a frame");
    Frame out;
    std::string error;
    EXPECT_EQ(dec.next(out, &error), DecodeStatus::BadMagic);
    EXPECT_TRUE(dec.poisoned());
    EXPECT_NE(error.find("magic"), std::string::npos);
    // A poisoned decoder drops later bytes and repeats its verdict:
    // the stream can never be trusted again.
    dec.feed(encodeFrame(FrameKind::Ping, 1, ""));
    EXPECT_EQ(dec.next(out, &error), DecodeStatus::BadMagic);
}

TEST(ServeFrame, OversizedDeclaredLengthPoisons)
{
    std::string bytes = encodeFrame(FrameKind::Run, 9, "x");
    uint32_t huge = kMaxPayloadBytes + 1;
    bytes[6] = char(huge & 0xFF);
    bytes[7] = char((huge >> 8) & 0xFF);
    bytes[8] = char((huge >> 16) & 0xFF);
    bytes[9] = char((huge >> 24) & 0xFF);
    FrameDecoder dec;
    dec.feed(bytes);
    Frame out;
    std::string error;
    EXPECT_EQ(dec.next(out, &error), DecodeStatus::TooLarge);
    EXPECT_TRUE(dec.poisoned());
    EXPECT_EQ(dec.next(out, &error), DecodeStatus::TooLarge);
}

TEST(ServeFrame, CorruptedLengthDesynchronizesWithoutCrash)
{
    // A wrong-but-capped length makes the decoder mis-slice; the next
    // "frame" then starts at a garbage byte and poisons. No crash, no
    // over-read — that is the whole promise.
    std::string a = encodeFrame(FrameKind::Ping, 1, "aaaa");
    std::string b = encodeFrame(FrameKind::Ping, 2, "bbbb");
    a[6] = 2; // claim 2 payload bytes instead of 4
    FrameDecoder dec;
    dec.feed(a + b);
    Frame out;
    int ready = 0;
    for (int i = 0; i < 8; ++i)
        if (dec.next(out) == DecodeStatus::Ready)
            ++ready;
    EXPECT_TRUE(dec.poisoned());
    EXPECT_LE(ready, 2);
}

TEST(ServeFrame, KindNamesRoundTrip)
{
    for (uint8_t k = 0; k < 0xF0; ++k) {
        if (!frameKindKnown(k))
            continue;
        FrameKind parsed;
        ASSERT_TRUE(frameKindFromName(
            frameKindName(static_cast<FrameKind>(k)), parsed));
        EXPECT_EQ(uint8_t(parsed), k);
    }
    FrameKind dummy;
    EXPECT_FALSE(frameKindFromName("NOSUCH", dummy));
}

// ------------------------------------------------------------- protocol

TEST(ServeProtocol, RunRequestRoundTrip)
{
    RunRequest in;
    in.workload = "gemm";
    in.passes = "queue:4,fusion";
    in.maxCycles = 12345;
    in.deadlineMs = 400;
    in.graph = "accelerator gemm\nroot gemm\n";
    RunRequest out;
    std::string error;
    ASSERT_TRUE(parseRunRequest(renderRunRequest(in), out, &error))
        << error;
    EXPECT_EQ(out.workload, in.workload);
    EXPECT_EQ(out.passes, in.passes);
    EXPECT_EQ(out.maxCycles, in.maxCycles);
    EXPECT_EQ(out.deadlineMs, in.deadlineMs);
    EXPECT_EQ(out.graph, in.graph);
}

TEST(ServeProtocol, RunRequestRejectsJunk)
{
    RunRequest out;
    std::string error;
    EXPECT_FALSE(parseRunRequest("", out, &error));
    EXPECT_FALSE(parseRunRequest("walk workload=fib", out, &error));
    EXPECT_FALSE(parseRunRequest("run", out, &error));
    EXPECT_FALSE(parseRunRequest("run workload=", out, &error));
    EXPECT_FALSE(parseRunRequest("run workload=fib nosuch=1", out,
                                 &error));
    EXPECT_FALSE(parseRunRequest("run workload=fib max_cycles=abc",
                                 out, &error));
    EXPECT_FALSE(parseRunRequest(
        "run workload=fib deadline_ms=99999999999999999999", out,
        &error));
}

TEST(ServeProtocol, ReplyPayloadsRoundTrip)
{
    ErrorReply err{kErrParse, 17, "line 17: bad node kind"};
    ErrorReply err2;
    ASSERT_TRUE(parseErrorReply(renderErrorReply(err), err2));
    EXPECT_EQ(err2.code, err.code);
    EXPECT_EQ(err2.line, err.line);
    EXPECT_EQ(err2.message, err.message);

    ShedReply shed{"queue", 75};
    ShedReply shed2;
    ASSERT_TRUE(parseShedReply(renderShedReply(shed), shed2));
    EXPECT_EQ(shed2.reason, "queue");
    EXPECT_EQ(shed2.retryAfterMs, 75u);

    DeadlineReply dl{"cycle-budget", "watchdog: budget exceeded\n"};
    DeadlineReply dl2;
    ASSERT_TRUE(parseDeadlineReply(renderDeadlineReply(dl), dl2));
    EXPECT_EQ(dl2.reason, dl.reason);
    EXPECT_EQ(dl2.detail, dl.detail);
}

TEST(ServeProtocol, TraceStampRoundTripsAndStaysOffTheWireWhenUnset)
{
    RunRequest in;
    in.workload = "fib";
    // Unstamped requests render without the key at all — the rendered
    // bytes are identical to a pre-µtrace client's.
    EXPECT_EQ(renderRunRequest(in).find("trace="), std::string::npos);

    in.traceId = 0xDEADBEEFCAFE;
    std::string wire = renderRunRequest(in);
    EXPECT_NE(wire.find("trace="), std::string::npos);
    RunRequest out;
    std::string error;
    ASSERT_TRUE(parseRunRequest(wire, out, &error)) << error;
    EXPECT_EQ(out.traceId, in.traceId);

    // Hex stamps parse; zero and junk are rejected up front.
    ASSERT_TRUE(
        parseRunRequest("run workload=fib trace=0x2A", out, &error));
    EXPECT_EQ(out.traceId, 0x2Au);
    EXPECT_FALSE(
        parseRunRequest("run workload=fib trace=0", out, &error));
    EXPECT_FALSE(
        parseRunRequest("run workload=fib trace=junk", out, &error));
}

TEST(ServeProtocol, TraceRequestRoundTripsAndRejectsJunk)
{
    TraceRequest in;
    in.id = 0xABCD;
    in.limit = 5;
    TraceRequest out;
    std::string error;
    ASSERT_TRUE(parseTraceRequest(renderTraceRequest(in), out, &error))
        << error;
    EXPECT_EQ(out.id, in.id);
    EXPECT_EQ(out.limit, in.limit);

    ASSERT_TRUE(parseTraceRequest("trace", out, &error));
    EXPECT_EQ(out.id, 0u);
    EXPECT_EQ(out.limit, 0u);

    EXPECT_FALSE(parseTraceRequest("", out, &error));
    EXPECT_FALSE(parseTraceRequest("trace nosuch=1", out, &error));
    EXPECT_FALSE(parseTraceRequest("trace id=0", out, &error));
    EXPECT_FALSE(parseTraceRequest("trace limit=junk", out, &error));
}

// -------------------------------------------------------------- backoff

TEST(ServeBackoff, ScheduleIsDeterministicUnderFixedSeed)
{
    BackoffPolicy policy;
    policy.seed = 42;
    auto a = backoffSchedule(policy);
    auto b = backoffSchedule(policy);
    EXPECT_EQ(a, b);
    ASSERT_EQ(a.size(), size_t(policy.maxAttempts - 1));

    policy.seed = 43;
    EXPECT_NE(backoffSchedule(policy), a);
}

TEST(ServeBackoff, DelaysRespectTheCapAndGrowthEnvelope)
{
    BackoffPolicy policy;
    policy.baseMs = 10;
    policy.capMs = 100;
    policy.maxAttempts = 12;
    SplitMix64 rng(7);
    for (unsigned attempt = 0; attempt < 40; ++attempt) {
        uint64_t d = backoffDelayMs(policy, attempt, rng);
        uint64_t envelope =
            attempt < 63 ? std::min<uint64_t>(policy.capMs,
                                              policy.baseMs << attempt)
                         : policy.capMs;
        EXPECT_LE(d, envelope) << "attempt " << attempt;
    }
}

TEST(ServeBackoff, HugeAttemptIndexDoesNotOverflow)
{
    BackoffPolicy policy;
    SplitMix64 rng(1);
    for (unsigned attempt : {62u, 63u, 64u, 1000u}) {
        uint64_t d = backoffDelayMs(policy, attempt, rng);
        EXPECT_LE(d, policy.capMs);
    }
}

// ---------------------------------------------------------------- quota

TEST(ServeQuota, BurstThenRefillIsExact)
{
    TokenBucket bucket(10.0, 3.0); // 10/sec, burst 3
    EXPECT_TRUE(bucket.tryAcquire(0.0));
    EXPECT_TRUE(bucket.tryAcquire(0.0));
    EXPECT_TRUE(bucket.tryAcquire(0.0));
    EXPECT_FALSE(bucket.tryAcquire(0.0));
    EXPECT_NEAR(bucket.secondsUntilAvailable(0.0), 0.1, 1e-9);
    // 0.1s later one token has refilled; not two.
    EXPECT_TRUE(bucket.tryAcquire(0.1));
    EXPECT_FALSE(bucket.tryAcquire(0.1));
    // Idle long enough: capped at burst, not unbounded.
    for (int i = 0; i < 3; ++i)
        EXPECT_TRUE(bucket.tryAcquire(1000.0));
    EXPECT_FALSE(bucket.tryAcquire(1000.0));
}

TEST(ServeQuota, TimeNeverFlowsBackwards)
{
    TokenBucket bucket(10.0, 1.0);
    EXPECT_TRUE(bucket.tryAcquire(5.0));
    EXPECT_FALSE(bucket.tryAcquire(1.0)); // clock went backwards
    EXPECT_TRUE(bucket.tryAcquire(5.2));
}

TEST(ServeQuota, TableIsolatesClients)
{
    QuotaTable table(1.0, 1.0);
    EXPECT_TRUE(table.tryAcquire("alice", 0.0));
    EXPECT_FALSE(table.tryAcquire("alice", 0.0));
    EXPECT_TRUE(table.tryAcquire("bob", 0.0));
    EXPECT_GE(table.retryAfterMs("alice", 0.0), 1u);
}

// ---------------------------------------------------------------- cache

TEST(ServeCache, CompileOnceAndErrorsAreCachedToo)
{
    DesignCache cache(8);
    RunRequest req;
    req.workload = "fib";
    auto a = cache.lookup(req);
    auto b = cache.lookup(req);
    ASSERT_TRUE(a->ok());
    EXPECT_EQ(a.get(), b.get()) << "same key must share one design";
    EXPECT_EQ(cache.misses(), 1u);
    EXPECT_EQ(cache.hits(), 1u);

    RunRequest bad = req;
    bad.graph = "this is not a graph\n";
    auto c = cache.lookup(bad);
    auto d = cache.lookup(bad);
    EXPECT_FALSE(c->ok());
    EXPECT_EQ(c->error.code, kErrParse);
    EXPECT_EQ(c.get(), d.get()) << "failures are compile-once too";
}

TEST(ServeCache, DistinctKeysForWorkloadPassesGraph)
{
    RunRequest a, b;
    a.workload = "fib";
    b.workload = "fib";
    b.passes = "queue:4";
    EXPECT_NE(designKey(a), designKey(b));
    b.passes.clear();
    b.graph = "x";
    EXPECT_NE(designKey(a), designKey(b));
    // The '\0' separators keep field contents from bleeding together.
    RunRequest c, d;
    c.workload = "ab";
    d.workload = "a";
    d.passes = "b";
    EXPECT_NE(designKey(c), designKey(d));
}

TEST(ServeCache, OversizedGraphIsARecoverableError)
{
    RunRequest req;
    req.workload = "fib";
    req.graph.assign(uir::kMaxSerializedBytes + 1, '#');
    auto design = DesignCache(2).lookup(req);
    ASSERT_FALSE(design->ok());
    EXPECT_EQ(design->error.code, kErrTooLarge);
}

/** The twelve timing variants serve_sweep asks of @p workload: queue
 *  depths with bank counts, and tile counts on the Cilk msort. */
std::vector<std::string>
sweepVariants(const std::string &workload)
{
    std::vector<std::string> out;
    for (unsigned q : {2u, 4u, 8u}) {
        if (workload == "msort") {
            for (unsigned t : {2u, 4u})
                for (unsigned b : {2u, 4u})
                    out.push_back(fmt("queue:%u,tile:%u,bank:%u,fusion", q,
                                      t, b));
        } else {
            for (unsigned b : {1u, 2u, 4u, 8u})
                out.push_back(
                    fmt("queue:%u,localize,bank:%u,fusion", q, b));
        }
    }
    return out;
}

/** The OK payload a worker sends for @p design. */
std::string
okPayload(const CompiledDesign &design)
{
    workloads::RunOptions ro;
    ro.watchdog = true;
    ro.maxCycles = 1000000000ull;
    ro.compiled = design.compiled.get();
    return canonicalResult(
        workloads::runOn(design.workload, *design.accel, ro));
}

TEST(ServeCache, TimingVariantsRecordOncePerDataflow)
{
    // Every variant is a design miss, but only a program's first one
    // executes and records: the rest retarget its record, under a
    // compile.retarget span, and answer byte for byte what a cache
    // that records every design answers.
    DesignCache cache(64);
    trace::TracerOptions topts;
    topts.sampleRate = 1.0;
    trace::Tracer tracer(topts);
    uint64_t designs = 0;
    for (const std::string workload : {"2mm", "msort"}) {
        for (const std::string &passes : sweepVariants(workload)) {
            RunRequest req;
            req.workload = workload;
            req.passes = passes;
            auto t = tracer.begin("lookup");
            uint64_t span = t->begin("compile");
            auto design = cache.lookup(req, t.get(), span);
            t->end(span);
            tracer.finish(t, trace::kOutcomeOk);
            ASSERT_TRUE(design->ok()) << workload << " " << passes;
            auto direct = DesignCache(1).lookup(req);
            EXPECT_EQ(okPayload(*design), okPayload(*direct))
                << workload << " " << passes;
        }
        designs += 12;
        EXPECT_EQ(cache.misses(), designs) << workload;
        EXPECT_EQ(cache.recordHits(), designs - designs / 12) << workload;
    }
    EXPECT_EQ(cache.hits(), 0u);
    std::map<std::string, unsigned> spans;
    for (const auto &data : tracer.recent())
        for (const trace::Span &span : data->spans)
            ++spans[span.name];
    EXPECT_EQ(spans["compile.record"], 2u);
    EXPECT_EQ(spans["compile.retarget"], 22u);
}

TEST(ServeCacheParallel, RacingMissesOfOneDataflowRecordOnce)
{
    // Eight workers miss on eight timing variants of one program at
    // once: one records, seven wait for it and retarget.
    const std::vector<std::string> variants = sweepVariants("2mm");
    DesignCache cache(64);
    constexpr unsigned kWorkers = 8;
    std::vector<std::shared_ptr<const CompiledDesign>> got(kWorkers);
    std::vector<std::thread> workers;
    for (unsigned w = 0; w < kWorkers; ++w)
        workers.emplace_back([&, w] {
            RunRequest req;
            req.workload = "2mm";
            req.passes = variants[w];
            got[w] = cache.lookup(req);
        });
    for (auto &worker : workers)
        worker.join();
    EXPECT_EQ(cache.misses(), kWorkers);
    EXPECT_EQ(cache.recordHits(), kWorkers - 1);
    for (unsigned w = 0; w < kWorkers; ++w) {
        ASSERT_TRUE(got[w]->ok()) << variants[w];
        RunRequest req;
        req.workload = "2mm";
        req.passes = variants[w];
        EXPECT_EQ(okPayload(*got[w]),
                  okPayload(*DesignCache(1).lookup(req)))
            << variants[w];
    }
}

// ---------------------------------------------------------------- chaos

TEST(ServeChaos, MutationsAreDeterministicAndShaped)
{
    std::string frame = encodeFrame(FrameKind::Run, 5,
                                    "run workload=fib\n");
    for (unsigned op = 0; op < unsigned(ChaosOp::kCount); ++op) {
        SplitMix64 a(99), b(99);
        std::string m1 =
            applyChaos(frame, static_cast<ChaosOp>(op), a);
        std::string m2 =
            applyChaos(frame, static_cast<ChaosOp>(op), b);
        EXPECT_EQ(m1, m2) << chaosOpName(static_cast<ChaosOp>(op));
    }
    SplitMix64 rng(1);
    EXPECT_LT(applyChaos(frame, ChaosOp::TruncateFrame, rng).size(),
              frame.size());
    SplitMix64 rng2(1);
    std::string magic = applyChaos(frame, ChaosOp::CorruptMagic, rng2);
    EXPECT_NE(uint8_t(magic[0]), kFrameMagic);
    SplitMix64 rng3(1);
    std::string oversize =
        applyChaos(frame, ChaosOp::OversizeLength, rng3);
    FrameDecoder dec;
    dec.feed(oversize);
    Frame out;
    EXPECT_EQ(dec.next(out), DecodeStatus::TooLarge);
    // Payload corruption keeps the framing valid.
    SplitMix64 rng4(1);
    std::string corrupt =
        applyChaos(frame, ChaosOp::CorruptPayload, rng4);
    FrameDecoder dec2;
    dec2.feed(corrupt);
    EXPECT_EQ(dec2.next(out), DecodeStatus::Ready);
    EXPECT_NE(out.payload, "run workload=fib\n");
}

TEST(ServeChaos, PickRespectsPercentage)
{
    SplitMix64 rng(3);
    for (int i = 0; i < 100; ++i)
        EXPECT_EQ(pickChaosOp(0, rng), ChaosOp::None);
    SplitMix64 rng2(3);
    for (int i = 0; i < 100; ++i)
        EXPECT_NE(pickChaosOp(100, rng2), ChaosOp::None);
}

// ------------------------------------------------------- server harness

/** An in-process client: collects decoded reply frames from a sink. */
struct TestClient
{
    std::mutex mutex;
    std::condition_variable cv;
    std::vector<Frame> replies;
    FrameDecoder decoder;
    std::shared_ptr<Session> session;

    void
    attach(Server &server, const std::string &id)
    {
        session =
            server.openSession(id, [this](const std::string &bytes) {
                std::lock_guard<std::mutex> lock(mutex);
                decoder.feed(bytes);
                Frame f;
                while (decoder.next(f) == DecodeStatus::Ready)
                    replies.push_back(f);
                cv.notify_all();
            });
    }

    bool
    waitForReplies(size_t n, unsigned timeout_ms = 30000)
    {
        std::unique_lock<std::mutex> lock(mutex);
        return cv.wait_for(lock,
                           std::chrono::milliseconds(timeout_ms),
                           [&] { return replies.size() >= n; });
    }

    Frame
    reply(size_t i)
    {
        std::lock_guard<std::mutex> lock(mutex);
        return replies.at(i);
    }

    size_t
    replyCount()
    {
        std::lock_guard<std::mutex> lock(mutex);
        return replies.size();
    }
};

std::string
directCanonical(const std::string &workload, const std::string &passes,
                uint64_t max_cycles)
{
    RunRequest req;
    req.workload = workload;
    req.passes = passes;
    DesignCache cache(2);
    auto design = cache.lookup(req);
    EXPECT_TRUE(design->ok());
    workloads::RunOptions ro;
    ro.watchdog = true;
    ro.maxCycles = max_cycles;
    return canonicalResult(
        workloads::runOn(design->workload, *design->accel, ro));
}

TEST(ServeServer, OkRepliesAreByteIdenticalToDirectRunsAtAnyJobs)
{
    // The hard invariant: the daemon is a transport, not a transform.
    // Same design, same canonical bytes, whether the server runs one
    // worker or eight.
    std::string fib_direct = directCanonical("fib", "", 1000000000ull);
    std::string relu_direct =
        directCanonical("relu", "queue:4", 1000000000ull);

    for (unsigned jobs : {1u, 8u}) {
        ServerOptions options;
        options.jobs = jobs;
        Server server(options);
        TestClient client;
        client.attach(server, "equiv");

        RunRequest fib;
        fib.workload = "fib";
        RunRequest relu;
        relu.workload = "relu";
        relu.passes = "queue:4";
        // Several in flight at once so jobs=8 genuinely interleaves.
        for (uint32_t tag = 1; tag <= 6; ++tag)
            ASSERT_TRUE(server.feed(
                client.session,
                encodeFrame(FrameKind::Run, tag,
                            renderRunRequest(tag % 2 ? fib : relu))));
        ASSERT_TRUE(client.waitForReplies(6));
        server.drain(10000);
        server.stop();

        for (size_t i = 0; i < 6; ++i) {
            Frame reply = client.reply(i);
            ASSERT_EQ(reply.kindEnum(), FrameKind::Ok)
                << "jobs=" << jobs << " payload: " << reply.payload;
            EXPECT_EQ(reply.payload,
                      reply.tag % 2 ? fib_direct : relu_direct)
                << "jobs=" << jobs << " tag=" << reply.tag;
        }
    }
}

TEST(ServeServer, MalformedBytesKillOnlyTheirOwnConnection)
{
    Server server;
    TestClient evil, good;
    evil.attach(server, "evil");
    good.attach(server, "good");

    EXPECT_FALSE(server.feed(evil.session, "garbage garbage garbage"));
    ASSERT_TRUE(evil.waitForReplies(1));
    EXPECT_EQ(evil.reply(0).kindEnum(), FrameKind::Error);
    ErrorReply err;
    ASSERT_TRUE(parseErrorReply(evil.reply(0).payload, err));
    EXPECT_EQ(err.code, kErrBadFrame);
    EXPECT_TRUE(evil.session->dead());
    // Once dead, further bytes are refused outright.
    EXPECT_FALSE(
        server.feed(evil.session, encodeFrame(FrameKind::Ping, 1, "")));

    // The daemon itself is unharmed: another session works fine.
    RunRequest req;
    req.workload = "fib";
    ASSERT_TRUE(server.feed(
        good.session,
        encodeFrame(FrameKind::Run, 1, renderRunRequest(req))));
    ASSERT_TRUE(good.waitForReplies(1));
    EXPECT_EQ(good.reply(0).kindEnum(), FrameKind::Ok);
    server.drain(10000);
}

TEST(ServeServer, UnknownFrameKindIsRecoverable)
{
    Server server;
    TestClient client;
    client.attach(server, "c");
    Frame odd;
    odd.kind = 0x55; // not a defined kind, but the frame is well-formed
    odd.tag = 9;
    EXPECT_TRUE(server.feed(client.session, encodeFrame(odd)));
    ASSERT_TRUE(client.waitForReplies(1));
    EXPECT_EQ(client.reply(0).kindEnum(), FrameKind::Error);
    // The stream stays usable: a PING after the junk still pongs.
    EXPECT_TRUE(server.feed(client.session,
                            encodeFrame(FrameKind::Ping, 10, "hi")));
    ASSERT_TRUE(client.waitForReplies(2));
    EXPECT_EQ(client.reply(1).kindEnum(), FrameKind::Pong);
    EXPECT_EQ(client.reply(1).payload, "hi");
}

TEST(ServeServer, StructuredErrorsForBadRequests)
{
    Server server;
    TestClient client;
    client.attach(server, "c");

    auto expectError = [&](uint32_t tag, const std::string &payload,
                           const char *code) {
        ASSERT_TRUE(server.feed(
            client.session,
            encodeFrame(FrameKind::Run, tag, payload)));
        ASSERT_TRUE(client.waitForReplies(tag));
        Frame reply = client.reply(tag - 1);
        ASSERT_EQ(reply.kindEnum(), FrameKind::Error) << payload;
        ErrorReply err;
        ASSERT_TRUE(parseErrorReply(reply.payload, err));
        EXPECT_EQ(err.code, code) << reply.payload;
    };

    expectError(1, "not a run line", kErrBadRequest);
    expectError(2, "run workload=nosuchworkload", kErrUnknownWorkload);
    RunRequest bad_graph;
    bad_graph.workload = "fib";
    bad_graph.graph = "accelerator fib\nnonsense line here\n";
    expectError(3, renderRunRequest(bad_graph), kErrParse);
    RunRequest bad_passes;
    bad_passes.workload = "fib";
    bad_passes.passes = "nosuchpass";
    expectError(4, renderRunRequest(bad_passes), kErrPipeline);
}

TEST(ServeServer, QuotaShedsWithRetryHint)
{
    ServerOptions options;
    options.quotaRate = 0.5; // one token every 2s
    options.quotaBurst = 1.0;
    Server server(options);
    TestClient client;
    client.attach(server, "greedy");

    RunRequest req;
    req.workload = "fib";
    std::string payload = renderRunRequest(req);
    ASSERT_TRUE(server.feed(client.session,
                            encodeFrame(FrameKind::Run, 1, payload)));
    ASSERT_TRUE(server.feed(client.session,
                            encodeFrame(FrameKind::Run, 2, payload)));
    ASSERT_TRUE(client.waitForReplies(2));
    server.drain(10000);

    // First request admitted (burst token), second shed with a hint.
    int ok = 0, shed = 0;
    for (size_t i = 0; i < 2; ++i) {
        Frame reply = client.reply(i);
        if (reply.kindEnum() == FrameKind::Ok)
            ++ok;
        if (reply.kindEnum() == FrameKind::Shed) {
            ++shed;
            ShedReply s;
            ASSERT_TRUE(parseShedReply(reply.payload, s));
            EXPECT_EQ(s.reason, "quota");
            EXPECT_GE(s.retryAfterMs, 1u);
        }
    }
    EXPECT_EQ(ok, 1);
    EXPECT_EQ(shed, 1);
}

TEST(ServeServer, FullQueueShedsAndDeadlinesExpireInQueue)
{
    ServerOptions options;
    options.jobs = 1;
    options.queueCapacity = 1;
    options.allowWorkDelay = true;
    Server server(options);
    TestClient client;
    client.attach(server, "c");

    // Request 1 stalls the only worker; once it is in flight, request
    // 2 (deadline 1ms) fills the queue and request 3 must shed.
    RunRequest stall;
    stall.workload = "fib";
    stall.workDelayMs = 300;
    ASSERT_TRUE(server.feed(
        client.session,
        encodeFrame(FrameKind::Run, 1, renderRunRequest(stall))));
    for (int spin = 0; spin < 2000 && server.inFlight() == 0; ++spin)
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
    ASSERT_EQ(server.inFlight(), 1u);

    RunRequest dated;
    dated.workload = "fib";
    dated.deadlineMs = 1;
    ASSERT_TRUE(server.feed(
        client.session,
        encodeFrame(FrameKind::Run, 2, renderRunRequest(dated))));
    RunRequest extra;
    extra.workload = "fib";
    ASSERT_TRUE(server.feed(
        client.session,
        encodeFrame(FrameKind::Run, 3, renderRunRequest(extra))));

    ASSERT_TRUE(client.waitForReplies(3));
    server.drain(10000);

    std::map<uint32_t, FrameKind> kinds;
    for (size_t i = 0; i < 3; ++i)
        kinds[client.reply(i).tag] = client.reply(i).kindEnum();
    EXPECT_EQ(kinds[1], FrameKind::Ok);
    ASSERT_EQ(kinds[2], FrameKind::Deadline);
    EXPECT_EQ(kinds[3], FrameKind::Shed);
    for (size_t i = 0; i < 3; ++i) {
        Frame reply = client.reply(i);
        if (reply.tag == 2) {
            DeadlineReply dl;
            ASSERT_TRUE(parseDeadlineReply(reply.payload, dl));
            EXPECT_EQ(dl.reason, "queue-wait");
        }
        if (reply.tag == 3) {
            ShedReply s;
            ASSERT_TRUE(parseShedReply(reply.payload, s));
            EXPECT_EQ(s.reason, "queue");
        }
    }
}

TEST(ServeServer, InfeasibleDeadlineRejectedAtAdmission)
{
    ServerOptions options;
    options.jobs = 1;
    options.allowWorkDelay = true;
    Server server(options);
    TestClient client;
    client.attach(server, "c");

    // Prime the service-time estimate with a deliberately slow run.
    RunRequest slow;
    slow.workload = "fib";
    slow.workDelayMs = 120;
    ASSERT_TRUE(server.feed(
        client.session,
        encodeFrame(FrameKind::Run, 1, renderRunRequest(slow))));
    ASSERT_TRUE(client.waitForReplies(1));
    ASSERT_EQ(client.reply(0).kindEnum(), FrameKind::Ok);

    // A 1ms deadline can never beat a ~120ms typical service time:
    // rejected up front, no worker burned.
    RunRequest infeasible;
    infeasible.workload = "fib";
    infeasible.deadlineMs = 1;
    ASSERT_TRUE(server.feed(
        client.session,
        encodeFrame(FrameKind::Run, 2, renderRunRequest(infeasible))));
    ASSERT_TRUE(client.waitForReplies(2));
    Frame reply = client.reply(1);
    ASSERT_EQ(reply.kindEnum(), FrameKind::Deadline);
    DeadlineReply dl;
    ASSERT_TRUE(parseDeadlineReply(reply.payload, dl));
    EXPECT_EQ(dl.reason, "admission");
    server.drain(10000);
}

TEST(ServeServer, CycleBudgetTripsTheWatchdogDeterministically)
{
    Server server;
    TestClient client;
    client.attach(server, "c");
    RunRequest req;
    req.workload = "gemm";
    req.maxCycles = 10;
    ASSERT_TRUE(server.feed(
        client.session,
        encodeFrame(FrameKind::Run, 1, renderRunRequest(req))));
    ASSERT_TRUE(client.waitForReplies(1));
    Frame reply = client.reply(0);
    ASSERT_EQ(reply.kindEnum(), FrameKind::Deadline);
    DeadlineReply dl;
    ASSERT_TRUE(parseDeadlineReply(reply.payload, dl));
    EXPECT_EQ(dl.reason, "cycle-budget");
    EXPECT_NE(dl.detail.find("budget"), std::string::npos)
        << "the watchdog's root-cause dump must ride along";
    server.drain(10000);
}

TEST(ServeServer, DrainShedsNewWorkAndResolvesEverythingAdmitted)
{
    ServerOptions options;
    options.jobs = 1;
    options.allowWorkDelay = true;
    Server server(options);
    TestClient client;
    client.attach(server, "c");

    RunRequest slow;
    slow.workload = "fib";
    slow.workDelayMs = 100;
    for (uint32_t tag = 1; tag <= 3; ++tag)
        ASSERT_TRUE(server.feed(
            client.session,
            encodeFrame(FrameKind::Run, tag, renderRunRequest(slow))));
    server.beginDrain();

    // Post-drain RUNs shed with reason "drain"...
    RunRequest late;
    late.workload = "fib";
    ASSERT_TRUE(server.feed(
        client.session,
        encodeFrame(FrameKind::Run, 4, renderRunRequest(late))));
    // ...while control frames still work.
    ASSERT_TRUE(server.feed(client.session,
                            encodeFrame(FrameKind::Ping, 5, "")));

    EXPECT_TRUE(server.drain(30000));
    ASSERT_TRUE(client.waitForReplies(5));
    EXPECT_EQ(server.queueDepth(), 0u);
    EXPECT_EQ(server.inFlight(), 0u);

    std::map<uint32_t, FrameKind> kinds;
    for (size_t i = 0; i < client.replyCount(); ++i)
        kinds[client.reply(i).tag] = client.reply(i).kindEnum();
    EXPECT_EQ(kinds[1], FrameKind::Ok);
    EXPECT_EQ(kinds[2], FrameKind::Ok);
    EXPECT_EQ(kinds[3], FrameKind::Ok);
    ASSERT_EQ(kinds[4], FrameKind::Shed);
    EXPECT_EQ(kinds[5], FrameKind::Pong);
}

TEST(ServeServer, ExpiredDrainBudgetStillResolvesEveryRequest)
{
    ServerOptions options;
    options.jobs = 1;
    options.allowWorkDelay = true;
    Server server(options);
    TestClient client;
    client.attach(server, "c");

    RunRequest slow;
    slow.workload = "fib";
    slow.workDelayMs = 200;
    for (uint32_t tag = 1; tag <= 4; ++tag)
        ASSERT_TRUE(server.feed(
            client.session,
            encodeFrame(FrameKind::Run, tag, renderRunRequest(slow))));

    // A 1ms budget cannot cover ~800ms of queued work: drain reports
    // false, but every request still resolves (queued ones as
    // DEADLINE reason=drain), and the queue ends empty.
    EXPECT_FALSE(server.drain(1));
    ASSERT_TRUE(client.waitForReplies(4));
    EXPECT_EQ(server.queueDepth(), 0u);
    unsigned ok = 0, drained = 0;
    for (size_t i = 0; i < 4; ++i) {
        Frame reply = client.reply(i);
        if (reply.kindEnum() == FrameKind::Ok) {
            ++ok;
        } else {
            ASSERT_EQ(reply.kindEnum(), FrameKind::Deadline);
            DeadlineReply dl;
            ASSERT_TRUE(parseDeadlineReply(reply.payload, dl));
            EXPECT_EQ(dl.reason, "drain");
            ++drained;
        }
    }
    EXPECT_EQ(ok + drained, 4u);
    EXPECT_GE(drained, 1u);
}

TEST(ServeServer, ShutdownFrameDrainsAndAcknowledges)
{
    Server server;
    TestClient client;
    client.attach(server, "c");
    EXPECT_FALSE(server.shutdownRequested());
    ASSERT_TRUE(server.feed(client.session,
                            encodeFrame(FrameKind::Shutdown, 1, "")));
    ASSERT_TRUE(client.waitForReplies(1));
    EXPECT_EQ(client.reply(0).kindEnum(), FrameKind::Bye);
    EXPECT_TRUE(server.shutdownRequested());
    EXPECT_TRUE(server.draining());
}

TEST(ServeServer, StatsReplyHasTheStableSchema)
{
    Server server;
    TestClient client;
    client.attach(server, "c");
    ASSERT_TRUE(server.feed(client.session,
                            encodeFrame(FrameKind::Stats, 1, "")));
    ASSERT_TRUE(client.waitForReplies(1));
    Frame reply = client.reply(0);
    ASSERT_EQ(reply.kindEnum(), FrameKind::StatsReply);
    for (const char *key :
         {"muir.serve.v1", "queue_depth", "serve.accepted",
          "serve.shed.quota", "serve.deadline.cycle-budget",
          "cache_hits", "record_hits", "\"trace\":{\"started\"",
          "latency",
          "p99_us"})
        EXPECT_NE(reply.payload.find(key), std::string::npos) << key;
}

// ------------------------------------------------------ µtrace in vivo

TEST(ServeTrace, OkRepliesStayByteIdenticalWithTracingFullyOn)
{
    // The observational-guard contract from the other side: sampling
    // every request, with a slow threshold and logging active, must
    // not move a single reply byte.
    std::string fib_direct = directCanonical("fib", "", 1000000000ull);

    ServerOptions options;
    options.jobs = 2;
    options.traceSampleRate = 1.0;
    options.traceSlowUs = 1;
    slog::Logger logger;
    options.logger = &logger;
    Server server(options);
    TestClient client;
    client.attach(server, "traced");

    RunRequest fib;
    fib.workload = "fib";
    for (uint32_t tag = 1; tag <= 4; ++tag)
        ASSERT_TRUE(server.feed(
            client.session,
            encodeFrame(FrameKind::Run, tag, renderRunRequest(fib))));
    ASSERT_TRUE(client.waitForReplies(4));
    server.drain(10000);
    server.stop();

    for (size_t i = 0; i < 4; ++i) {
        Frame reply = client.reply(i);
        ASSERT_EQ(reply.kindEnum(), FrameKind::Ok) << reply.payload;
        EXPECT_EQ(reply.payload, fib_direct);
    }
    EXPECT_EQ(server.tracer().started(), 4u);
    EXPECT_EQ(server.tracer().retained(), 4u);
    EXPECT_GE(logger.emitted(), 4u);
}

TEST(ServeTrace, TraceReplyCarriesTheFullRequestStory)
{
    // A stamped request is traced even at sample rate 0, and the
    // TRACE document partitions its wall time across the stage chain.
    Server server;
    TestClient client;
    client.attach(server, "c");

    RunRequest req;
    req.workload = "fib";
    req.traceId = 0x5150;
    ASSERT_TRUE(server.feed(
        client.session,
        encodeFrame(FrameKind::Run, 1, renderRunRequest(req))));
    ASSERT_TRUE(client.waitForReplies(1));
    ASSERT_EQ(client.reply(0).kindEnum(), FrameKind::Ok);

    TraceRequest want;
    want.id = 0x5150;
    ASSERT_TRUE(server.feed(
        client.session,
        encodeFrame(FrameKind::Trace, 2, renderTraceRequest(want))));
    ASSERT_TRUE(client.waitForReplies(2));
    Frame reply = client.reply(1);
    ASSERT_EQ(reply.kindEnum(), FrameKind::TraceReply);
    EXPECT_NE(reply.payload.find("\"muir.trace.v1\""),
              std::string::npos);

    std::vector<trace::TraceData> traces;
    std::string error;
    ASSERT_TRUE(trace::tracesFromJson(reply.payload, traces, &error))
        << error;
    ASSERT_EQ(traces.size(), 1u);
    const trace::TraceData &data = traces[0];
    EXPECT_EQ(data.traceId, 0x5150u);
    EXPECT_EQ(data.outcome, trace::kOutcomeOk);
    EXPECT_EQ(data.retain, trace::kRetainStamped);
    EXPECT_NE(data.name.find("fib"), std::string::npos);
    // The stage chain partitions the request's wall time exactly.
    EXPECT_EQ(data.stageUs("admission") + data.stageUs("queue-wait") +
                  data.stageUs("compile") + data.stageUs("run"),
              data.durUs);
    // The cache verdict rides on the compile stage.
    bool saw_cache_attr = false;
    for (const trace::Span &span : data.spans)
        for (const auto &[key, value] : span.attrs)
            if (span.name == "compile" && key == "cache")
                saw_cache_attr = value == "miss";
    EXPECT_TRUE(saw_cache_attr);
    server.drain(10000);
}

TEST(ServeTrace, DeadlineReplyPartitionsTheWallTime)
{
    // The headline acceptance case: a queue-wait DEADLINE tells the
    // client exactly where the time went, stage by stage.
    ServerOptions options;
    options.jobs = 1;
    options.queueCapacity = 4;
    options.allowWorkDelay = true;
    Server server(options);
    TestClient client;
    client.attach(server, "c");

    RunRequest stall;
    stall.workload = "fib";
    stall.workDelayMs = 300;
    ASSERT_TRUE(server.feed(
        client.session,
        encodeFrame(FrameKind::Run, 1, renderRunRequest(stall))));
    for (int spin = 0; spin < 2000 && server.inFlight() == 0; ++spin)
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
    ASSERT_EQ(server.inFlight(), 1u);

    RunRequest dated;
    dated.workload = "fib";
    dated.deadlineMs = 1;
    dated.traceId = 0xD1;
    ASSERT_TRUE(server.feed(
        client.session,
        encodeFrame(FrameKind::Run, 2, renderRunRequest(dated))));
    ASSERT_TRUE(client.waitForReplies(2));
    server.drain(10000);

    Frame reply = client.reply(1);
    ASSERT_EQ(reply.kindEnum(), FrameKind::Deadline);
    DeadlineReply dl;
    ASSERT_TRUE(parseDeadlineReply(reply.payload, dl));
    EXPECT_EQ(dl.reason, "queue-wait");
    EXPECT_NE(dl.detail.find("trace id=0x00000000000000d1"),
              std::string::npos)
        << dl.detail;
    for (const char *stage : {"admission_us=", "queue_us=",
                              "compile_us=", "run_us="})
        EXPECT_NE(dl.detail.find(stage), std::string::npos)
            << dl.detail;

    // The trace the breakdown line was derived from is retained, and
    // its stages sum to its total.
    auto traces = server.tracer().recent(0, 0xD1);
    ASSERT_EQ(traces.size(), 1u);
    EXPECT_EQ(traces[0]->outcome, trace::kOutcomeDeadline);
    EXPECT_EQ(traces[0]->stageUs("admission") +
                  traces[0]->stageUs("queue-wait"),
              traces[0]->durUs);
    server.stop();
}

TEST(ServeTrace, BadTraceRequestGetsAStructuredError)
{
    Server server;
    TestClient client;
    client.attach(server, "c");
    ASSERT_TRUE(server.feed(
        client.session,
        encodeFrame(FrameKind::Trace, 1, "trace nosuch=1")));
    ASSERT_TRUE(client.waitForReplies(1));
    Frame reply = client.reply(0);
    ASSERT_EQ(reply.kindEnum(), FrameKind::Error);
    ErrorReply err;
    ASSERT_TRUE(parseErrorReply(reply.payload, err));
    EXPECT_EQ(err.code, kErrBadRequest);
}

TEST(ServeTrace, UntracedRunsTakeNoDecisionAtAll)
{
    // Tracing off + unstamped: the tracer must never even start a
    // trace — the no-overhead path the byte-identity guard rides on.
    Server server;
    TestClient client;
    client.attach(server, "c");
    RunRequest req;
    req.workload = "fib";
    ASSERT_TRUE(server.feed(
        client.session,
        encodeFrame(FrameKind::Run, 1, renderRunRequest(req))));
    ASSERT_TRUE(client.waitForReplies(1));
    ASSERT_EQ(client.reply(0).kindEnum(), FrameKind::Ok);
    server.drain(10000);
    EXPECT_EQ(server.tracer().started(), 0u);
    EXPECT_EQ(server.tracer().recent().size(), 0u);
}

// The TSan job runs everything matching "Serve": this one is the
// dedicated multi-client hammer — concurrent sessions, shared cache,
// mixed request kinds, every request answered exactly once.
TEST(ServeConcurrency, ManyClientsManyRequestsEveryOneResolves)
{
    ServerOptions options;
    options.jobs = 4;
    options.queueCapacity = 256;
    options.quotaRate = 10000.0;
    options.quotaBurst = 10000.0;
    Server server(options);

    constexpr unsigned kClients = 4;
    constexpr unsigned kPerClient = 12;
    std::vector<std::unique_ptr<TestClient>> clients;
    for (unsigned c = 0; c < kClients; ++c) {
        clients.push_back(std::make_unique<TestClient>());
        clients.back()->attach(server, fmt("client-%u", c));
    }

    std::vector<std::thread> feeders;
    for (unsigned c = 0; c < kClients; ++c) {
        feeders.emplace_back([&, c] {
            TestClient &client = *clients[c];
            for (unsigned i = 0; i < kPerClient; ++i) {
                uint32_t tag = i + 1;
                std::string bytes;
                switch (i % 4) {
                  case 0: {
                    RunRequest req;
                    req.workload = "fib";
                    bytes = encodeFrame(FrameKind::Run, tag,
                                        renderRunRequest(req));
                    break;
                  }
                  case 1: {
                    RunRequest req;
                    req.workload = "relu";
                    req.passes = "queue:4";
                    bytes = encodeFrame(FrameKind::Run, tag,
                                        renderRunRequest(req));
                    break;
                  }
                  case 2:
                    bytes = encodeFrame(FrameKind::Ping, tag, "x");
                    break;
                  default:
                    bytes = encodeFrame(FrameKind::Stats, tag, "");
                    break;
                }
                ASSERT_TRUE(server.feed(client.session, bytes));
            }
        });
    }
    for (std::thread &t : feeders)
        t.join();

    for (unsigned c = 0; c < kClients; ++c)
        ASSERT_TRUE(clients[c]->waitForReplies(kPerClient, 120000))
            << "client " << c << " got "
            << clients[c]->replyCount();
    server.drain(30000);
    server.stop();

    for (unsigned c = 0; c < kClients; ++c) {
        // Exactly one reply per tag; runs all OK (quota is wide open).
        std::map<uint32_t, unsigned> seen;
        for (size_t i = 0; i < clients[c]->replyCount(); ++i) {
            Frame reply = clients[c]->reply(i);
            ++seen[reply.tag];
            if (reply.tag % 4 == 1 || reply.tag % 4 == 2) {
                EXPECT_EQ(reply.kindEnum(), FrameKind::Ok)
                    << reply.payload;
            }
        }
        EXPECT_EQ(seen.size(), kPerClient);
        for (const auto &[tag, count] : seen)
            EXPECT_EQ(count, 1u) << "tag " << tag;
    }
}

// A seeded chaos barrage: whatever bytes arrive, the daemon never
// crashes, never wedges, and clean sessions keep working afterwards.
TEST(ServeConcurrency, ChaosBytesNeverWedgeTheDaemon)
{
    Server server;
    SplitMix64 rng(2024);
    RunRequest req;
    req.workload = "fib";
    std::string good = encodeFrame(FrameKind::Run, 1,
                                   renderRunRequest(req));
    for (unsigned round = 0; round < 200; ++round) {
        TestClient chaos_client;
        chaos_client.attach(server, fmt("chaos-%u", round));
        ChaosOp op = static_cast<ChaosOp>(
            1 + rng.below(uint64_t(ChaosOp::kCount) - 1));
        server.feed(chaos_client.session, applyChaos(good, op, rng));
    }
    // The daemon took 200 rounds of hostile bytes; a clean client
    // still gets a clean answer.
    TestClient client;
    client.attach(server, "survivor");
    ASSERT_TRUE(server.feed(client.session, good));
    ASSERT_TRUE(client.waitForReplies(1));
    EXPECT_EQ(client.reply(0).kindEnum(), FrameKind::Ok);
    server.drain(30000);
}

// --------------------------------------------------------------- client

/** A scripted Channel: replays canned replies, records sends. */
struct FakeChannel : Channel
{
    std::vector<Frame> script;
    size_t cursor = 0;
    unsigned sends = 0;
    bool resettable = false;
    unsigned resets = 0;

    bool
    send(const std::string &, std::string *) override
    {
        ++sends;
        return true;
    }

    bool
    recv(Frame &out, std::string *error) override
    {
        if (cursor >= script.size()) {
            if (error)
                *error = "scripted transport failure";
            return false;
        }
        out = script[cursor++];
        return true;
    }

    bool
    reset(std::string *) override
    {
        ++resets;
        return resettable;
    }
};

Frame
makeReply(FrameKind kind, const std::string &payload)
{
    Frame f;
    f.kind = uint8_t(kind);
    f.payload = payload;
    return f;
}

TEST(ServeClient, RetriesShedThenSucceeds)
{
    FakeChannel channel;
    channel.script = {
        makeReply(FrameKind::Shed, renderShedReply({"queue", 30})),
        makeReply(FrameKind::Shed, renderShedReply({"queue", 30})),
        makeReply(FrameKind::Ok, "cycles=1\n"),
    };
    ClientOptions options;
    options.backoff.seed = 5;
    std::vector<uint64_t> slept;
    options.sleeper = [&](uint64_t ms) { slept.push_back(ms); };
    Client client(channel, options);
    CallOutcome outcome = client.call(FrameKind::Run, "payload");
    EXPECT_TRUE(outcome.ok());
    EXPECT_EQ(outcome.attempts, 3u);
    ASSERT_EQ(slept.size(), 2u);
    // The shed retry hint floors the jittered backoff.
    for (uint64_t ms : slept)
        EXPECT_GE(ms, 30u);
}

TEST(ServeClient, NeverRetriesErrorOrDeadline)
{
    for (FrameKind kind : {FrameKind::Error, FrameKind::Deadline}) {
        FakeChannel channel;
        channel.script = {makeReply(kind, "final answer")};
        ClientOptions options;
        unsigned naps = 0;
        options.sleeper = [&](uint64_t) { ++naps; };
        Client client(channel, options);
        CallOutcome outcome = client.call(FrameKind::Run, "x");
        EXPECT_TRUE(outcome.transportOk);
        EXPECT_EQ(outcome.attempts, 1u);
        EXPECT_EQ(outcome.reply.kindEnum(), kind);
        EXPECT_EQ(naps, 0u);
    }
}

TEST(ServeClient, TransportFailureRetriesOnlyWithReset)
{
    // No reset available: one attempt, transport error surfaces.
    {
        FakeChannel channel;
        ClientOptions options;
        options.sleeper = [](uint64_t) {};
        Client client(channel, options);
        CallOutcome outcome = client.call(FrameKind::Run, "x");
        EXPECT_FALSE(outcome.transportOk);
        EXPECT_EQ(outcome.attempts, 1u);
        EXPECT_FALSE(outcome.error.empty());
    }
    // Resettable channel that keeps failing: the client burns every
    // attempt, resetting after each, then reports the transport error.
    {
        FakeChannel channel;
        channel.resettable = true;
        ClientOptions options;
        options.sleeper = [](uint64_t) {};
        Client client(channel, options);
        CallOutcome outcome = client.call(FrameKind::Run, "x");
        EXPECT_FALSE(outcome.transportOk);
        EXPECT_EQ(outcome.attempts, options.backoff.maxAttempts);
        EXPECT_EQ(channel.resets, options.backoff.maxAttempts);
    }
}

TEST(ServeClient, DelayScheduleMatchesThePolicyUnderFixedSeed)
{
    BackoffPolicy policy;
    policy.seed = 11;
    policy.maxAttempts = 4;
    auto expected = backoffSchedule(policy);

    FakeChannel channel;
    std::string forever_shed = renderShedReply({"queue", 0});
    for (unsigned i = 0; i < policy.maxAttempts; ++i)
        channel.script.push_back(
            makeReply(FrameKind::Shed, forever_shed));
    ClientOptions options;
    options.backoff = policy;
    options.sleeper = [](uint64_t) {};
    Client client(channel, options);
    CallOutcome outcome = client.call(FrameKind::Run, "x");
    EXPECT_TRUE(outcome.transportOk);
    EXPECT_EQ(outcome.reply.kindEnum(), FrameKind::Shed);
    EXPECT_EQ(outcome.attempts, policy.maxAttempts);
    EXPECT_EQ(client.delaysTaken(), expected)
        << "same seed, same schedule — determinism is the contract";
}

} // namespace
