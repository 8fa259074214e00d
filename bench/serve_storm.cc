/**
 * @file
 * µserve storm driver: the adversarial validation harness behind the
 * daemon's robustness claims. A seeded fleet of in-process clients
 * hammers one Server with mixed traffic — well-formed runs across
 * several designs, hostile requests (unknown workloads, graphs that do
 * not parse, junk pass specs), deadline-doomed runs, artificially slow
 * runs, chaos-mutated wire bytes, and clients that vanish mid-request
 * — and then audits the invariants:
 *
 *  - the daemon never crashes or wedges (the storm completing IS the
 *    assertion, under the same wall-clock guard as every bench);
 *  - every well-formed request resolves to exactly one of
 *    OK / ERROR / SHED / DEADLINE — no silence, no duplicates;
 *  - OK payloads are byte-identical to a direct in-process run of the
 *    same design (the daemon is a transport, not a transform);
 *  - OK replies come from each design's cached OK reply, and only the
 *    budget-limited requests replay.
 *
 * Everything is seeded (SplitMix64), so a failing storm replays
 * exactly. Results go to BENCH_serve_storm.json: reply mix, throughput
 * and p50/p95/p99 admission-to-reply latency.
 */
#include "common.hh"

#include <algorithm>
#include <atomic>
#include <cstring>
#include <map>
#include <thread>

#include "serve/chaos.hh"
#include "serve/frame.hh"
#include "serve/protocol.hh"
#include "serve/server.hh"
#include "support/rng.hh"

using namespace muir;
using namespace muir::serve;

namespace
{

/** One storm client: a session, its reply log, and its expectations. */
struct StormClient
{
    std::shared_ptr<Session> session;
    std::mutex mutex;
    FrameDecoder decoder;
    /** tag -> (reply kind, payload, completion time). */
    std::map<uint32_t, std::pair<uint8_t, std::string>> replies;
    std::map<uint32_t, double> doneSec;
    /** tag -> send time, for latency; only well-formed requests. */
    std::map<uint32_t, double> sentSec;
    /** tag -> expected canonical payload (byte-equivalence audit). */
    std::map<uint32_t, const std::string *> expected;
    /** After this flag the client "disconnected": replies discarded. */
    std::atomic<bool> gone{false};
    unsigned wellFormedSent = 0;
};

double
nowSec(std::chrono::steady_clock::time_point epoch)
{
    std::chrono::duration<double> d =
        std::chrono::steady_clock::now() - epoch;
    return d.count();
}

uint64_t
percentileUs(std::vector<uint64_t> &sorted_us, unsigned pct)
{
    if (sorted_us.empty())
        return 0;
    size_t idx = (sorted_us.size() * pct) / 100;
    if (idx >= sorted_us.size())
        idx = sorted_us.size() - 1;
    return sorted_us[idx];
}

} // namespace

int
main(int argc, char **argv)
{
    bench::QuietLogs quiet;
    unsigned total_requests = 1200;
    unsigned clients_n = 6;
    uint64_t seed = 2026;
    for (int i = 1; i < argc; ++i) {
        if (!std::strcmp(argv[i], "--requests") && i + 1 < argc)
            total_requests = unsigned(std::atoi(argv[++i]));
        else if (!std::strcmp(argv[i], "--seed") && i + 1 < argc)
            seed = uint64_t(std::atoll(argv[++i]));
    }

    // The wall-clock guard converts a wedged daemon into a named
    // failure instead of a CI-job timeout.
    bench::WallClockGuard::RunScope guard("serve_storm");

    // Direct-run goldens for the byte-equivalence audit.
    std::map<std::string, std::string> goldens;
    std::vector<std::pair<std::string, std::string>> designs = {
        {"fib", ""},
        {"relu", "queue:4"},
        {"saxpy", "queue,fusion"},
    };
    for (const auto &[name, passes] : designs) {
        RunRequest req;
        req.workload = name;
        req.passes = passes;
        DesignCache scratch(4);
        auto design = scratch.lookup(req);
        if (!design->ok())
            muir_fatal("storm golden '%s' failed to compile: %s",
                       name.c_str(), design->error.message.c_str());
        workloads::RunOptions ro;
        ro.watchdog = true;
        ro.maxCycles = 1000000000ull;
        goldens[name + "|" + passes] = canonicalResult(
            workloads::runOn(design->workload, *design->accel, ro));
    }

    ServerOptions options;
    options.jobs = 4;
    options.queueCapacity = 32;
    // Tight enough that the storm genuinely sheds, loose enough that
    // most well-formed traffic lands.
    options.quotaRate = 400.0;
    options.quotaBurst = 100.0;
    options.allowWorkDelay = true;
    // µtrace at half rate, seeded from the storm seed: the audit
    // below proves every resolved request took exactly one
    // sampled-or-dropped decision and no interesting trace was lost.
    options.traceSampleRate = 0.5;
    options.traceSeed = seed;
    options.traceRingCapacity = 64;
    Server server(options);

    auto epoch = std::chrono::steady_clock::now();
    auto makeSink = [epoch](StormClient &client) {
        return [&client, epoch](const std::string &b) {
            if (client.gone.load(std::memory_order_acquire))
                return; // disconnected mid-request: bytes vanish
            std::lock_guard<std::mutex> lock(client.mutex);
            client.decoder.feed(b);
            Frame f;
            while (client.decoder.next(f) == DecodeStatus::Ready) {
                client.replies[f.tag] = {f.kind, f.payload};
                client.doneSec[f.tag] = nowSec(epoch);
            }
        };
    };
    std::vector<std::unique_ptr<StormClient>> clients;
    for (unsigned c = 0; c < clients_n; ++c) {
        clients.push_back(std::make_unique<StormClient>());
        StormClient &client = *clients.back();
        client.session =
            server.openSession(fmt("storm-%u", c), makeSink(client));
    }

    unsigned per_client = (total_requests + clients_n - 1) / clients_n;
    std::atomic<unsigned> chaos_frames{0};
    std::atomic<unsigned> frames_fired{0};
    std::vector<std::thread> threads;
    for (unsigned c = 0; c < clients_n; ++c) {
        threads.emplace_back([&, c] {
            StormClient &client = *clients[c];
            SplitMix64 rng(seed + c);
            // Client 0 walks away two-thirds through its traffic —
            // the daemon must keep resolving its in-flight requests
            // into the void without blocking a worker.
            unsigned vanish_at =
                c == 0 ? (per_client * 2) / 3 : per_client + 1;
            // A chaos frame that truncates or corrupts a length
            // desynchronizes this client's stream without poisoning
            // it; everything after that is the client's own wreckage,
            // so only pre-chaos requests carry resolution guarantees.
            bool stream_trusted = true;
            for (unsigned i = 0; i < per_client; ++i) {
                if (i == vanish_at)
                    client.gone.store(true,
                                      std::memory_order_release);
                uint32_t tag = i + 1;
                uint64_t roll = rng.below(100);
                std::string bytes;
                bool well_formed = true;
                if (roll < 55) {
                    // Well-formed run over a cached design.
                    const auto &[name, passes] =
                        designs[rng.below(designs.size())];
                    RunRequest req;
                    req.workload = name;
                    req.passes = passes;
                    bytes = encodeFrame(FrameKind::Run, tag,
                                        renderRunRequest(req));
                    if (stream_trusted) {
                        std::lock_guard<std::mutex> lock(client.mutex);
                        client.expected[tag] =
                            &goldens[name + "|" + passes];
                    }
                } else if (roll < 65) {
                    // Deadline-doomed: a cycle budget no design meets.
                    RunRequest req;
                    req.workload = "gemm";
                    req.maxCycles = 10;
                    bytes = encodeFrame(FrameKind::Run, tag,
                                        renderRunRequest(req));
                } else if (roll < 72) {
                    // Artificially slow worker (chaos knob).
                    RunRequest req;
                    req.workload = "fib";
                    req.workDelayMs = 1 + rng.below(5);
                    bytes = encodeFrame(FrameKind::Run, tag,
                                        renderRunRequest(req));
                } else if (roll < 80) {
                    // Hostile but well-framed requests.
                    static const char *hostile[] = {
                        "run workload=nosuchworkload",
                        "run workload=fib passes=nosuchpass",
                        "run workload=fib\nthis graph does not parse",
                        "walk workload=fib",
                    };
                    bytes = encodeFrame(FrameKind::Run, tag,
                                        hostile[rng.below(4)]);
                } else if (roll < 88) {
                    bytes = rng.below(2)
                                ? encodeFrame(FrameKind::Ping, tag,
                                              "storm")
                                : encodeFrame(FrameKind::Stats, tag,
                                              "");
                } else if (c >= clients_n - 2) {
                    // The two adversarial clients interleave chaos-
                    // mutated wire bytes. May poison or desync their
                    // own stream; the daemon must shrug it off.
                    RunRequest req;
                    req.workload = "fib";
                    std::string clean = encodeFrame(
                        FrameKind::Run, tag, renderRunRequest(req));
                    ChaosOp op = static_cast<ChaosOp>(
                        1 + rng.below(
                                uint64_t(ChaosOp::kCount) - 1));
                    bytes = applyChaos(clean, op, rng);
                    well_formed = false;
                    stream_trusted = false;
                    chaos_frames.fetch_add(1);
                } else {
                    RunRequest req;
                    req.workload = "fib";
                    bytes = encodeFrame(FrameKind::Run, tag,
                                        renderRunRequest(req));
                    if (stream_trusted) {
                        std::lock_guard<std::mutex> lock(client.mutex);
                        client.expected[tag] = &goldens["fib|"];
                    }
                }
                if (well_formed && stream_trusted) {
                    std::lock_guard<std::mutex> lock(client.mutex);
                    client.sentSec[tag] = nowSec(epoch);
                    ++client.wellFormedSent;
                }
                frames_fired.fetch_add(1);
                if (!server.feed(client.session, bytes)) {
                    // Stream poisoned: the hostile client reconnects
                    // with a fresh session, like any real bad actor.
                    // The new stream starts clean and trusted.
                    client.session = server.openSession(
                        fmt("storm-%u-r%u", c, i), makeSink(client));
                    stream_trusted = true;
                }
                // Pace near the quota rate so the storm exercises the
                // whole admission ladder (some shed, most admitted)
                // instead of slamming into the token bucket head-on.
                std::this_thread::sleep_for(
                    std::chrono::milliseconds(rng.below(3)));
            }
        });
    }
    for (std::thread &t : threads)
        t.join();
    double sending_done = nowSec(epoch);

    // Graceful drain: everything admitted must resolve.
    server.drain(60000);
    double wall_sec = nowSec(epoch);
    server.stop();

    // ---- audit ----------------------------------------------------
    unsigned ok = 0, error = 0, shed = 0, deadline = 0, other = 0;
    unsigned answered = 0, sent = 0, byte_equiv_checked = 0;
    std::vector<uint64_t> latencies_us;
    for (auto &client_ptr : clients) {
        StormClient &client = *client_ptr;
        std::lock_guard<std::mutex> lock(client.mutex);
        sent += client.wellFormedSent;
        for (const auto &[tag, reply] : client.replies) {
            ++answered;
            switch (static_cast<FrameKind>(reply.first)) {
              case FrameKind::Ok:
                ++ok;
                break;
              case FrameKind::Error:
                ++error;
                break;
              case FrameKind::Shed:
                ++shed;
                break;
              case FrameKind::Deadline:
                ++deadline;
                break;
              default:
                ++other; // PONG / STATS replies
                break;
            }
            auto want = client.expected.find(tag);
            if (want != client.expected.end() &&
                reply.first == uint8_t(FrameKind::Ok)) {
                ++byte_equiv_checked;
                if (reply.second != *want->second)
                    muir_fatal("storm: OK payload for tag %u differs "
                               "from the direct run",
                               tag);
            }
            auto sent_it = client.sentSec.find(tag);
            auto done_it = client.doneSec.find(tag);
            if (sent_it != client.sentSec.end() &&
                done_it != client.doneSec.end())
                latencies_us.push_back(uint64_t(
                    (done_it->second - sent_it->second) * 1e6));
        }
        // Exactly-once: every well-formed request resolves. Even a
        // poisoned (chaos) client's earlier requests were admitted
        // synchronously and must have answers after the drain; only
        // the vanished client, which discarded its reply bytes, is
        // exempt.
        if (!client.gone.load())
            for (const auto &[tag, when] : client.sentSec) {
                (void)when;
                if (!client.replies.count(tag))
                    muir_fatal("storm: well-formed request tag %u "
                               "never got a reply",
                               tag);
            }
    }
    std::sort(latencies_us.begin(), latencies_us.end());

    // µtrace audit: after the drain the tracer is idle, so the
    // decision ledger must balance — every started trace resolved to
    // exactly one retained-or-dropped decision — and the always-
    // retain rule must have kept every ERROR/SHED/DEADLINE trace.
    const trace::Tracer &tracer = server.tracer();
    uint64_t traces_started = tracer.started();
    uint64_t traces_retained = tracer.retained();
    uint64_t traces_dropped = tracer.dropped();
    if (traces_started != traces_retained + traces_dropped)
        muir_fatal("storm: trace ledger out of balance: "
                   "%llu started != %llu retained + %llu dropped",
                   (unsigned long long)traces_started,
                   (unsigned long long)traces_retained,
                   (unsigned long long)traces_dropped);
    for (const char *outcome :
         {trace::kOutcomeError, trace::kOutcomeShed,
          trace::kOutcomeDeadline})
        if (tracer.droppedFor(outcome) != 0)
            muir_fatal("storm: %llu %s trace(s) dropped -- the "
                       "always-retain rule leaked",
                       (unsigned long long)tracer.droppedFor(outcome),
                       outcome);
    // Memo audit: every design in the mix passes its golden check, so
    // it carries its OK reply, and only a budget below its cycles
    // replays. Every replay must then be a max_cycles=10 request that
    // tripped its budget: an OK reply that replayed means hits are
    // rebuilding bytes the design already holds, and no replay at all
    // means tight budgets no longer reach the watchdog.
    metrics::Snapshot snap = server.registry().snapshot();
    uint64_t replays = snap.counter("serve.replays");
    uint64_t budget_trips = snap.counter("serve.deadline.cycle-budget");
    if (replays == 0 || replays != budget_trips)
        muir_fatal("storm: %llu replays for %llu cycle-budget "
                   "deadlines -- %s",
                   (unsigned long long)replays,
                   (unsigned long long)budget_trips,
                   replays ? "OK replies replayed instead of answering "
                             "from the design's OK reply"
                           : "budget-limited requests did not replay");
    // Replays of a cached index: the ones above plus one per design
    // miss, as muir.serve.v1 reports them.
    JsonValue stats;
    const JsonValue *reuse = nullptr;
    if (jsonParse(server.statsJson(), &stats))
        reuse = stats.get("muir.serve.v1", "compiled_ddg_reuse");
    if (!reuse)
        muir_fatal("storm: muir.serve.v1 has no compiled_ddg_reuse");
    uint64_t compiled_reuse = reuse->asU64();

    if (traces_retained == 0 || traces_dropped == 0)
        muir_fatal("storm: rate-0.5 sampling must both retain and "
                   "drop (retained=%llu dropped=%llu)",
                   (unsigned long long)traces_retained,
                   (unsigned long long)traces_dropped);

    double throughput =
        sending_done > 0 ? double(answered) / wall_sec : 0.0;
    AsciiTable table({"metric", "value"});
    table.addRow({"frames_fired", fmt("%u", frames_fired.load())});
    table.addRow({"tracked_requests", fmt("%u", sent)});
    table.addRow({"replies", fmt("%u", answered)});
    table.addRow({"ok", fmt("%u", ok)});
    table.addRow({"error", fmt("%u", error)});
    table.addRow({"shed", fmt("%u", shed)});
    table.addRow({"deadline", fmt("%u", deadline)});
    table.addRow({"control_replies", fmt("%u", other)});
    table.addRow({"chaos_frames", fmt("%u", chaos_frames.load())});
    table.addRow({"byte_equiv_checked", fmt("%u", byte_equiv_checked)});
    table.addRow({"compiled_ddg_reuse",
                  fmt("%llu", (unsigned long long)compiled_reuse)});
    table.addRow({"traces_started",
                  fmt("%llu", (unsigned long long)traces_started)});
    table.addRow({"traces_retained",
                  fmt("%llu", (unsigned long long)traces_retained)});
    table.addRow({"traces_dropped",
                  fmt("%llu", (unsigned long long)traces_dropped)});
    table.addRow({"wall_ms", fmt("%.1f", wall_sec * 1000.0)});
    table.addRow({"throughput_rps", fmt("%.1f", throughput)});
    table.addRow(
        {"p50_us", fmt("%llu", (unsigned long long)percentileUs(
                                   latencies_us, 50))});
    table.addRow(
        {"p95_us", fmt("%llu", (unsigned long long)percentileUs(
                                   latencies_us, 95))});
    table.addRow(
        {"p99_us", fmt("%llu", (unsigned long long)percentileUs(
                                   latencies_us, 99))});
    std::printf("%s", table.render("serve_storm").c_str());

    if (byte_equiv_checked == 0)
        muir_fatal("storm: no OK replies were byte-equivalence "
                   "checked -- the storm mix is broken");

    std::ostringstream os;
    JsonWriter w(os);
    w.beginObject();
    w.field("figure", std::string("serve_storm"));
    w.field("seed", double(seed));
    w.field("clients", double(clients_n));
    w.field("workers", double(options.jobs));
    w.field("frames_fired", double(frames_fired.load()));
    w.field("tracked_requests", double(sent));
    w.field("replies", double(answered));
    w.beginObject("reply_mix");
    w.field("ok", double(ok));
    w.field("error", double(error));
    w.field("shed", double(shed));
    w.field("deadline", double(deadline));
    w.field("control", double(other));
    w.end();
    w.field("chaos_frames", double(chaos_frames.load()));
    w.field("byte_equiv_checked", double(byte_equiv_checked));
    w.field("compiled_ddg_reuse", double(compiled_reuse));
    w.beginObject("trace");
    w.field("started", double(traces_started));
    w.field("retained", double(traces_retained));
    w.field("dropped", double(traces_dropped));
    w.field("evicted", double(tracer.evicted()));
    w.end();
    w.field("crashes", 0.0);
    w.field("wall_ms", wall_sec * 1000.0);
    w.field("throughput_rps", throughput);
    w.beginObject("latency_us");
    w.field("p50", double(percentileUs(latencies_us, 50)));
    w.field("p95", double(percentileUs(latencies_us, 95)));
    w.field("p99", double(percentileUs(latencies_us, 99)));
    w.end();
    w.end();
    os << "\n";
    std::ofstream out("BENCH_serve_storm.json");
    if (!out)
        muir_fatal("storm: cannot write BENCH_serve_storm.json");
    out << os.str();
    std::printf("wrote BENCH_serve_storm.json\n");
    return 0;
}
