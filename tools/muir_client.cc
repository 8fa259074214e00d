/**
 * @file
 * muir-client: the µserve command-line client. Three ways to use it:
 *
 *   connect mode   muir-client --socket <path> run workload=fib ...
 *                  one request over a unix socket, with the library's
 *                  capped-exponential-backoff retry policy.
 *
 *   encode mode    muir-client --encode <script>
 *                  turn a text script (one request per line) into
 *                  wire frames on stdout — the front half of the
 *                  no-network pipe harness:
 *                    muir-client --encode req.script \
 *                      | muir-serve --stdio | muir-client --decode
 *
 *   decode mode    muir-client --decode
 *                  read reply frames on stdin, print one line per
 *                  reply: "<tag> <KIND> <payload first line>".
 *
 * Script lines (# comments and blank lines skipped):
 *   run workload=<w> [passes=..] [max_cycles=..] [deadline_ms=..]
 *       [work_delay_ms=..] [graph=<file>]
 *   ping [text]
 *   stats
 *   shutdown
 *   trace [id=<id>] [limit=<n>]   (fetch the μtrace ring)
 *   raw <hex bytes>          (chaos: emit arbitrary bytes verbatim)
 *
 * Connect mode accepts --trace on run requests: the client stamps a
 * seed-derived trace id on the RUN line, fetches that trace after the
 * reply, and renders it as an ASCII waterfall.
 *
 * Exit codes: 0 = final reply OK/PONG/STATS/BYE/TRACE, 1 = ERROR
 * reply, 2 = usage error, 3 = transport failure, 4 = still SHED
 * after retries, 5 = DEADLINE reply.
 */
#include <cstdio>
#include <cstring>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include "serve/client.hh"
#include "serve/frame.hh"
#include "serve/protocol.hh"
#include "support/logging.hh"
#include "support/rng.hh"
#include "support/strings.hh"
#include "support/trace.hh"

using namespace muir;

namespace
{

void
usage(FILE *out)
{
    std::fputs(
        "usage: muir-client --socket <path> <request...>\n"
        "       muir-client --encode <script>\n"
        "       muir-client --decode\n"
        "\n"
        "requests (connect mode)\n"
        "  run workload=<w> [passes=..] [max_cycles=..]\n"
        "      [deadline_ms=..] [graph=<file>]\n"
        "  ping [text] | stats | shutdown\n"
        "  trace [id=<id>] [limit=<n>]\n"
        "\n"
        "tracing (connect mode, run requests)\n"
        "  --trace           stamp a trace id on the run, fetch its\n"
        "                    trace afterwards, render a waterfall\n"
        "\n"
        "retry policy (connect mode)\n"
        "  --retries <n>     total attempts (default 5)\n"
        "  --base-ms <n>     backoff base delay (default 10)\n"
        "  --cap-ms <n>      backoff delay cap (default 2000)\n"
        "  --seed <n>        jitter seed (default 1)\n"
        "\n"
        "exit codes: 0 ok  1 error reply  2 usage  3 transport\n"
        "            4 shed after retries  5 deadline\n",
        out);
}

bool
readFile(const std::string &path, std::string &out)
{
    std::ifstream in(path, std::ios::binary);
    if (!in)
        return false;
    std::stringstream buf;
    buf << in.rdbuf();
    out = buf.str();
    return true;
}

/**
 * Parse one script/CLI request into a frame. `run` lines may carry a
 * graph=<file> token, which is stripped, loaded, and appended as the
 * payload's graph body.
 */
bool
buildRequestFrame(const std::vector<std::string> &words, uint32_t tag,
                  std::string &bytes, std::string *error)
{
    if (words.empty()) {
        *error = "empty request";
        return false;
    }
    const std::string &verb = words[0];
    if (verb == "ping" || verb == "stats" || verb == "shutdown") {
        serve::FrameKind kind = verb == "ping"
                                    ? serve::FrameKind::Ping
                                : verb == "stats"
                                    ? serve::FrameKind::Stats
                                    : serve::FrameKind::Shutdown;
        std::vector<std::string> rest(words.begin() + 1, words.end());
        bytes = serve::encodeFrame(kind, tag, join(rest, " "));
        return true;
    }
    if (verb == "trace") {
        std::string payload =
            join(std::vector<std::string>(words.begin(), words.end()),
                 " ");
        // Validate locally, same as run lines.
        serve::TraceRequest req;
        if (!serve::parseTraceRequest(payload, req, error))
            return false;
        bytes = serve::encodeFrame(serve::FrameKind::Trace, tag,
                                   payload);
        return true;
    }
    if (verb == "raw") {
        std::string raw;
        std::string hex;
        for (size_t i = 1; i < words.size(); ++i)
            hex += words[i];
        if (hex.size() % 2) {
            *error = "raw needs an even number of hex digits";
            return false;
        }
        for (size_t i = 0; i + 1 < hex.size(); i += 2) {
            auto nib = [](char c) -> int {
                if (c >= '0' && c <= '9')
                    return c - '0';
                if (c >= 'a' && c <= 'f')
                    return c - 'a' + 10;
                if (c >= 'A' && c <= 'F')
                    return c - 'A' + 10;
                return -1;
            };
            int hi = nib(hex[i]), lo = nib(hex[i + 1]);
            if (hi < 0 || lo < 0) {
                *error = "raw: bad hex digit";
                return false;
            }
            raw.push_back(char(hi * 16 + lo));
        }
        bytes = raw;
        return true;
    }
    if (verb != "run") {
        *error = fmt("unknown request verb '%s'", verb.c_str());
        return false;
    }
    std::string graph;
    std::string line = "run";
    for (size_t i = 1; i < words.size(); ++i) {
        if (startsWith(words[i], "graph=")) {
            std::string path = words[i].substr(6);
            if (!readFile(path, graph)) {
                *error = fmt("cannot read graph file '%s'",
                             path.c_str());
                return false;
            }
            continue;
        }
        line += " " + words[i];
    }
    std::string payload = line + "\n" + graph;
    // Validate locally so script typos fail fast with a line number
    // instead of a daemon round-trip.
    serve::RunRequest req;
    if (!serve::parseRunRequest(payload, req, error))
        return false;
    bytes = serve::encodeFrame(serve::FrameKind::Run, tag, payload);
    return true;
}

std::vector<std::string>
splitWords(const std::string &line)
{
    std::vector<std::string> words;
    for (const std::string &w : split(line, ' '))
        if (!w.empty())
            words.push_back(w);
    return words;
}

int
encodeMode(const std::string &script_path)
{
    std::string text;
    if (!readFile(script_path, text)) {
        std::fprintf(stderr, "muir-client: cannot read '%s'\n",
                     script_path.c_str());
        return 2;
    }
    uint32_t tag = 1;
    unsigned lineno = 0;
    for (const std::string &line : split(text, '\n')) {
        ++lineno;
        if (line.empty() || line[0] == '#')
            continue;
        std::string bytes, error;
        if (!buildRequestFrame(splitWords(line), tag++, bytes,
                               &error)) {
            std::fprintf(stderr, "muir-client: %s:%u: %s\n",
                         script_path.c_str(), lineno, error.c_str());
            return 2;
        }
        std::fwrite(bytes.data(), 1, bytes.size(), stdout);
    }
    std::fflush(stdout);
    return 0;
}

int
decodeMode()
{
    serve::FrameDecoder decoder;
    char buf[65536];
    bool saw_error_reply = false;
    for (;;) {
        serve::Frame frame;
        std::string error;
        serve::DecodeStatus status = decoder.next(frame, &error);
        if (status == serve::DecodeStatus::Ready) {
            std::string head = frame.payload;
            size_t nl = head.find('\n');
            if (nl != std::string::npos)
                head.resize(nl);
            const char *kind =
                serve::frameKindKnown(frame.kind)
                    ? serve::frameKindName(frame.kindEnum())
                    : "UNKNOWN";
            std::printf("%u %s %s\n", frame.tag, kind, head.c_str());
            if (frame.kindEnum() == serve::FrameKind::Error)
                saw_error_reply = true;
            continue;
        }
        if (status != serve::DecodeStatus::NeedMore) {
            std::fprintf(stderr, "muir-client: %s\n", error.c_str());
            return 3;
        }
        size_t n = std::fread(buf, 1, sizeof(buf), stdin);
        if (n == 0)
            break;
        decoder.feed(buf, n);
    }
    std::fflush(stdout);
    return saw_error_reply ? 1 : 0;
}

/**
 * Fetch the stamped trace over the live connection and render the
 * waterfall. Every call with the same --seed stamps the same id, so
 * the ring can hold earlier requests with it: only the newest is
 * this run's. Failures are reported but never change the run's exit
 * code — tracing is observability, not the request.
 */
void
fetchAndRenderTrace(serve::Client &client, uint64_t trace_id)
{
    serve::TraceRequest treq;
    treq.id = trace_id;
    treq.limit = 1;
    serve::CallOutcome outcome = client.call(
        serve::FrameKind::Trace, serve::renderTraceRequest(treq));
    if (!outcome.transportOk ||
        outcome.reply.kindEnum() != serve::FrameKind::TraceReply) {
        std::fprintf(stderr,
                     "muir-client: trace fetch failed (%s)\n",
                     outcome.transportOk ? "unexpected reply kind"
                                         : outcome.error.c_str());
        return;
    }
    std::vector<trace::TraceData> traces;
    std::string error;
    if (!trace::tracesFromJson(outcome.reply.payload, traces,
                               &error)) {
        std::fprintf(stderr, "muir-client: bad trace document: %s\n",
                     error.c_str());
        return;
    }
    const trace::TraceData *newest = nullptr;
    for (const trace::TraceData &t : traces)
        if (t.traceId == trace_id)
            newest = &t;
    if (newest)
        std::fputs(trace::renderWaterfall(*newest).c_str(), stdout);
    else
        std::fprintf(stderr,
                     "muir-client: trace %016llx not retained "
                     "(ring evicted it?)\n",
                     (unsigned long long)trace_id);
}

int
connectMode(const std::string &socket_path,
            const serve::BackoffPolicy &policy,
            const std::vector<std::string> &words, uint64_t trace_id)
{
    int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
    if (fd < 0) {
        std::fprintf(stderr, "muir-client: socket: %s\n",
                     std::strerror(errno));
        return 3;
    }
    sockaddr_un addr = {};
    addr.sun_family = AF_UNIX;
    if (socket_path.size() >= sizeof(addr.sun_path)) {
        std::fprintf(stderr, "muir-client: socket path too long\n");
        ::close(fd);
        return 2;
    }
    std::strncpy(addr.sun_path, socket_path.c_str(),
                 sizeof(addr.sun_path) - 1);
    if (::connect(fd, reinterpret_cast<sockaddr *>(&addr),
                  sizeof(addr)) < 0) {
        std::fprintf(stderr, "muir-client: connect '%s': %s\n",
                     socket_path.c_str(), std::strerror(errno));
        ::close(fd);
        return 3;
    }

    std::string bytes, error;
    if (!buildRequestFrame(words, 1, bytes, &error)) {
        std::fprintf(stderr, "muir-client: %s\n", error.c_str());
        ::close(fd);
        return 2;
    }
    // Re-frame through the client library so retries re-tag properly.
    serve::FrameDecoder probe;
    probe.feed(bytes);
    serve::Frame request;
    if (probe.next(request) != serve::DecodeStatus::Ready) {
        std::fprintf(stderr,
                     "muir-client: raw bytes need --encode mode\n");
        ::close(fd);
        return 2;
    }

    serve::FdChannel channel(fd, fd);
    serve::ClientOptions copts;
    copts.backoff = policy;
    serve::Client client(channel, copts);
    serve::CallOutcome outcome =
        client.call(request.kindEnum(), request.payload);

    if (!outcome.transportOk) {
        ::close(fd);
        std::fprintf(stderr, "muir-client: transport: %s\n",
                     outcome.error.c_str());
        return 3;
    }
    const char *kind =
        serve::frameKindKnown(outcome.reply.kind)
            ? serve::frameKindName(outcome.reply.kindEnum())
            : "UNKNOWN";
    std::printf("%s\n%s\n", kind, outcome.reply.payload.c_str());
    if (trace_id)
        fetchAndRenderTrace(client, trace_id);
    ::close(fd);
    switch (outcome.reply.kindEnum()) {
      case serve::FrameKind::Error:
        return 1;
      case serve::FrameKind::Shed:
        return 4;
      case serve::FrameKind::Deadline:
        return 5;
      default:
        return 0;
    }
}

} // namespace

int
main(int argc, char **argv)
{
    std::string socket_path, encode_script;
    bool decode = false;
    bool want_trace = false;
    serve::BackoffPolicy policy;
    std::vector<std::string> words;

    for (int i = 1; i < argc; ++i) {
        std::string arg = argv[i];
        auto next = [&](const char *flag) -> const char * {
            if (i + 1 >= argc) {
                std::fprintf(stderr,
                             "muir-client: %s needs a value\n", flag);
                std::exit(2);
            }
            return argv[++i];
        };
        if (arg == "--help" || arg == "-h") {
            usage(stdout);
            return 0;
        } else if (arg == "--socket") {
            socket_path = next("--socket");
        } else if (arg == "--encode") {
            encode_script = next("--encode");
        } else if (arg == "--decode") {
            decode = true;
        } else if (arg == "--retries" || arg == "--base-ms" ||
                   arg == "--cap-ms" || arg == "--seed") {
            const char *v = next(arg.c_str());
            uint64_t n = 0;
            if (!parseU64(v, n) ||
                (arg == "--retries" && n > ~0u)) {
                std::fprintf(stderr,
                             "muir-client: %s '%s' is not an unsigned "
                             "integer\n",
                             arg.c_str(), v);
                return 2;
            }
            if (arg == "--retries")
                policy.maxAttempts = unsigned(n);
            else if (arg == "--base-ms")
                policy.baseMs = n;
            else if (arg == "--cap-ms")
                policy.capMs = n;
            else
                policy.seed = n;
        } else if (arg == "--trace") {
            want_trace = true;
        } else if (startsWith(arg, "--")) {
            std::fprintf(stderr, "muir-client: unknown option '%s'\n",
                         arg.c_str());
            usage(stderr);
            return 2;
        } else {
            words.push_back(arg);
        }
    }

    unsigned modes = unsigned(!socket_path.empty()) +
                     unsigned(!encode_script.empty()) +
                     unsigned(decode);
    if (modes != 1) {
        std::fprintf(stderr, "muir-client: pick exactly one of "
                             "--socket, --encode, --decode\n");
        usage(stderr);
        return 2;
    }
    if (want_trace && (socket_path.empty() || words.empty() ||
                       words[0] != "run")) {
        std::fprintf(stderr, "muir-client: --trace needs connect "
                             "mode with a run request\n");
        return 2;
    }
    if (decode)
        return decodeMode();
    if (!encode_script.empty())
        return encodeMode(encode_script);
    if (words.empty()) {
        std::fprintf(stderr, "muir-client: no request given\n");
        usage(stderr);
        return 2;
    }
    uint64_t trace_id = 0;
    if (want_trace) {
        // Deterministic from --seed so smoke tests are reproducible;
        // |1 keeps the id nonzero (0 means "unstamped" on the wire).
        bool stamped = false;
        for (const std::string &w : words)
            if (startsWith(w, "trace=")) {
                stamped = true;
                serve::RunRequest probe;
                std::string perr;
                if (serve::parseRunRequest(
                        "run workload=x " + w + "\n", probe, &perr))
                    trace_id = probe.traceId;
            }
        if (!stamped) {
            trace_id = SplitMix64(policy.seed).next() | 1;
            words.push_back(
                fmt("trace=%llu", (unsigned long long)trace_id));
        }
    }
    return connectMode(socket_path, policy, words, trace_id);
}
