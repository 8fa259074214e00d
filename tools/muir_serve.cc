/**
 * @file
 * muir-serve: the µserve daemon. Accepts framed requests (see
 * docs/serve.md), compiles each requested design once into the shared
 * cache, and fans replays across a worker pool with admission control,
 * per-client quotas, deadlines, and graceful drain.
 *
 * Transports:
 *   --stdio           frames on stdin, replies on stdout (tests/CI —
 *                     no networking needed; stderr carries logs)
 *   --socket <path>   unix-domain socket listener
 *
 * Exit codes: 0 = clean exit (EOF / SHUTDOWN / SIGTERM drain),
 * 1 = runtime failure (cannot bind/listen), 2 = usage error.
 */
#include <atomic>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include <fcntl.h>
#include <poll.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include "serve/server.hh"
#include "support/logging.hh"
#include "support/parallel.hh"
#include "support/strings.hh"

using namespace muir;

namespace
{

std::atomic<int> g_signal{0};

void
onSignal(int sig)
{
    g_signal.store(sig, std::memory_order_relaxed);
}

void
usage(FILE *out)
{
    std::fputs(
        "usage: muir-serve (--stdio | --socket <path>) [options]\n"
        "\n"
        "transports\n"
        "  --stdio                frames on stdin, replies on stdout\n"
        "  --socket <path>        listen on a unix-domain socket\n"
        "\n"
        "options\n"
        "  --jobs <n>             worker threads (default: MUIR_JOBS,\n"
        "                         else hardware concurrency)\n"
        "  --queue-capacity <n>   admitted-request queue bound (64)\n"
        "  --quota-rate <r>       per-client tokens/sec (50)\n"
        "  --quota-burst <n>      per-client burst tokens (20)\n"
        "  --max-cycles <n>       default per-run cycle budget (1e9)\n"
        "  --drain-budget-ms <n>  graceful-drain budget (5000)\n"
        "  --retry-after-ms <n>   queue-shed retry hint (50)\n"
        "  --cache-capacity <n>   compiled-design cache entries (64)\n"
        "  --allow-work-delay     honor work_delay_ms (tests only)\n"
        "  --stats-json <file>    write the final stats snapshot here\n"
        "                         (default: stderr)\n"
        "\n"
        "observability (μtrace)\n"
        "  --trace-sample <rate>  head-sample rate in [0,1]; 0 turns\n"
        "                         tracing off for unstamped runs (0)\n"
        "  --trace-seed <n>       sampling/trace-id seed (1)\n"
        "  --slow-ms <n>          always retain traces slower than\n"
        "                         this many ms (0 = rule off)\n"
        "  --trace-ring <n>       retained-trace ring capacity (256)\n"
        "  --log-json <file>      structured NDJSON event log\n"
        "                         ('-' = stderr)\n"
        "  --log-level <level>    debug|info|warn|error (info)\n"
        "  --help                 this text\n"
        "\n"
        "exit codes: 0 clean exit  1 runtime failure  2 usage error\n",
        out);
}

/** Flush the final stats snapshot (SIGTERM/EOF path). */
void
flushStats(const serve::Server &server, const std::string &path)
{
    std::string json = server.statsJson() + "\n";
    if (path.empty()) {
        std::fputs(json.c_str(), stderr);
        return;
    }
    FILE *f = std::fopen(path.c_str(), "w");
    if (!f) {
        std::fprintf(stderr, "muir-serve: cannot write '%s'\n",
                     path.c_str());
        return;
    }
    std::fputs(json.c_str(), f);
    std::fclose(f);
}

/** Drain, report, exit 0 — the one true shutdown path. */
int
shutdownClean(serve::Server &server, uint64_t drain_budget_ms,
              const std::string &stats_path, const char *why)
{
    muir_inform("muir-serve: %s; draining (budget %llums)", why,
                (unsigned long long)drain_budget_ms);
    bool natural = server.drain(drain_budget_ms);
    server.stop();
    if (!natural)
        muir_inform("muir-serve: drain budget expired; queued runs "
                    "were cancelled as DEADLINE");
    flushStats(server, stats_path);
    return 0;
}

int
serveStdio(serve::Server &server, uint64_t drain_budget_ms,
           const std::string &stats_path)
{
    // Replies interleave from worker threads; the session write mutex
    // already serializes frames, so the sink only needs an atomic
    // write of its bytes.
    auto session = server.openSession("stdio", [](const std::string &b) {
        size_t off = 0;
        while (off < b.size()) {
            ssize_t n = ::write(STDOUT_FILENO, b.data() + off,
                                b.size() - off);
            if (n <= 0) {
                if (n < 0 && errno == EINTR)
                    continue;
                return; // stdout gone; nothing useful left to do
            }
            off += size_t(n);
        }
    });

    bool stream_ok = true;
    for (;;) {
        int sig = g_signal.load(std::memory_order_relaxed);
        bool quit = sig != 0 || server.shutdownRequested();
        struct pollfd pfd = {STDIN_FILENO, POLLIN, 0};
        // On shutdown, sweep whatever the client already sent (poll
        // timeout 0) so every submitted request gets a reply; in
        // steady state block briefly so signals stay responsive.
        int ready = ::poll(&pfd, 1, quit ? 0 : 100);
        if (ready > 0 && (pfd.revents & (POLLIN | POLLHUP))) {
            char buf[65536];
            ssize_t n = ::read(STDIN_FILENO, buf, sizeof(buf));
            if (n > 0) {
                if (stream_ok && !server.feed(session, buf, size_t(n)))
                    stream_ok = false; // poisoned; keep draining reads
                continue;
            }
            if (n < 0 && errno == EINTR)
                continue;
            return shutdownClean(server, drain_budget_ms, stats_path,
                                 "stdin closed");
        }
        if (quit)
            return shutdownClean(server, drain_budget_ms, stats_path,
                                 sig ? "signal received"
                                     : "shutdown requested");
    }
}

int
serveSocket(serve::Server &server, const std::string &path,
            uint64_t drain_budget_ms, const std::string &stats_path)
{
    int listen_fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
    if (listen_fd < 0) {
        std::fprintf(stderr, "muir-serve: socket: %s\n",
                     std::strerror(errno));
        return 1;
    }
    sockaddr_un addr = {};
    addr.sun_family = AF_UNIX;
    if (path.size() >= sizeof(addr.sun_path)) {
        std::fprintf(stderr, "muir-serve: socket path too long\n");
        ::close(listen_fd);
        return 2;
    }
    std::strncpy(addr.sun_path, path.c_str(),
                 sizeof(addr.sun_path) - 1);
    ::unlink(path.c_str());
    if (::bind(listen_fd, reinterpret_cast<sockaddr *>(&addr),
               sizeof(addr)) < 0 ||
        ::listen(listen_fd, 64) < 0) {
        std::fprintf(stderr, "muir-serve: bind/listen '%s': %s\n",
                     path.c_str(), std::strerror(errno));
        ::close(listen_fd);
        return 1;
    }
    muir_inform("muir-serve: listening on %s", path.c_str());

    std::vector<std::thread> conns;
    std::atomic<unsigned> next_client{0};
    for (;;) {
        int sig = g_signal.load(std::memory_order_relaxed);
        if (sig != 0 || server.shutdownRequested())
            break;
        struct pollfd pfd = {listen_fd, POLLIN, 0};
        int ready = ::poll(&pfd, 1, 100);
        if (ready <= 0)
            continue;
        int fd = ::accept(listen_fd, nullptr, nullptr);
        if (fd < 0)
            continue;
        unsigned id = next_client.fetch_add(1);
        conns.emplace_back([&server, fd, id] {
            auto session = server.openSession(
                fmt("client-%u", id), [fd](const std::string &b) {
                    size_t off = 0;
                    while (off < b.size()) {
                        ssize_t n = ::write(fd, b.data() + off,
                                            b.size() - off);
                        if (n <= 0) {
                            if (n < 0 && errno == EINTR)
                                continue;
                            return;
                        }
                        off += size_t(n);
                    }
                });
            char buf[65536];
            for (;;) {
                ssize_t n = ::read(fd, buf, sizeof(buf));
                if (n <= 0) {
                    if (n < 0 && errno == EINTR)
                        continue;
                    break;
                }
                if (!server.feed(session, buf, size_t(n)))
                    break; // poisoned stream: cut this client off
            }
            // Give in-flight replies for this session a moment to go
            // out before the fd closes under them: the write mutex in
            // the sink serializes against them, so shutdown is safe.
            ::shutdown(fd, SHUT_RDWR);
            ::close(fd);
        });
    }
    ::close(listen_fd);
    int rc = shutdownClean(server, drain_budget_ms, stats_path,
                           "shutting down listener");
    for (std::thread &t : conns)
        t.join();
    ::unlink(path.c_str());
    return rc;
}

} // namespace

int
main(int argc, char **argv)
{
    // Pass chatter per cache miss would flood the daemon's stderr.
    setVerbose(false);
    bool stdio = false;
    std::string socket_path;
    std::string stats_path;
    std::string log_path;
    slog::Level log_level = slog::Level::Info;
    uint64_t drain_budget_ms = 5000;
    serve::ServerOptions options;

    for (int i = 1; i < argc; ++i) {
        std::string arg = argv[i];
        auto next = [&](const char *flag) -> const char * {
            if (i + 1 >= argc) {
                std::fprintf(stderr,
                             "muir-serve: %s needs a value\n", flag);
                std::exit(2);
            }
            return argv[++i];
        };
        uint64_t v = 0;
        if (arg == "--help" || arg == "-h") {
            usage(stdout);
            return 0;
        } else if (arg == "--stdio") {
            stdio = true;
        } else if (arg == "--socket") {
            socket_path = next("--socket");
        } else if (arg == "--stats-json") {
            stats_path = next("--stats-json");
        } else if (arg == "--allow-work-delay") {
            options.allowWorkDelay = true;
        } else if (arg == "--jobs") {
            if (!parseU64(next("--jobs"), v) || v == 0 || v > 256) {
                std::fprintf(stderr,
                             "muir-serve: --jobs must be 1..256\n");
                return 2;
            }
            options.jobs = unsigned(v);
        } else if (arg == "--queue-capacity") {
            if (!parseU64(next("--queue-capacity"), v) || v == 0) {
                std::fprintf(stderr, "muir-serve: --queue-capacity "
                                     "must be a positive integer\n");
                return 2;
            }
            options.queueCapacity = size_t(v);
        } else if (arg == "--quota-rate") {
            options.quotaRate = std::atof(next("--quota-rate"));
            if (options.quotaRate <= 0) {
                std::fprintf(stderr, "muir-serve: --quota-rate must "
                                     "be positive\n");
                return 2;
            }
        } else if (arg == "--quota-burst") {
            options.quotaBurst = std::atof(next("--quota-burst"));
            if (options.quotaBurst <= 0) {
                std::fprintf(stderr, "muir-serve: --quota-burst must "
                                     "be positive\n");
                return 2;
            }
        } else if (arg == "--max-cycles") {
            if (!parseU64(next("--max-cycles"), v) || v == 0) {
                std::fprintf(stderr, "muir-serve: --max-cycles must "
                                     "be a positive integer\n");
                return 2;
            }
            options.defaultMaxCycles = v;
        } else if (arg == "--drain-budget-ms") {
            if (!parseU64(next("--drain-budget-ms"),
                             drain_budget_ms)) {
                std::fprintf(stderr, "muir-serve: --drain-budget-ms "
                                     "must be an integer\n");
                return 2;
            }
        } else if (arg == "--retry-after-ms") {
            if (!parseU64(next("--retry-after-ms"),
                             options.retryAfterMs)) {
                std::fprintf(stderr, "muir-serve: --retry-after-ms "
                                     "must be an integer\n");
                return 2;
            }
        } else if (arg == "--cache-capacity") {
            if (!parseU64(next("--cache-capacity"), v) || v == 0) {
                std::fprintf(stderr, "muir-serve: --cache-capacity "
                                     "must be a positive integer\n");
                return 2;
            }
            options.cacheCapacity = size_t(v);
        } else if (arg == "--trace-sample") {
            const char *text = next("--trace-sample");
            char *end = nullptr;
            double rate = std::strtod(text, &end);
            if (!end || *end != '\0' || !(rate >= 0.0) ||
                !(rate <= 1.0)) {
                std::fprintf(stderr, "muir-serve: --trace-sample "
                                     "must be a rate in [0, 1]\n");
                return 2;
            }
            options.traceSampleRate = rate;
        } else if (arg == "--trace-seed") {
            if (!parseU64(next("--trace-seed"),
                             options.traceSeed)) {
                std::fprintf(stderr, "muir-serve: --trace-seed must "
                                     "be an integer\n");
                return 2;
            }
        } else if (arg == "--slow-ms") {
            if (!parseU64(next("--slow-ms"), v)) {
                std::fprintf(stderr, "muir-serve: --slow-ms must be "
                                     "an integer\n");
                return 2;
            }
            options.traceSlowUs = v * 1000;
        } else if (arg == "--trace-ring") {
            if (!parseU64(next("--trace-ring"), v) || v == 0) {
                std::fprintf(stderr, "muir-serve: --trace-ring must "
                                     "be a positive integer\n");
                return 2;
            }
            options.traceRingCapacity = size_t(v);
        } else if (arg == "--log-json") {
            log_path = next("--log-json");
        } else if (arg == "--log-level") {
            const char *text = next("--log-level");
            if (!slog::levelFromName(text, &log_level)) {
                std::fprintf(stderr,
                             "muir-serve: --log-level must be one of "
                             "debug, info, warn, error (got '%s')\n",
                             text);
                return 2;
            }
        } else {
            std::fprintf(stderr, "muir-serve: unknown option '%s'\n",
                         arg.c_str());
            usage(stderr);
            return 2;
        }
    }
    if (stdio != socket_path.empty()) {
        // Exactly one transport, please.
        std::fprintf(stderr, "muir-serve: pick exactly one of "
                             "--stdio or --socket <path>\n");
        usage(stderr);
        return 2;
    }

    std::signal(SIGTERM, onSignal);
    std::signal(SIGINT, onSignal);
    std::signal(SIGPIPE, SIG_IGN);

    // The logger must outlive the server (workers log from their
    // threads until Server::stop returns).
    std::unique_ptr<slog::Logger> logger;
    FILE *log_sink = nullptr;
    if (!log_path.empty()) {
        log_sink = log_path == "-" ? stderr
                                   : std::fopen(log_path.c_str(), "w");
        if (!log_sink) {
            std::fprintf(stderr, "muir-serve: cannot write '%s'\n",
                         log_path.c_str());
            return 1;
        }
        slog::LoggerOptions lo;
        lo.minLevel = log_level;
        logger = std::make_unique<slog::Logger>(lo, log_sink);
        options.logger = logger.get();
    }

    serve::Server server(options);
    int rc = stdio ? serveStdio(server, drain_budget_ms, stats_path)
                   : serveSocket(server, socket_path, drain_budget_ms,
                                 stats_path);
    server.stop(); // workers down before the logger goes away
    if (log_sink && log_sink != stderr)
        std::fclose(log_sink);
    return rc;
}
