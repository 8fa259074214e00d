/**
 * @file
 * muir_bench_gate — CI perf gate over the bench goldens. Replays the
 * full gate matrix (every built-in workload, baseline + standard
 * pipeline) and exact-compares cycle counts against the committed
 * goldens file.
 *
 *   muir_bench_gate --goldens bench/goldens/cycles.json
 *   muir_bench_gate --goldens ... --update          # rewrite goldens
 *   muir_bench_gate --goldens ... --only gemm
 *   muir_bench_gate --goldens ... --perturb l1:3    # prove it trips
 *
 * Exit status: 0 all cells match, 1 regression (or stale golden),
 * 2 usage/input error.
 */
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>

#include "gate/bench_gate.hh"
#include "support/logging.hh"
#include "support/strings.hh"

using namespace muir;

namespace
{

void
usage(FILE *out)
{
    std::fputs(
        "usage: muir_bench_gate --goldens <cycles.json> [options]\n"
        "  --update              measure and rewrite the goldens file\n"
        "  --only <workload>     gate a single workload\n"
        "  --perturb <s>:<n>     add n cycles to structure s's latency\n"
        "                        (injects a regression; the gate must\n"
        "                        trip)\n"
        "  --perturb <seed>      seeded form: pick one structure and an\n"
        "                        extra latency per cell via SplitMix64\n"
        "  --jobs <n>            measure up to n cells concurrently\n"
        "                        (default: MUIR_JOBS, else hardware\n"
        "                        concurrency; output is identical at\n"
        "                        any job count)\n"
        "  --json                machine-readable result\n"
        "  --hostperf <file>     µmeter wall-clock goldens\n"
        "                        (default bench/goldens/hostperf.json)\n"
        "  --update-hostperf     measure (median of 3) and rewrite the\n"
        "                        hostperf goldens file\n"
        "  --wall-budget <pct>   also check each cell's median wall\n"
        "                        time against the hostperf goldens,\n"
        "                        tolerating +pct% (generous bands\n"
        "                        recommended: wall time is machine-\n"
        "                        dependent)\n"
        "exit status: 0 pass, 1 regression, 2 usage/input error\n",
        out);
}

bool
parsePerturb(const std::string &spec, gate::Perturbation &out)
{
    size_t colon = spec.rfind(':');
    if (colon == std::string::npos) {
        // Seeded form: a bare integer. 0 is reserved for "inactive".
        char *end = nullptr;
        unsigned long long seed = std::strtoull(spec.c_str(), &end, 0);
        if (end == spec.c_str() || *end != '\0' || seed == 0)
            return false;
        out.seed = seed;
        return true;
    }
    if (colon == 0 || colon + 1 >= spec.size())
        return false;
    char *end = nullptr;
    unsigned long extra = std::strtoul(spec.c_str() + colon + 1, &end,
                                       10);
    if (*end != '\0' || extra == 0 || extra > 1u << 20)
        return false;
    out.structure = spec.substr(0, colon);
    out.extraLatency = static_cast<unsigned>(extra);
    return true;
}

double
parseWallBudget(const char *text)
{
    char *end = nullptr;
    double pct = std::strtod(text, &end);
    if (end == text || *end != '\0' || !(pct > 0.0) || pct > 100000.0) {
        std::fprintf(stderr,
                     "muir_bench_gate: --wall-budget wants a positive "
                     "percentage, got '%s'\n",
                     text);
        std::exit(2);
    }
    return pct;
}

unsigned
parseJobs(const char *text)
{
    char *end = nullptr;
    unsigned long n = std::strtoul(text, &end, 10);
    if (end == text || *end != '\0' || n == 0 || n > 256) {
        std::fprintf(stderr, "muir_bench_gate: --jobs wants 1..256, "
                             "got '%s'\n",
                     text);
        std::exit(2);
    }
    return static_cast<unsigned>(n);
}

} // namespace

int
main(int argc, char **argv)
{
    setVerbose(false);
    std::string goldens_path, only, perturb_spec;
    std::string hostperf_path = "bench/goldens/hostperf.json";
    bool update = false, json = false, update_hostperf = false;
    double wall_budget = -1.0;
    unsigned jobs = 0;
    for (int i = 1; i < argc; ++i) {
        std::string arg = argv[i];
        auto next = [&]() -> const char * {
            if (i + 1 >= argc) {
                std::fprintf(stderr, "muir_bench_gate: %s needs a "
                                     "value\n",
                             arg.c_str());
                std::exit(2);
            }
            return argv[++i];
        };
        if (arg == "--goldens") {
            goldens_path = next();
        } else if (arg == "--update") {
            update = true;
        } else if (arg == "--only") {
            only = next();
        } else if (arg == "--perturb") {
            perturb_spec = next();
        } else if (arg == "--jobs") {
            jobs = parseJobs(next());
        } else if (arg == "--json") {
            json = true;
        } else if (arg == "--hostperf") {
            hostperf_path = next();
        } else if (arg == "--update-hostperf") {
            update_hostperf = true;
        } else if (arg == "--wall-budget") {
            wall_budget = parseWallBudget(next());
        } else if (arg == "--help" || arg == "-h") {
            usage(stdout);
            return 0;
        } else {
            std::fprintf(stderr, "muir_bench_gate: unknown option %s\n",
                         arg.c_str());
            usage(stderr);
            return 2;
        }
    }
    if (goldens_path.empty() && !update_hostperf) {
        usage(stderr);
        return 2;
    }
    gate::GateOptions opts;
    opts.only = only;
    opts.jobs = jobs;
    // Median-of-3 wall sampling whenever wall time is the product;
    // plain cycle gating keeps the single cheap sample.
    if (update_hostperf || wall_budget >= 0.0)
        opts.wallSamples = 3;
    opts.wallBudgetPct = wall_budget;
    if (!perturb_spec.empty() &&
        !parsePerturb(perturb_spec, opts.perturb)) {
        std::fprintf(stderr,
                     "muir_bench_gate: --perturb wants "
                     "<structure>:<extra-cycles> or a nonzero seed, "
                     "got '%s'\n",
                     perturb_spec.c_str());
        return 2;
    }

    if (update_hostperf) {
        auto rows = gate::measureGate(opts);
        std::ofstream out(hostperf_path);
        if (!out) {
            std::fprintf(stderr, "muir_bench_gate: cannot write %s\n",
                         hostperf_path.c_str());
            return 2;
        }
        out << gate::hostperfGoldensJson(rows);
        std::printf("muir_bench_gate: wrote %zu hostperf golden(s) "
                    "to %s\n",
                    rows.size(), hostperf_path.c_str());
        return 0;
    }

    if (wall_budget >= 0.0) {
        std::ifstream in(hostperf_path);
        if (!in) {
            std::fprintf(stderr, "muir_bench_gate: cannot read %s\n",
                         hostperf_path.c_str());
            return 2;
        }
        std::stringstream buf;
        buf << in.rdbuf();
        opts.hostperfGoldens = buf.str();
    }

    if (update) {
        auto rows = gate::measureGate(opts);
        std::ofstream out(goldens_path);
        if (!out) {
            std::fprintf(stderr, "muir_bench_gate: cannot write %s\n",
                         goldens_path.c_str());
            return 2;
        }
        out << gate::goldensJson(rows);
        std::printf("muir_bench_gate: wrote %zu golden(s) to %s\n",
                    rows.size(), goldens_path.c_str());
        return 0;
    }

    std::ifstream in(goldens_path);
    if (!in) {
        std::fprintf(stderr, "muir_bench_gate: cannot read %s\n",
                     goldens_path.c_str());
        return 2;
    }
    std::stringstream buf;
    buf << in.rdbuf();
    gate::GateResult result = gate::runGate(buf.str(), opts);
    if (!result.error.empty()) {
        std::fprintf(stderr, "muir_bench_gate: %s\n",
                     result.error.c_str());
        return 2;
    }
    if (json)
        std::fputs(result.toJson().c_str(), stdout);
    else
        std::fputs(result.renderTable().c_str(), stdout);
    return result.ok ? 0 : 1;
}
