/**
 * @file
 * ubench --workload <dse_cold|replay_warm|serve_sweep> --seed <n>
 *        --seconds <s> --trace <0|1> [--designs <file>] [--spans <file>]
 *
 * Runs one workload and prints its metrics; the last line of stdout is
 * one JSON object with correct / attempted / failed / metrics. Exit
 * code 0 on a completed run (check "correct"), 2 on a usage error.
 */
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "support/logging.hh"
#include "ubench.hh"

namespace
{

int
usage(const char *why)
{
    std::fprintf(stderr,
                 "ubench: %s\nusage: ubench --workload "
                 "<dse_cold|replay_warm|serve_sweep> --seed <n> "
                 "--seconds <s> --trace <0|1> [--designs <file>] "
                 "[--spans <file>]\n",
                 why);
    return 2;
}

} // namespace

int
main(int argc, char **argv)
{
    using namespace muir::ubench;
    Args args;
    bool have_seed = false;
    for (int i = 1; i < argc; ++i) {
        std::string flag = argv[i];
        if (i + 1 >= argc)
            return usage(("missing value for " + flag).c_str());
        const char *value = argv[++i];
        char *end = nullptr;
        if (flag == "--workload") {
            args.workload = value;
        } else if (flag == "--seed") {
            args.seed = std::strtoull(value, &end, 10);
            have_seed = *value && *end == '\0';
            if (!have_seed)
                return usage("--seed takes an unsigned integer");
        } else if (flag == "--seconds") {
            args.seconds = std::strtod(value, &end);
            if (!*value || *end != '\0' || !(args.seconds > 0) ||
                args.seconds > 60)
                return usage("--seconds takes a number in (0, 60]");
        } else if (flag == "--trace") {
            if (std::strcmp(value, "0") && std::strcmp(value, "1"))
                return usage("--trace takes 0 or 1");
            args.trace = value[0] == '1';
        } else if (flag == "--designs") {
            args.designsPath = value;
        } else if (flag == "--spans") {
            args.spansPath = value;
        } else {
            return usage(("unknown flag " + flag).c_str());
        }
    }
    if (!have_seed)
        return usage("--seed is required");

    // Pass chatter would bury the result; failures still reach stderr.
    muir::setVerbose(false);
    Result result;
    if (args.workload == "dse_cold")
        result = runDseCold(args);
    else if (args.workload == "replay_warm")
        result = runReplayWarm(args);
    else if (args.workload == "serve_sweep")
        result = runServeSweep(args);
    else
        return usage("unknown workload");
    report(args, result);
    return 0;
}
