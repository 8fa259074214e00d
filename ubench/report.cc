#include <charconv>
#include <cmath>
#include <cstdio>

#include "ubench.hh"

namespace muir::ubench
{

namespace
{

struct MetricDef
{
    const char *name;
    const char *unit;
};

/** Printed by untraced runs, in this order; BENCHMARK.json's
 *  end_to_end list names the same metrics. */
constexpr MetricDef kEndToEnd[] = {
    {"setup_s", "s"},
    {"ops_per_s", "1/s"},
    {"sim_events_per_s", "1/s"},
    {"cold_ms_p50", "ms"},
    {"cold_ms_p90", "ms"},
    {"warm_ms_p50", "ms"},
    {"warm_ms_p90", "ms"},
    {"peak_rss_mb", "MiB"},
    {"sim_cycles_geomean", "cycles"},
};

/** Printed by traced runs; a layer that does no work on a workload
 *  reports 0. BENCHMARK.json's per_layer list names the same. */
constexpr MetricDef kPerLayer[] = {
    {"workloads.build_ms", "ms"},
    {"workloads.check_ms", "ms"},
    {"frontend.lower_ms", "ms"},
    {"frontend.nodes", "count"},
    {"uopt.optimize_ms", "ms"},
    {"uopt.passes", "count"},
    {"uopt.nodes_after", "count"},
    {"sim.exec_ms", "ms"},
    {"sim.firings", "count"},
    {"sim.record_ms", "ms"},
    {"sim.events", "count"},
    {"sim.record_over_exec", "ratio"},
    {"sim.ddg_bytes_per_event", "B"},
    {"sim.compile_ms", "ms"},
    {"sim.compiled_bytes_per_event", "B"},
    {"sim.schedule_ms", "ms"},
    {"sim.schedule_events_per_s", "1/s"},
    {"serve.admit_us_p50", "us"},
    {"serve.queue_depth_max", "count"},
    {"serve.queue_wait_ms_p50", "ms"},
    {"serve.compile_ms_p50", "ms"},
    {"serve.run_ms_p50", "ms"},
    {"serve.cache_hits", "count"},
    {"serve.cache_misses", "count"},
    {"serve.hit_ratio", "ratio"},
    {"serve.compiled_ddg_reuse", "count"},
    {"trace.coverage", "ratio"},
    {"trace.overhead", "ratio"},
};

/** Shortest text that reads back as exactly @p v. */
std::string
number(double v)
{
    char buf[64];
    auto [end, ec] = std::to_chars(buf, buf + sizeof buf, v);
    return ec == std::errc() ? std::string(buf, end) : "0";
}

} // namespace

void
report(const Args &args, const Result &result)
{
    bool correct = result.consistent && result.failed == 0;
    std::printf("ubench %s seed=%llu seconds=%s trace=%d\n",
                args.workload.c_str(), (unsigned long long)args.seed,
                number(args.seconds).c_str(), args.trace ? 1 : 0);
    std::string json;
    const char *sep = "";
    auto emit = [&](const MetricDef &def) {
        auto it = result.metrics.find(def.name);
        double v = it == result.metrics.end() ? 0 : it->second;
        if (!std::isfinite(v)) {
            correct = false; // JSON has no NaN or infinity
            v = 0;
        }
        std::printf("  %-30s %16s  %s\n", def.name, number(v).c_str(),
                    def.unit);
        json += std::string(sep) + "\"" + def.name + "\": {\"value\": " +
                number(v) + ", \"unit\": \"" + def.unit + "\"}";
        sep = ", ";
    };
    if (args.trace)
        for (const MetricDef &def : kPerLayer)
            emit(def);
    else
        for (const MetricDef &def : kEndToEnd) {
            if (!result.metrics.count(def.name))
                correct = false;
            emit(def);
        }
    std::printf("  attempted=%llu failed=%llu correct=%s\n",
                (unsigned long long)result.attempted,
                (unsigned long long)result.failed,
                correct ? "true" : "false");
    std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
                "\"metrics\": {%s}}\n",
                correct ? "true" : "false",
                (unsigned long long)result.attempted,
                (unsigned long long)result.failed, json.c_str());
    std::fflush(stdout);
}

} // namespace muir::ubench
