/**
 * @file
 * muir-diff — the μscope regression observatory's comparison tool.
 * Two modes over two artifacts:
 *
 *   muir-diff --workload gemm baseline.uirx optimized.uirx
 *     Static: compare two design checkpoints (`muirc --save-graph`) —
 *     task-configuration changes, structure changes, and the
 *     FIRRTL-level node/edge delta (the Table 4 metric).
 *
 *   muir-diff --report before.json after.json
 *     Dynamic: compare two run reports (`muirc --report-json`) —
 *     cycle delta/speedup, per-stall-class critical and raw deltas,
 *     per-task critical-cycle deltas, and the per-pass speedup
 *     waterfall reconstructed from the PassManager records.
 *
 * `--json` switches either mode to machine-readable output. Exit
 * status: 0 when the artifacts are equivalent, 1 when they differ,
 * 2 on usage or input errors.
 */
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include "rtl/firrtl.hh"
#include "sim/profile.hh"
#include "support/json.hh"
#include "support/logging.hh"
#include "support/strings.hh"
#include "support/table.hh"
#include "uir/serialize.hh"
#include "workloads/workload.hh"

using namespace muir;

namespace
{

bool
slurp(const std::string &path, std::string &out)
{
    std::ifstream in(path);
    if (!in) {
        std::fprintf(stderr, "muir-diff: cannot read %s\n",
                     path.c_str());
        return false;
    }
    std::stringstream buf;
    buf << in.rdbuf();
    out = buf.str();
    return true;
}

std::string
structureDesc(const uir::Structure &s)
{
    return fmt("%s banks=%u ports=%u wide=%u lat=%u",
               structureKindName(s.kind()), s.banks(), s.portsPerBank(),
               s.wideWords(), s.latency());
}

std::string
fmtDelta(int64_t delta)
{
    return fmt("%+lld", (long long)delta);
}

/** Percent change after→before, e.g. "-12.5%" for fewer cycles. */
std::string
fmtPct(uint64_t before, uint64_t after)
{
    if (before == 0)
        return after == 0 ? "0.0%" : "n/a";
    return fmt("%+.1f%%", 100.0 * (double(after) - double(before)) /
                              double(before));
}

// ---------------------------------------------------------------------
// Static mode: design checkpoints.
// ---------------------------------------------------------------------

int
diffDesigns(const std::string &workload, const std::string &before_path,
            const std::string &after_path, bool json)
{
    auto names = workloads::workloadNames();
    if (std::find(names.begin(), names.end(), workload) == names.end()) {
        std::fprintf(stderr, "muir-diff: unknown workload '%s'\n",
                     workload.c_str());
        return 2;
    }
    std::string before_text, after_text;
    if (!slurp(before_path, before_text) ||
        !slurp(after_path, after_text))
        return 2;
    auto w = workloads::buildWorkload(workload);
    auto parsed_before =
        uir::deserializeOrError(before_text, w.module.get());
    if (!parsed_before.ok()) {
        std::fprintf(stderr, "muir-diff: %s:%u: %s\n",
                     before_path.c_str(), parsed_before.line,
                     parsed_before.error.c_str());
        return 2;
    }
    auto parsed_after =
        uir::deserializeOrError(after_text, w.module.get());
    if (!parsed_after.ok()) {
        std::fprintf(stderr, "muir-diff: %s:%u: %s\n",
                     after_path.c_str(), parsed_after.line,
                     parsed_after.error.c_str());
        return 2;
    }
    const uir::Accelerator &before = *parsed_before.accel;
    const uir::Accelerator &after = *parsed_after.accel;

    // --- Task configuration diff.
    struct TaskChange
    {
        std::string task, metric, before, after;
    };
    std::vector<TaskChange> task_changes;
    for (const auto &t : after.tasks()) {
        const uir::Task *old_t = before.taskByName(t->name());
        if (old_t == nullptr) {
            task_changes.push_back({t->name(), "(new task)", "-",
                                    fmt("%u nodes", t->numNodes())});
            continue;
        }
        auto row = [&](const char *metric, uint64_t a, uint64_t b2) {
            if (a != b2)
                task_changes.push_back(
                    {t->name(), metric,
                     fmt("%llu", (unsigned long long)a),
                     fmt("%llu", (unsigned long long)b2)});
        };
        row("tiles", old_t->numTiles(), t->numTiles());
        row("queue", old_t->queueDepth(), t->queueDepth());
        row("nodes", old_t->numNodes(), t->numNodes());
        row("edges", old_t->numEdges(), t->numEdges());
        row("junction R", old_t->junctionReadPorts(),
            t->junctionReadPorts());
        if (old_t->isLoop() && t->isLoop())
            row("ctrl stages", old_t->loopControl()->ctrlStages(),
                t->loopControl()->ctrlStages());
    }

    // --- Structure diff.
    struct StructChange
    {
        std::string name, before, after;
    };
    std::vector<StructChange> struct_changes;
    for (const auto &s : after.structures()) {
        const uir::Structure *old_s = before.structureByName(s->name());
        if (old_s == nullptr)
            struct_changes.push_back(
                {s->name(), "(absent)", structureDesc(*s)});
        else if (structureDesc(*old_s) != structureDesc(*s))
            struct_changes.push_back({s->name(), structureDesc(*old_s),
                                      structureDesc(*s)});
    }
    for (const auto &s : before.structures())
        if (after.structureByName(s->name()) == nullptr)
            struct_changes.push_back(
                {s->name(), structureDesc(*s), "(removed)"});

    // --- Whole-graph and FIRRTL-level deltas.
    rtl::FirrtlCircuit fa = rtl::lowerToFirrtl(before);
    rtl::FirrtlCircuit fb = rtl::lowerToFirrtl(after);
    rtl::CircuitDelta delta = rtl::diffCircuits(fa, fb);

    bool differs = !task_changes.empty() || !struct_changes.empty() ||
                   before.numNodes() != after.numNodes() ||
                   before.numEdges() != after.numEdges() ||
                   delta.nodesChanged != 0 || delta.edgesChanged != 0;

    if (json) {
        std::ostringstream os;
        JsonWriter jw(os);
        jw.beginObject();
        jw.field("mode", "design");
        jw.field("workload", workload);
        jw.field("differs", differs);
        jw.beginArray("task_changes");
        for (const auto &c : task_changes) {
            jw.beginObject();
            jw.field("task", c.task);
            jw.field("metric", c.metric);
            jw.field("before", c.before);
            jw.field("after", c.after);
            jw.end();
        }
        jw.end();
        jw.beginArray("structure_changes");
        for (const auto &c : struct_changes) {
            jw.beginObject();
            jw.field("structure", c.name);
            jw.field("before", c.before);
            jw.field("after", c.after);
            jw.end();
        }
        jw.end();
        jw.beginObject("uir");
        jw.field("nodes_before", uint64_t(before.numNodes()));
        jw.field("nodes_after", uint64_t(after.numNodes()));
        jw.field("edges_before", uint64_t(before.numEdges()));
        jw.field("edges_after", uint64_t(after.numEdges()));
        jw.end();
        jw.beginObject("firrtl");
        jw.field("nodes_before", uint64_t(fa.numNodes()));
        jw.field("nodes_after", uint64_t(fb.numNodes()));
        jw.field("nodes_changed", uint64_t(delta.nodesChanged));
        jw.field("edges_changed", uint64_t(delta.edgesChanged));
        jw.end();
        jw.end();
        os << "\n";
        std::fputs(os.str().c_str(), stdout);
        return differs ? 1 : 0;
    }

    AsciiTable tasks({"task", "metric", "before", "after"});
    for (const auto &c : task_changes)
        tasks.addRow({c.task, c.metric, c.before, c.after});
    std::printf("%s", tasks.render("Task configuration changes").c_str());
    AsciiTable structs({"structure", "before", "after"});
    for (const auto &c : struct_changes)
        structs.addRow({c.name, c.before, c.after});
    std::printf("%s", structs.render("Structure changes").c_str());
    AsciiTable summary({"level", "nodes before", "nodes after",
                        "nodes changed", "edges changed"});
    summary.addRow({"µIR", fmt("%u", before.numNodes()),
                    fmt("%u", after.numNodes()),
                    fmt("%d", int(after.numNodes()) -
                                  int(before.numNodes())),
                    fmt("%d", int(after.numEdges()) -
                                  int(before.numEdges()))});
    summary.addRow({"FIRRTL", fmt("%u", fa.numNodes()),
                    fmt("%u", fb.numNodes()),
                    fmt("%u", delta.nodesChanged),
                    fmt("%u", delta.edgesChanged)});
    std::printf("%s", summary.render("Graph deltas (µIR vs FIRRTL "
                                     "elaboration)")
                          .c_str());
    std::printf("designs %s\n", differs ? "DIFFER" : "are identical");
    return differs ? 1 : 0;
}

// ---------------------------------------------------------------------
// Dynamic mode: run reports (muirc --report-json).
// ---------------------------------------------------------------------

/** One per-pass step of the speedup waterfall. */
struct WaterfallStep
{
    std::string pass;
    uint64_t cycles = 0;
    /** Speedup contributed by this pass alone (prev / cycles). */
    double stepSpeedup = 1.0;
};

std::vector<WaterfallStep>
buildWaterfall(const JsonValue &report)
{
    std::vector<WaterfallStep> steps;
    const JsonValue *passes = report.get("passes");
    if (passes == nullptr || !passes->isArray())
        return steps;
    const JsonValue *base = report.get("baseline_cycles");
    uint64_t prev = base != nullptr ? base->asU64() : 0;
    for (const auto &rec : passes->items) {
        const JsonValue *cycles = rec.get("cycles_after");
        if (cycles == nullptr)
            continue;
        WaterfallStep step;
        const JsonValue *name = rec.get("name");
        step.pass = name != nullptr ? name->asString() : "?";
        step.cycles = cycles->asU64();
        step.stepSpeedup =
            (prev != 0 && step.cycles != 0)
                ? double(prev) / double(step.cycles)
                : 1.0;
        prev = step.cycles;
        steps.push_back(step);
    }
    return steps;
}

/** Per-task critical cycles: execute plus every critical stall. */
uint64_t
taskCriticalCycles(const JsonValue &task)
{
    uint64_t total = 0;
    const JsonValue *exec = task.get("critical_execute");
    if (exec != nullptr)
        total += exec->asU64();
    const JsonValue *stalls = task.get("critical_stalls");
    if (stalls != nullptr)
        for (const auto &[name, v] : stalls->members)
            total += v.asU64();
    return total;
}

/**
 * μmeter hostperf comparison. Host-side numbers are noisy, so unlike
 * the cycle fields they diff inside a tolerance band: only a wall or
 * throughput swing beyond ±tolerance flips the reports to DIFFER.
 */
struct HostPerfDelta
{
    /** Both reports carried a muir.hostperf.v1 section. */
    bool present = false;
    double wallBefore = 0.0, wallAfter = 0.0;
    double epsBefore = 0.0, epsAfter = 0.0;
    double cpsBefore = 0.0, cpsAfter = 0.0;
    double wallDeltaPct = 0.0, epsDeltaPct = 0.0;
    bool exceeded = false;
};

double
deltaPct(double before, double after)
{
    return before > 0.0 ? 100.0 * (after - before) / before : 0.0;
}

HostPerfDelta
diffHostPerf(const JsonValue &before, const JsonValue &after,
             double tolerance_pct)
{
    HostPerfDelta d;
    const JsonValue *hb = before.get("hostperf");
    const JsonValue *ha = after.get("hostperf");
    if (hb == nullptr || ha == nullptr)
        return d; // older reports: skip leniently
    d.present = true;
    auto num = [](const JsonValue *h, const char *k1,
                  const char *k2) -> double {
        const JsonValue *v = h->get(k1, k2);
        return v != nullptr ? v->asDouble() : 0.0;
    };
    d.wallBefore = num(hb, "phases", "total_ms");
    d.wallAfter = num(ha, "phases", "total_ms");
    d.epsBefore = num(hb, "sim", "events_per_sec");
    d.epsAfter = num(ha, "sim", "events_per_sec");
    d.cpsBefore = num(hb, "sim", "sim_cycles_per_wall_sec");
    d.cpsAfter = num(ha, "sim", "sim_cycles_per_wall_sec");
    d.wallDeltaPct = deltaPct(d.wallBefore, d.wallAfter);
    d.epsDeltaPct = deltaPct(d.epsBefore, d.epsAfter);
    d.exceeded = std::abs(d.wallDeltaPct) > tolerance_pct ||
                 std::abs(d.epsDeltaPct) > tolerance_pct;
    return d;
}

int
diffReports(const std::string &before_path,
            const std::string &after_path, bool json,
            double wall_tolerance)
{
    std::string before_text, after_text;
    if (!slurp(before_path, before_text) ||
        !slurp(after_path, after_text))
        return 2;
    JsonValue before, after;
    std::string error;
    if (!jsonParse(before_text, &before, &error)) {
        std::fprintf(stderr, "muir-diff: %s: %s\n", before_path.c_str(),
                     error.c_str());
        return 2;
    }
    if (!jsonParse(after_text, &after, &error)) {
        std::fprintf(stderr, "muir-diff: %s: %s\n", after_path.c_str(),
                     error.c_str());
        return 2;
    }
    const JsonValue *bc = before.get("cycles");
    const JsonValue *ac = after.get("cycles");
    if (bc == nullptr || ac == nullptr || !before.get("profile") ||
        !after.get("profile")) {
        std::fprintf(stderr,
                     "muir-diff: --report needs muirc --report-json "
                     "files (missing cycles/profile)\n");
        return 2;
    }
    uint64_t cycles_before = bc->asU64(), cycles_after = ac->asU64();
    double speedup = cycles_after != 0
                         ? double(cycles_before) / double(cycles_after)
                         : 0.0;

    // Per-stall-class deltas, critical (non-overlapped) and raw.
    struct ClassDelta
    {
        std::string name;
        uint64_t critBefore = 0, critAfter = 0;
        uint64_t rawBefore = 0, rawAfter = 0;
    };
    std::vector<ClassDelta> classes;
    for (size_t i = 0; i < sim::kNumStallClasses; ++i) {
        ClassDelta d;
        d.name = sim::stallClassName(static_cast<sim::StallClass>(i));
        const JsonValue *v;
        if ((v = before.get("profile", "critical_stalls")) &&
            (v = v->get(d.name)))
            d.critBefore = v->asU64();
        if ((v = after.get("profile", "critical_stalls")) &&
            (v = v->get(d.name)))
            d.critAfter = v->asU64();
        if ((v = before.get("profile", "raw_stalls")) &&
            (v = v->get(d.name)))
            d.rawBefore = v->asU64();
        if ((v = after.get("profile", "raw_stalls")) &&
            (v = v->get(d.name)))
            d.rawAfter = v->asU64();
        classes.push_back(d);
    }

    // Per-task critical-cycle deltas over the union of task names.
    std::map<std::string, std::pair<uint64_t, uint64_t>> task_cycles;
    if (const JsonValue *tasks = before.get("profile", "tasks"))
        for (const auto &[name, t] : tasks->members)
            task_cycles[name].first = taskCriticalCycles(t);
    if (const JsonValue *tasks = after.get("profile", "tasks"))
        for (const auto &[name, t] : tasks->members)
            task_cycles[name].second = taskCriticalCycles(t);

    auto waterfall_before = buildWaterfall(before);
    auto waterfall_after = buildWaterfall(after);

    bool differs = cycles_before != cycles_after;
    for (const auto &d : classes)
        differs = differs || d.critBefore != d.critAfter ||
                  d.rawBefore != d.rawAfter;
    for (const auto &[name, bq] : task_cycles)
        differs = differs || bq.first != bq.second;
    HostPerfDelta host = diffHostPerf(before, after, wall_tolerance);
    differs = differs || host.exceeded;

    if (json) {
        std::ostringstream os;
        JsonWriter jw(os);
        jw.beginObject();
        jw.field("mode", "report");
        jw.field("differs", differs);
        jw.field("cycles_before", cycles_before);
        jw.field("cycles_after", cycles_after);
        jw.field("speedup", speedup);
        jw.beginArray("stall_classes");
        for (const auto &d : classes) {
            jw.beginObject();
            jw.field("class", d.name);
            jw.field("critical_before", d.critBefore);
            jw.field("critical_after", d.critAfter);
            jw.field("raw_before", d.rawBefore);
            jw.field("raw_after", d.rawAfter);
            jw.end();
        }
        jw.end();
        jw.beginArray("tasks");
        for (const auto &[name, bq] : task_cycles) {
            jw.beginObject();
            jw.field("task", name);
            jw.field("critical_before", bq.first);
            jw.field("critical_after", bq.second);
            jw.end();
        }
        jw.end();
        auto emitWaterfall = [&](const char *key,
                                 const std::vector<WaterfallStep> &wf) {
            jw.beginArray(key);
            for (const auto &s : wf) {
                jw.beginObject();
                jw.field("pass", s.pass);
                jw.field("cycles", s.cycles);
                jw.field("step_speedup", s.stepSpeedup);
                jw.end();
            }
            jw.end();
        };
        emitWaterfall("waterfall_before", waterfall_before);
        emitWaterfall("waterfall_after", waterfall_after);
        jw.beginObject("hostperf");
        jw.field("present", host.present);
        jw.field("tolerance_pct", wall_tolerance);
        jw.field("exceeded", host.exceeded);
        jw.field("wall_ms_before", host.wallBefore);
        jw.field("wall_ms_after", host.wallAfter);
        jw.field("wall_delta_pct", host.wallDeltaPct);
        jw.field("events_per_sec_before", host.epsBefore);
        jw.field("events_per_sec_after", host.epsAfter);
        jw.field("events_per_sec_delta_pct", host.epsDeltaPct);
        jw.field("sim_cycles_per_wall_sec_before", host.cpsBefore);
        jw.field("sim_cycles_per_wall_sec_after", host.cpsAfter);
        jw.end();
        jw.end();
        os << "\n";
        std::fputs(os.str().c_str(), stdout);
        return differs ? 1 : 0;
    }

    AsciiTable head({"metric", "before", "after", "delta"});
    head.addRow({"cycles", fmt("%llu", (unsigned long long)cycles_before),
                 fmt("%llu", (unsigned long long)cycles_after),
                 fmtPct(cycles_before, cycles_after)});
    head.addRow({"speedup", "1.00x", fmt("%.2fx", speedup), ""});
    std::printf("%s", head.render(fmt("µscope report diff: %s → %s",
                                      before_path.c_str(),
                                      after_path.c_str()))
                          .c_str());

    AsciiTable stalls({"stall class", "crit before", "crit after",
                       "crit Δ", "raw Δ"});
    for (const auto &d : classes) {
        if (d.critBefore == 0 && d.critAfter == 0 && d.rawBefore == 0 &&
            d.rawAfter == 0)
            continue;
        stalls.addRow(
            {d.name, fmt("%llu", (unsigned long long)d.critBefore),
             fmt("%llu", (unsigned long long)d.critAfter),
             fmtDelta(int64_t(d.critAfter) - int64_t(d.critBefore)),
             fmtDelta(int64_t(d.rawAfter) - int64_t(d.rawBefore))});
    }
    std::printf("%s",
                stalls.render("Per-class stall deltas (cycles)").c_str());

    AsciiTable tasks({"task", "crit before", "crit after", "delta"});
    for (const auto &[name, bq] : task_cycles)
        if (bq.first != bq.second)
            tasks.addRow({name,
                          fmt("%llu", (unsigned long long)bq.first),
                          fmt("%llu", (unsigned long long)bq.second),
                          fmtDelta(int64_t(bq.second) -
                                   int64_t(bq.first))});
    std::printf("%s",
                tasks.render("Per-task critical-cycle deltas").c_str());

    auto printWaterfall = [&](const char *title,
                              const std::vector<WaterfallStep> &wf) {
        if (wf.empty())
            return;
        AsciiTable t({"pass", "cycles after", "step speedup"});
        for (const auto &s : wf)
            t.addRow({s.pass, fmt("%llu", (unsigned long long)s.cycles),
                      fmt("%.2fx", s.stepSpeedup)});
        std::printf("%s", t.render(title).c_str());
    };
    printWaterfall("Pass speedup waterfall (before report)",
                   waterfall_before);
    printWaterfall("Pass speedup waterfall (after report)",
                   waterfall_after);

    if (host.present) {
        AsciiTable hp({"host metric", "before", "after", "delta"});
        hp.addRow({"wall ms", fmt("%.1f", host.wallBefore),
                   fmt("%.1f", host.wallAfter),
                   fmt("%+.1f%%", host.wallDeltaPct)});
        hp.addRow({"events/sec", fmt("%.0f", host.epsBefore),
                   fmt("%.0f", host.epsAfter),
                   fmt("%+.1f%%", host.epsDeltaPct)});
        hp.addRow({"sim cycles/sec", fmt("%.0f", host.cpsBefore),
                   fmt("%.0f", host.cpsAfter), ""});
        std::printf("%s", hp.render(fmt("Host perf (µmeter), "
                                        "tolerance ±%.0f%%",
                                        wall_tolerance))
                              .c_str());
        if (host.exceeded)
            std::printf("host perf drifted beyond the ±%.0f%% band\n",
                        wall_tolerance);
    }
    std::printf("reports %s\n", differs ? "DIFFER" : "are identical");
    return differs ? 1 : 0;
}

void
usage(FILE *out)
{
    std::fputs("usage: muir-diff --workload <name> <before.uirx> "
               "<after.uirx> [--json]\n"
               "       muir-diff --report <before.json> <after.json> "
               "[--json] [--wall-tolerance <pct>]\n"
               "  --wall-tolerance <pct>  band for the µmeter hostperf "
               "section: wall-clock or\n"
               "                          events/sec swings beyond "
               "±pct% count as a diff\n"
               "                          (default 50; host numbers "
               "are noisy)\n"
               "exit status: 0 identical, 1 differ, 2 usage/input "
               "error\n",
               out);
}

} // namespace

int
main(int argc, char **argv)
{
    setVerbose(false);
    std::string workload, before_path, after_path;
    bool report_mode = false, json = false;
    double wall_tolerance = 50.0;
    for (int i = 1; i < argc; ++i) {
        std::string arg = argv[i];
        if (arg == "--workload" && i + 1 < argc) {
            workload = argv[++i];
        } else if (arg == "--report") {
            report_mode = true;
        } else if (arg == "--json") {
            json = true;
        } else if (arg == "--wall-tolerance" && i + 1 < argc) {
            const char *text = argv[++i];
            char *end = nullptr;
            wall_tolerance = std::strtod(text, &end);
            if (end == text || *end != '\0' ||
                !(wall_tolerance > 0.0) || wall_tolerance > 100000.0) {
                std::fprintf(stderr,
                             "muir-diff: --wall-tolerance wants a "
                             "positive percentage, got '%s'\n",
                             text);
                return 2;
            }
        } else if (arg == "--help" || arg == "-h") {
            usage(stdout);
            return 0;
        } else if (!arg.empty() && arg[0] == '-') {
            std::fprintf(stderr, "muir-diff: unknown option %s\n",
                         arg.c_str());
            usage(stderr);
            return 2;
        } else if (before_path.empty()) {
            before_path = arg;
        } else if (after_path.empty()) {
            after_path = arg;
        } else {
            std::fprintf(stderr, "muir-diff: extra argument %s\n",
                         arg.c_str());
            usage(stderr);
            return 2;
        }
    }
    if (before_path.empty() || after_path.empty() ||
        (report_mode && !workload.empty()) ||
        (!report_mode && workload.empty())) {
        usage(stderr);
        return 2;
    }
    return report_mode ? diffReports(before_path, after_path, json,
                                     wall_tolerance)
                       : diffDesigns(workload, before_path, after_path,
                                     json);
}
