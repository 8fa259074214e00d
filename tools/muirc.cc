/**
 * @file
 * muirc — the μIR command-line driver. Runs the full toolchain on a
 * built-in workload: lower, optimize with a named pass pipeline,
 * simulate, synthesize, and emit artifacts.
 *
 *   muirc --workload gemm --passes queue,localize,fusion --report
 *   muirc --workload saxpy --passes tile:4 --emit-chisel out.scala
 *   muirc --workload fft --emit-dot fft.dot --emit-uir fft.uir
 *   muirc --list
 *
 * Pass pipeline syntax: comma-separated names with optional ":<arg>"
 * parameters — queue[:depth], tile[:n], localize[:maxkb], bank[:n],
 * fusion[:budget_x100], tensor.
 */
#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include <chrono>

#include "cost/cost_model.hh"
#include "sim/exec.hh"
#include "sim/profile.hh"
#include "sim/timeline.hh"
#include "sim/timing.hh"
#include "support/json.hh"
#include "support/metrics.hh"
#include "ir/transforms/loop_unroll.hh"
#include "rtl/chisel.hh"
#include "rtl/firrtl.hh"
#include "rtl/verilog.hh"
#include "support/logging.hh"
#include "support/strings.hh"
#include "support/table.hh"
#include "uir/analysis/bound_report.hh"
#include "uir/lint/lint.hh"
#include "uir/printer.hh"
#include "uir/serialize.hh"
#include "uopt/pipeline.hh"
#include "workloads/driver.hh"
#include "workloads/workload.hh"

using namespace muir;

namespace
{

void
usage()
{
    std::printf(
        "muirc — µIR accelerator toolchain driver\n\n"
        "  --workload <name>     built-in workload to compile\n"
        "  --list                list available workloads\n"
        "  --unroll <factor>    behaviour-level loop unrolling before lowering\n"
        "  --passes <p1,p2,...>  µopt pipeline: queue[:depth] tile[:n]\n"
        "                        localize[:maxkb] bank[:n]\n"
        "                        fusion[:budget%%] tensor\n"
        "  --lint                run µlint static checks on the graph\n"
        "  --lint-json <file>    write µlint diagnostics as JSON\n"
        "  --analyze             µbound: print static throughput bounds\n"
        "                        (per-task II, footprints, bottleneck)\n"
        "                        and run the analysis-backed checks\n"
        "  --analyze-json <file> write the µbound report as JSON\n"
        "                        (muir.static.v1 schema)\n"
        "  --analyze-section <s> limit --analyze output to one section:\n"
        "                        bottleneck, ii, footprint, all\n"
        "  --Werror              treat lint/analyze warnings as errors\n"
        "  --report              print cycles/synthesis report\n"
        "  --stats               print simulator activity counters\n"
        "  --emit-chisel <file>  write generated Chisel RTL\n"
        "  --emit-verilog <file> write structural Verilog\n"
        "  --emit-dot <file>     write Graphviz of the µIR graph\n"
        "  --emit-uir <file>     write the textual µIR dump\n"
        "  --save-graph <file>   checkpoint the (optimized) graph\n"
        "  --load-graph <file>   load a checkpointed graph instead of\n"
        "                        lowering (workload still supplies data)\n"
        "  --trace <file>        write a per-event timeline CSV\n"
        "  --profile             µprof: print cycle/stall attribution\n"
        "  --critical-path       µprof: print the ranked critical path\n"
        "  --timeline            µscope: print windowed telemetry\n"
        "                        (utilization, DRAM, stall heatmap)\n"
        "  --timeline-windows <n> timeline window-count target\n"
        "                        (default auto, ~256)\n"
        "  --emit-trace-json <f> write a Chrome trace-event (Perfetto)\n"
        "                        JSON timeline\n"
        "  --report-json <file>  write the full run report as JSON\n"
        "                        (graph, passes, cycles, stats, profile)\n"
        "  --host-metrics <s>    µmeter: print host-side performance\n"
        "                        metrics — wall-clock phases, simulator\n"
        "                        events/sec, worker-pool use;\n"
        "                        section: all, phases, pool, sim\n"
        "  --metrics-json <file> write host metrics as JSON\n"
        "                        (muir.hostperf.v1 schema; also embedded\n"
        "                        in --report-json)\n"
        "  --inject <spec>       µfit: inject faults; spec is\n"
        "                        kind[@site][:bit=N][:edge=N]\n"
        "                        [:attempts=N] with kind one of\n"
        "                        tokendrop tokendup stuckvalid dataflip\n"
        "                        memflip dramtimeout lostspawn lostsync\n"
        "                        mix\n"
        "  --campaign <N>        µfit: run N seeded injections and\n"
        "                        print the outcome histogram\n"
        "  --seed <S>            µfit: campaign seed (default 1)\n"
        "  --campaign-json <f>   µfit: write the campaign results JSON\n"
        "  --jobs <N>            µfit: run campaign injections on up to\n"
        "                        N threads (default: MUIR_JOBS, else\n"
        "                        hardware concurrency; results are\n"
        "                        identical at any job count)\n"
        "  --max-cycles <N>      arm the hang watchdog with a cycle\n"
        "                        budget on every run (plain simulations\n"
        "                        included): a run past the budget exits\n"
        "                        3 with the watchdog's root-cause dump\n"
        "                        instead of running unbounded; also\n"
        "                        bounds campaign runs\n"
        "  --emit-firrtl-stats   print circuit-level elaboration size\n"
        "  --quiet               suppress pass progress chatter\n"
        "\n"
        "exit codes:\n"
        "  0  success\n"
        "  1  runtime failure: functional check, lint/analyze finding\n"
        "     at or above the blocking severity, or an unwritable\n"
        "     output file\n"
        "  2  usage error: unknown option/workload, malformed value,\n"
        "     or unreadable input file\n"
        "  3  watchdog: the --max-cycles budget was exceeded or the\n"
        "     deadlock watchdog tripped (root-cause dump on stderr)\n");
}

bool
writeFile(const std::string &path, const std::string &content)
{
    std::ofstream out(path);
    if (!out) {
        std::fprintf(stderr, "muirc: cannot write %s\n", path.c_str());
        return false;
    }
    out << content;
    return true;
}

} // namespace

int
main(int argc, char **argv)
{
    std::string workload, passes, emit_chisel, emit_dot, emit_uir;
    std::string emit_verilog, save_graph, load_graph, trace_path;
    std::string lint_json, trace_json, report_json;
    std::string analyze_json, analyze_section = "all";
    std::string inject_spec, campaign_json;
    std::string metrics_json, host_metrics_section = "all";
    bool host_metrics = false;
    unsigned unroll = 1, campaign_runs = 0, campaign_jobs = 0;
    uint64_t campaign_seed = 1, max_cycles = 0;
    bool report = false, stats = false, firrtl_stats = false;
    bool lint = false, werror = false, analyze = false;
    bool profile = false, critical_path = false;
    bool timeline = false;
    unsigned timeline_windows = 0;
    bool watchdog = false;

    for (int i = 1; i < argc; ++i) {
        std::string arg = argv[i];
        auto next = [&]() -> const char * {
            if (i + 1 >= argc) {
                std::fprintf(stderr, "muirc: %s needs a value\n",
                             arg.c_str());
                std::exit(2);
            }
            return argv[++i];
        };
        if (arg == "--workload") {
            workload = next();
        } else if (arg == "--passes") {
            passes = next();
        } else if (arg == "--unroll") {
            const char *v = next();
            if (!parsePositive(v, unroll)) {
                std::fprintf(stderr,
                             "muirc: --unroll '%s' is not a positive "
                             "integer\n", v);
                return 2;
            }
        } else if (arg == "--lint") {
            lint = true;
        } else if (arg == "--lint-json") {
            lint_json = next();
            lint = true;
        } else if (arg == "--analyze") {
            analyze = true;
        } else if (arg == "--analyze-json") {
            analyze_json = next();
            analyze = true;
        } else if (arg == "--analyze-section") {
            analyze_section = next();
            analyze = true;
            const auto &sections = uir::analysis::analysisSectionNames();
            if (std::find(sections.begin(), sections.end(),
                          analyze_section) == sections.end()) {
                std::fprintf(
                    stderr,
                    "muirc: unknown analyze section '%s' (valid: %s)\n",
                    analyze_section.c_str(),
                    join(sections, ", ").c_str());
                return 2;
            }
        } else if (arg == "--Werror") {
            werror = true;
        } else if (arg == "--emit-chisel") {
            emit_chisel = next();
        } else if (arg == "--emit-verilog") {
            emit_verilog = next();
        } else if (arg == "--emit-dot") {
            emit_dot = next();
        } else if (arg == "--emit-uir") {
            emit_uir = next();
        } else if (arg == "--save-graph") {
            save_graph = next();
        } else if (arg == "--load-graph") {
            load_graph = next();
        } else if (arg == "--trace") {
            trace_path = next();
        } else if (arg == "--profile") {
            profile = true;
        } else if (arg == "--critical-path") {
            critical_path = true;
        } else if (arg == "--timeline") {
            timeline = true;
        } else if (arg == "--timeline-windows") {
            const char *v = next();
            if (!parsePositive(v, timeline_windows)) {
                std::fprintf(stderr,
                             "muirc: --timeline-windows '%s' is not a "
                             "positive integer\n", v);
                return 2;
            }
        } else if (arg == "--emit-trace-json") {
            trace_json = next();
        } else if (arg == "--report-json") {
            report_json = next();
        } else if (arg == "--host-metrics") {
            host_metrics_section = next();
            host_metrics = true;
            const auto &sections = metrics::hostMetricsSectionNames();
            if (std::find(sections.begin(), sections.end(),
                          host_metrics_section) == sections.end()) {
                std::fprintf(
                    stderr,
                    "muirc: unknown host-metrics section '%s' "
                    "(valid: %s)\n",
                    host_metrics_section.c_str(),
                    join(sections, ", ").c_str());
                return 2;
            }
        } else if (arg == "--metrics-json") {
            metrics_json = next();
        } else if (arg == "--inject") {
            inject_spec = next();
        } else if (arg == "--campaign") {
            const char *v = next();
            if (!parsePositive(v, campaign_runs)) {
                std::fprintf(stderr,
                             "muirc: --campaign '%s' is not a positive "
                             "integer\n", v);
                return 2;
            }
        } else if (arg == "--seed") {
            const char *v = next();
            if (!parseU64(v, campaign_seed)) {
                std::fprintf(stderr,
                             "muirc: --seed '%s' is not an unsigned "
                             "integer\n", v);
                return 2;
            }
        } else if (arg == "--campaign-json") {
            campaign_json = next();
        } else if (arg == "--jobs") {
            const char *v = next();
            if (!parsePositive(v, campaign_jobs) ||
                campaign_jobs > 256) {
                std::fprintf(stderr,
                             "muirc: --jobs '%s' is not in 1..256\n",
                             v);
                return 2;
            }
        } else if (arg == "--max-cycles") {
            const char *v = next();
            if (!parseU64(v, max_cycles) || max_cycles == 0) {
                std::fprintf(stderr,
                             "muirc: --max-cycles '%s' is not a "
                             "positive integer\n", v);
                return 2;
            }
            watchdog = true;
        } else if (arg == "--report") {
            report = true;
        } else if (arg == "--stats") {
            stats = true;
        } else if (arg == "--emit-firrtl-stats") {
            firrtl_stats = true;
        } else if (arg == "--quiet") {
            setVerbose(false);
        } else if (arg == "--list") {
            for (const auto &name : workloads::workloadNames()) {
                auto w = workloads::buildWorkload(name);
                std::printf("%-10s %-11s %s%s%s\n", name.c_str(),
                            workloads::suiteName(w.suite),
                            w.usesFp ? "fp " : "",
                            w.usesTensor ? "tensor " : "",
                            w.usesSpawn ? "cilk" : "");
            }
            return 0;
        } else if (arg == "--help" || arg == "-h") {
            usage();
            return 0;
        } else {
            std::fprintf(stderr, "muirc: unknown option %s\n",
                         arg.c_str());
            usage();
            return 2;
        }
    }

    if (workload.empty()) {
        usage();
        return 2;
    }

    // Validate the workload name up front so a typo gets a one-line
    // diagnostic with the valid choices instead of a fatal abort.
    auto names = workloads::workloadNames();
    if (std::find(names.begin(), names.end(), workload) == names.end()) {
        std::fprintf(stderr,
                     "muirc: unknown workload '%s' (valid: %s)\n",
                     workload.c_str(), join(names, ", ").c_str());
        return 2;
    }

    // µmeter: one registry for the whole invocation. Counters are
    // aggregates over every simulation this run performs (including
    // per-pass cycle probes and campaign injections); a plain run with
    // --metrics-json is the per-workload clean-room measurement.
    bool want_metrics = host_metrics || !metrics_json.empty() ||
                        !report_json.empty();
    metrics::Registry host_registry;
    std::unique_ptr<metrics::ScopedSink> host_sink;
    if (want_metrics)
        host_sink =
            std::make_unique<metrics::ScopedSink>(&host_registry);
    auto phase_mark = std::chrono::steady_clock::now();
    // Close the current phase segment into a named timer; segments
    // not bracketed by notePhase (lint, analyze, emission) stay out
    // of the three phase buckets by re-marking before the next one.
    auto notePhase = [&](const char *name) {
        auto now = std::chrono::steady_clock::now();
        if (metrics::Registry *m = metrics::sink())
            m->timerAdd(name,
                        std::chrono::duration<double, std::milli>(
                            now - phase_mark)
                            .count());
        phase_mark = now;
    };
    auto markPhase = [&] {
        phase_mark = std::chrono::steady_clock::now();
    };
    auto emitMetrics = [&]() -> bool {
        if (!want_metrics)
            return true;
        auto snapshot = host_registry.snapshot();
        if (host_metrics)
            std::printf("%s",
                        metrics::renderHostMetricsText(
                            snapshot, host_metrics_section)
                            .c_str());
        if (!metrics_json.empty() &&
            !writeFile(metrics_json,
                       metrics::hostPerfJson(snapshot, workload) +
                           "\n"))
            return false;
        return true;
    };

    auto w = workloads::buildWorkload(workload);
    if (unroll > 1) {
        ir::UnrollOptions uopts;
        uopts.factor = unroll;
        unsigned n = ir::unrollLoops(*w.module->function(w.kernel),
                                     uopts);
        muir_inform("unrolled %u loops by %u", n, unroll);
    }
    std::unique_ptr<uir::Accelerator> accel;
    if (!load_graph.empty()) {
        std::ifstream in(load_graph);
        if (!in) {
            std::fprintf(stderr, "muirc: cannot read input file '%s'\n",
                         load_graph.c_str());
            return 2;
        }
        std::stringstream buf;
        buf << in.rdbuf();
        auto parsed = uir::deserializeOrError(buf.str(), w.module.get());
        if (!parsed.ok()) {
            std::fprintf(stderr, "muirc: %s:%u: %s\n", load_graph.c_str(),
                         parsed.line, parsed.error.c_str());
            return 1;
        }
        accel = std::move(parsed.accel);
    } else {
        accel = workloads::lowerBaseline(w);
    }
    notePhase("phase.compile");

    // µprof and µscope are post-passes over the run's schedule log,
    // each built only for the outputs that print it; the CSV trace
    // reads the log alone.
    bool want_profile = profile || critical_path || !report_json.empty();
    bool want_timeline = timeline || !trace_json.empty() ||
                         !report_json.empty();
    bool want_log = want_profile || want_timeline || !trace_path.empty();

    // One analysis cache for the whole invocation: the pass pipeline
    // invalidates per its preserved sets, and --lint/--analyze reuse
    // whatever survives.
    uir::analysis::AnalysisManager am(*accel);

    uopt::PassManager pm;
    uint64_t baseline_cycles = uopt::kNoCycles;
    if (!passes.empty()) {
        std::string pipe_error;
        if (!uopt::buildPipeline(pm, passes, &pipe_error)) {
            std::fprintf(stderr, "muirc: %s\n", pipe_error.c_str());
            return 2;
        }
        pm.setAnalysisManager(&am);
        if (!report_json.empty()) {
            // Probe cycles after every pass so the report can show
            // which pass bought which speedup.
            pm.setCycleProbe([&](const uir::Accelerator &a) {
                return workloads::runOn(w, a).cycles;
            });
            baseline_cycles = workloads::runOn(w, *accel).cycles;
        }
        markPhase();
        pm.run(*accel);
        notePhase("phase.optimize");
    }

    if (analyze) {
        std::ostringstream os;
        uir::analysis::renderAnalysisText(am, analyze_section, os);
        std::fputs(os.str().c_str(), stdout);
        if (!analyze_json.empty()) {
            std::ostringstream js;
            uir::analysis::renderAnalysisJson(am, js);
            if (!writeFile(analyze_json, js.str()))
                return 1;
        }
        // Run the analysis-backed checks (A001..A003) unless --lint
        // runs them anyway as part of the standard set.
        if (!lint) {
            uir::lint::Linter bounds;
            bounds.add(uir::lint::makeMemBoundsCheck())
                .add(uir::lint::makeQueueSizeCheck())
                .add(uir::lint::makeBankConflictCheck());
            auto diags = bounds.run(*accel, &am);
            if (!diags.empty())
                std::fputs(uir::lint::renderText(diags).c_str(),
                           stderr);
            unsigned blocking = uir::lint::countAtLeast(
                diags, werror ? uir::lint::Severity::Warning
                              : uir::lint::Severity::Error);
            if (blocking > 0) {
                std::fprintf(stderr,
                             "muirc: analyze: %u blocking finding(s)\n",
                             blocking);
                return 1;
            }
        }
    }

    if (lint) {
        auto diags = uir::lint::Linter::standard().run(*accel, &am);
        if (!lint_json.empty() &&
            !writeFile(lint_json, uir::lint::renderJson(diags)))
            return 1;
        if (!diags.empty())
            std::fputs(uir::lint::renderText(diags).c_str(), stderr);
        unsigned errors = uir::lint::countAtLeast(
            diags, werror ? uir::lint::Severity::Warning
                          : uir::lint::Severity::Error);
        std::fprintf(stderr, "muirc: lint: %zu diagnostic(s), %u "
                     "blocking\n", diags.size(), errors);
        if (errors > 0)
            return 1;
    }

    markPhase();
    auto run = workloads::runOn(
        w, *accel,
        {.log = want_log, .watchdog = watchdog, .maxCycles = max_cycles});
    sim::ProfileResult prof;
    if (want_profile)
        prof = sim::buildProfile(*run.compiled, *run.log, run.cycles);
    sim::Timeline tl;
    if (want_timeline)
        tl = sim::buildTimeline(*run.compiled, *run.log, run.cycles,
                                timeline_windows);
    notePhase("phase.simulate");
    if (run.hang.tripped()) {
        // Distinct exit code: a budget/deadlock trip is neither a
        // functional failure (1) nor a usage error (2) — callers
        // (µserve, CI scripts) key retry/deadline policy off it.
        std::fprintf(stderr, "muirc: %s", run.hang.render().c_str());
        return 3;
    }
    if (!run.check.empty()) {
        std::fprintf(stderr, "muirc: FUNCTIONAL CHECK FAILED: %s\n",
                     run.check.c_str());
        return 1;
    }

    // µfit campaign: N seeded injections classified against the golden
    // run, reported as an outcome histogram (+ optional JSON).
    if (!inject_spec.empty()) {
        sim::CampaignSpec cspec;
        std::string spec_error;
        if (!sim::parseFaultSpec(inject_spec, cspec.fault, &spec_error)) {
            std::fprintf(stderr, "muirc: --inject: %s\n",
                         spec_error.c_str());
            return 2;
        }
        cspec.runs = campaign_runs ? campaign_runs : 1;
        cspec.seed = campaign_seed;
        cspec.jobs = campaign_jobs;
        cspec.maxCycles = max_cycles;
        markPhase();
        auto campaign = sim::runCampaign(
            *accel, *w.module,
            [&](ir::MemoryImage &m) { w.bind(m); }, cspec);
        notePhase("phase.simulate");
        if (!campaign.ok) {
            std::fprintf(stderr, "muirc: campaign: %s\n",
                         campaign.error.c_str());
            return 1;
        }
        AsciiTable t({"outcome", "runs", "share"});
        for (size_t o = 0; o < sim::kNumOutcomes; ++o)
            t.addRow({sim::outcomeName(static_cast<sim::Outcome>(o)),
                      fmt("%llu", (unsigned long long)
                                      campaign.histogram[o]),
                      fmt("%.1f%%", 100.0 * campaign.histogram[o] /
                                        cspec.runs)});
        std::printf("%s",
                    t.render(fmt("µfit campaign: %s, %u runs, seed %llu",
                                 inject_spec.c_str(), cspec.runs,
                                 (unsigned long long)cspec.seed)
                                 .c_str())
                        .c_str());
        if (!campaign_json.empty() &&
            !writeFile(campaign_json,
                       campaign.toJson(workload, inject_spec, cspec.runs,
                                       cspec.seed)))
            return 1;
        return emitMetrics() ? 0 : 1;
    }

    if (!trace_path.empty() &&
        !writeFile(trace_path, sim::traceCsv(*run.compiled, *run.log)))
        return 1;
    if (!trace_json.empty() &&
        !writeFile(trace_json,
                   sim::chromeTraceJson(*run.compiled, *run.log, &tl)))
        return 1;
    if (profile || critical_path)
        std::printf("%s", sim::renderProfileText(prof).c_str());
    if (timeline)
        std::printf("%s", sim::renderTimelineText(tl).c_str());
    if (!report_json.empty()) {
        auto synth = cost::synthesize(*accel);
        std::ostringstream os;
        JsonWriter jw(os);
        jw.beginObject();
        jw.field("workload", workload);
        jw.field("passes_requested", passes);
        jw.beginObject("graph");
        jw.field("tasks", uint64_t(accel->tasks().size()));
        jw.field("nodes", uint64_t(accel->numNodes()));
        jw.field("edges", uint64_t(accel->numEdges()));
        jw.end();
        jw.beginArray("passes");
        for (const auto &rec : pm.records()) {
            jw.beginObject();
            jw.field("name", rec.name);
            jw.field("wall_ms", rec.wallMs);
            jw.field("nodes_before", uint64_t(rec.nodesBefore));
            jw.field("nodes_after", uint64_t(rec.nodesAfter));
            jw.field("edges_before", uint64_t(rec.edgesBefore));
            jw.field("edges_after", uint64_t(rec.edgesAfter));
            jw.field("nodes_changed", rec.nodesChanged);
            jw.field("edges_changed", rec.edgesChanged);
            if (rec.cyclesAfter != uopt::kNoCycles)
                jw.field("cycles_after", rec.cyclesAfter);
            jw.end();
        }
        jw.end();
        if (baseline_cycles != uopt::kNoCycles)
            jw.field("baseline_cycles", baseline_cycles);
        jw.field("cycles", run.cycles);
        jw.field("firings", run.firings);
        jw.beginObject("synthesis");
        jw.field("fpga_mhz", synth.fpgaMhz);
        jw.field("fpga_mw", synth.fpgaMw);
        jw.field("alms", synth.alms);
        jw.field("regs", synth.regs);
        jw.field("dsps", uint64_t(synth.dsps));
        jw.field("asic_ghz", synth.asicGhz);
        jw.end();
        jw.rawField("stats", run.stats.toJson());
        jw.rawField("profile", sim::profileJson(prof));
        jw.rawField("timeline", sim::timelineJson(tl));
        jw.rawField("hostperf",
                    metrics::hostPerfJson(host_registry.snapshot(),
                                          workload));
        jw.end();
        os << "\n";
        if (!writeFile(report_json, os.str()))
            return 1;
    }

    if (report) {
        auto synth = cost::synthesize(*accel);
        AsciiTable t({"metric", "value"});
        t.addRow({"workload", workload});
        t.addRow({"tasks", fmt("%zu", accel->tasks().size())});
        t.addRow({"uir nodes", fmt("%u", accel->numNodes())});
        t.addRow({"uir edges", fmt("%u", accel->numEdges())});
        t.addRow({"cycles", fmt("%llu", (unsigned long long)run.cycles)});
        t.addRow({"fpga MHz", fmt("%.0f", synth.fpgaMhz)});
        t.addRow({"fpga mW", fmt("%.0f", synth.fpgaMw)});
        t.addRow({"ALMs", fmt("%.0f", synth.alms)});
        t.addRow({"regs", fmt("%.0f", synth.regs)});
        t.addRow({"DSPs", fmt("%u", synth.dsps)});
        t.addRow({"asic GHz", fmt("%.2f", synth.asicGhz)});
        t.addRow({"asic area (1e-3 mm2)", fmt("%.1f", synth.asicKum2)});
        t.addRow({"exec time (us @FPGA)",
                  fmt("%.2f", run.cycles / synth.fpgaMhz)});
        std::printf("%s", t.render("muirc report").c_str());
    }
    if (stats)
        std::printf("%s", run.stats.dump().c_str());
    if (!emitMetrics())
        return 1;
    if (firrtl_stats) {
        auto circuit = rtl::lowerToFirrtl(*accel);
        std::printf("firrtl nodes = %u\nfirrtl edges = %u\n",
                    circuit.numNodes(), circuit.numEdges());
    }
    if (!emit_chisel.empty() &&
        !writeFile(emit_chisel, rtl::emitChisel(*accel)))
        return 1;
    if (!emit_verilog.empty() &&
        !writeFile(emit_verilog, rtl::emitVerilog(*accel)))
        return 1;
    if (!emit_dot.empty() && !writeFile(emit_dot, uir::toDot(*accel)))
        return 1;
    if (!emit_uir.empty() &&
        !writeFile(emit_uir, uir::printAccelerator(*accel)))
        return 1;
    if (!save_graph.empty() &&
        !writeFile(save_graph, uir::serialize(*accel)))
        return 1;
    if (!report && !stats)
        std::printf("%s: OK (%llu cycles)\n", workload.c_str(),
                    (unsigned long long)run.cycles);
    return 0;
}
