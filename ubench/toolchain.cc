/**
 * @file
 * The two single-threaded toolchain workloads. dse_cold lowers,
 * optimizes and records every design point from scratch; replay_warm
 * replays designs compiled during set-up, so only exec, schedule and
 * check work in its loop. Traced runs time each layer through its own
 * public call and check the layers reproduce runOn's result. Work is
 * timed on the thread's CPU clock; run length on the wall clock.
 */
#include <algorithm>
#include <memory>

#include "sim/compiled_ddg.hh"
#include "sim/exec.hh"
#include "sim/timing.hh"
#include "support/logging.hh"
#include "support/strings.hh"
#include "ubench.hh"
#include "uopt/pipeline.hh"
#include "workloads/driver.hh"

namespace muir::ubench
{

namespace
{

/** dse_cold rounds every run completes: the design list that the
 *  --designs dump and sim_cycles_geomean cover. */
constexpr uint64_t kListRounds = 32;
/** dse_cold's warm sample: after every kWarmEvery-th round, each of
 *  its designs is compiled and replayed kWarmReplays times. */
constexpr uint64_t kWarmEvery = 8;
constexpr unsigned kWarmReplays = 3;
/** replay_warm sets up again after this much replaying. */
constexpr double kResetupMs = 2000;

using workloads::Workload;

size_t
indexOf(const std::vector<Workload> &programs, const std::string &name)
{
    for (size_t p = 0; p < programs.size(); ++p)
        if (programs[p].name == name)
            return p;
    muir_panic("ubench: no program %s", name.c_str());
}

/** Run the μopt pipeline @p passes; @return the number of passes. */
size_t
optimize(uir::Accelerator &accel, const std::string &passes)
{
    uopt::PassManager pm;
    std::string error;
    if (!uopt::buildPipeline(pm, passes, &error))
        muir_panic("ubench: pipeline '%s': %s", passes.c_str(),
                   error.c_str());
    pm.run(accel);
    return pm.passes().size();
}

std::unique_ptr<uir::Accelerator>
lowerAndOptimize(const Workload &w, const std::string &passes)
{
    std::unique_ptr<uir::Accelerator> accel = workloads::lowerBaseline(w);
    if (!passes.empty())
        optimize(*accel, passes);
    return accel;
}

std::string
describe(const Workload &w, const std::string &passes)
{
    return w.name + " " + (passes.empty() ? "baseline" : passes);
}

/**
 * Operations of one loop over whole rounds. Every round runs the same
 * mix of programs, so per-round rates are comparable, and their fast
 * tenth shrugs off contention on a shared host that a whole-run mean
 * would not.
 */
struct Phase
{
    Rounds latencyMs;
    std::vector<double> roundOpsPerSec;
    std::vector<double> roundEventsPerSec;

    /** Record a finished round. */
    void
    endRound(uint64_t ops, double events, CpuClock::time_point t0)
    {
        double s = msSince(t0) / 1000.0;
        roundOpsPerSec.push_back(double(ops) / s);
        roundEventsPerSec.push_back(events / s);
    }
    double opsPerSec() const { return fastRate(roundOpsPerSec); }
    /** Operations per second of operation time over the whole phase,
     *  the base that a traced phase's mean compares with. */
    double
    meanOpsPerSec() const
    {
        double ops = 0, ms = 0;
        for (const std::vector<double> &round : latencyMs)
            for (double v : round) {
                ++ops;
                ms += v;
            }
        return ms > 0 ? ops * 1000.0 / ms : 0;
    }

    /** Process peak before set-up repeats (replay_warm only). */
    double peakMb = 0;
};

/** Per-operation counts the traced layer calls add up. */
struct LayerCounts
{
    double nodes = 0;
    double nodesAfter = 0;
    double passes = 0;
    double firings = 0;
    double events = 0;
    double ddgBytes = 0;
    double compiledBytes = 0;
};

/** What the layer calls of one operation reproduced. */
struct Reproduced
{
    uint64_t cycles = 0;
    uint64_t firings = 0;
    std::string check;
};

/** Times @p fn as a child span of @p root. */
template <typename Fn>
void
timed(SpanLog &log, size_t root, const char *layer, Fn &&fn)
{
    size_t span = log.open(log.spans()[root].op, layer, int64_t(root));
    fn();
    log.close(span);
}

/**
 * One cold design point, layer by layer: lower, optimize, bare exec,
 * exec+record, compile, schedule, check. @p accel receives the
 * optimized design for the reference runOn.
 */
Reproduced
coldLayers(SpanLog &log, uint64_t op, const Workload &w,
           const std::string &passes,
           std::unique_ptr<uir::Accelerator> &accel, LayerCounts &counts)
{
    size_t root = log.open(op, "dse_cold.op", -1);
    timed(log, root, "frontend.lower",
          [&] { accel = workloads::lowerBaseline(w); });
    counts.nodes += accel->numNodes();
    timed(log, root, "uopt.optimize",
          [&] { counts.passes += optimize(*accel, passes); });
    counts.nodesAfter += accel->numNodes();

    Reproduced out;
    {
        ir::MemoryImage mem(*w.module);
        w.bind(mem);
        sim::UirExecutor exec(*accel, mem, /*record_ddg=*/false);
        timed(log, root, "sim.exec", [&] { exec.run(); });
        out.firings = exec.firings();
    }
    ir::MemoryImage mem(*w.module);
    w.bind(mem);
    sim::UirExecutor exec(*accel, mem, /*record_ddg=*/true);
    timed(log, root, "sim.exec_record", [&] { exec.run(); });
    if (exec.firings() != out.firings)
        out.firings = ~uint64_t(0); // recording changed execution
    sim::CompiledDdg compiled;
    timed(log, root, "sim.compile",
          [&] { compiled = sim::compileDdg(*accel, exec.ddg()); });
    timed(log, root, "sim.schedule",
          [&] { out.cycles = sim::scheduleDdg(compiled).cycles; });
    timed(log, root, "workloads.check", [&] { out.check = w.check(mem); });
    log.close(root);

    counts.firings += out.firings;
    counts.events += compiled.numEvents;
    counts.ddgBytes += sim::ddgBytes(exec.ddg());
    counts.compiledBytes += compiled.bytes();
    return out;
}

/** One warm replay, layer by layer: bare exec, schedule, check. */
Reproduced
warmLayers(SpanLog &log, uint64_t op, const Workload &w,
           const uir::Accelerator &accel, const sim::CompiledDdg &compiled,
           LayerCounts &counts)
{
    size_t root = log.open(op, "replay_warm.op", -1);
    Reproduced out;
    ir::MemoryImage mem(*w.module);
    w.bind(mem);
    sim::UirExecutor exec(accel, mem, /*record_ddg=*/false);
    timed(log, root, "sim.exec", [&] { exec.run(); });
    out.firings = exec.firings();
    timed(log, root, "sim.schedule",
          [&] { out.cycles = sim::scheduleDdg(compiled).cycles; });
    timed(log, root, "workloads.check", [&] { out.check = w.check(mem); });
    log.close(root);

    counts.firings += out.firings;
    counts.events += compiled.numEvents;
    counts.compiledBytes += compiled.bytes();
    return out;
}

/** Decomposition self-check: the layers must describe runOn's run. */
void
selfCheck(Result &res, const std::string &design, const Reproduced &got,
          const workloads::RunResult &want)
{
    if (got.cycles == want.cycles && got.firings == want.firings &&
        got.check == want.check)
        return;
    res.fail(fmt("%s: layer calls give cycles=%llu firings=%llu, runOn "
                 "gives cycles=%llu firings=%llu",
                 design.c_str(), (unsigned long long)got.cycles,
                 (unsigned long long)got.firings,
                 (unsigned long long)want.cycles,
                 (unsigned long long)want.firings));
}

void
goldenCheck(Result &res, const std::string &design,
            const std::string &check)
{
    if (!check.empty())
        res.fail(design + ": golden check: " + check);
}

/** The per-layer metrics of a traced run. */
void
putLayers(Result &res, const SpanLog &log, const LayerCounts &c,
          double build_ms, double untraced_ops_per_s)
{
    LayerTimes t = layerTimes(log);
    double ops = std::max<double>(1, t.ops);
    double exec = t.meanMs("sim.exec");
    double exec_record = t.meanMs("sim.exec_record");
    double schedule_s = t.meanMs("sim.schedule") * ops / 1000.0;
    auto per_event = [&](double v) { return c.events ? v / c.events : 0; };
    auto &m = res.metrics;
    m["workloads.build_ms"] = build_ms;
    m["workloads.check_ms"] = t.meanMs("workloads.check");
    m["frontend.lower_ms"] = t.meanMs("frontend.lower");
    m["frontend.nodes"] = c.nodes / ops;
    m["uopt.optimize_ms"] = t.meanMs("uopt.optimize");
    m["uopt.passes"] = c.passes / ops;
    m["uopt.nodes_after"] = c.nodesAfter / ops;
    m["sim.exec_ms"] = exec;
    m["sim.firings"] = c.firings / ops;
    m["sim.record_ms"] = exec_record > 0 ? exec_record - exec : 0;
    m["sim.events"] = c.events / ops;
    m["sim.record_over_exec"] =
        exec_record > 0 && exec > 0 ? exec_record / exec : 0;
    m["sim.ddg_bytes_per_event"] = per_event(c.ddgBytes);
    m["sim.compile_ms"] = t.meanMs("sim.compile");
    m["sim.compiled_bytes_per_event"] = per_event(c.compiledBytes);
    m["sim.schedule_ms"] = t.meanMs("sim.schedule");
    m["sim.schedule_events_per_s"] =
        schedule_s > 0 ? c.events / schedule_s : 0;
    m["trace.coverage"] = t.coverage;
    double traced_ops_per_s = t.opMs > 0 ? t.ops * 1000.0 / t.opMs : 0;
    m["trace.overhead"] = traced_ops_per_s / untraced_ops_per_s;
}

void
putEndToEnd(Result &res, const Setups &setups, const Phase &loop,
            const Rounds &cold_ms, const Rounds &warm_ms,
            const std::vector<double> &cycles)
{
    auto &m = res.metrics;
    m["setup_s"] = median(setups.totalMs) / 1000.0;
    m["ops_per_s"] = loop.opsPerSec();
    m["sim_events_per_s"] = fastRate(loop.roundEventsPerSec);
    m["cold_ms_p50"] = roundPercentile(cold_ms, 50);
    m["cold_ms_p90"] = roundPercentile(cold_ms, 90);
    m["warm_ms_p50"] = roundPercentile(warm_ms, 50);
    m["warm_ms_p90"] = roundPercentile(warm_ms, 90);
    m["sim_cycles_geomean"] = geomean(cycles);
}

/** What dse_cold sets up: the programs and the design list. */
struct DseSetup
{
    std::vector<Workload> programs;
    std::unique_ptr<DseList> list;
};

DseSetup
setUpDse(uint64_t seed, Setups &setups)
{
    CpuClock::time_point t0 = CpuClock::now();
    DseSetup s;
    double build_ms = 0;
    s.programs = buildPrograms(workloads::workloadNames(), build_ms);
    s.list = std::make_unique<DseList>(s.programs, seed);
    setups.totalMs.push_back(msSince(t0));
    setups.buildMs.push_back(build_ms);
    return s;
}

/**
 * dse_cold's warm sample: compile each design once, then replay it
 * kWarmReplays times into rounds @p warm_ms[base ..]; every replay
 * must give the direct run's cycles. One design is held at a time, as
 * in the cold loop.
 */
void
warmReplays(Result &res, const DseSetup &s,
            const std::vector<std::pair<size_t, DesignPoint>> &designs,
            Rounds &warm_ms)
{
    size_t base = warm_ms.size();
    warm_ms.resize(base + kWarmReplays);
    for (const auto &[p, d] : designs) {
        const Workload &w = s.programs[p];
        auto accel = lowerAndOptimize(w, d.passes);
        workloads::RunOptions keep;
        keep.keepCompiled = true;
        workloads::RunResult direct = workloads::runOn(w, *accel, keep);
        ++res.attempted;
        goldenCheck(res, describe(w, d.passes), direct.check);
        workloads::RunOptions replay;
        replay.compiled = direct.compiled.get();
        for (unsigned k = 0; k < kWarmReplays; ++k) {
            CpuClock::time_point t0 = CpuClock::now();
            workloads::RunResult r = workloads::runOn(w, *accel, replay);
            warm_ms[base + k].push_back(msSince(t0));
            ++res.attempted;
            if (r.cycles != direct.cycles || !r.check.empty())
                res.fail(describe(w, d.passes) +
                         ": replay differs from the direct run");
        }
    }
}

/**
 * dse_cold's untraced loop: whole rounds until @p seconds have passed
 * and at least @p min_rounds are done. Every round sets up afresh, so
 * setup_s is sampled across the run. With @p warm_ms, every
 * kWarmEvery-th round is followed (outside its timing) by the warm
 * sample of its designs.
 */
Phase
coldRounds(Result &res, uint64_t seed, Setups &setups, uint64_t &round,
           double seconds, uint64_t min_rounds, std::vector<double> *cycles,
           Rounds *warm_ms)
{
    Phase ph;
    Clock::time_point t0 = Clock::now();
    for (uint64_t done = 0;
         done < min_rounds || msSince(t0) < seconds * 1000.0;
         ++done, ++round) {
        DseSetup s = setUpDse(seed, setups);
        auto designs = s.list->round(round);
        CpuClock::time_point t_round = CpuClock::now();
        uint64_t ops = 0;
        double events = 0;
        ph.latencyMs.emplace_back();
        for (const auto &[p, d] : designs) {
            const Workload &w = s.programs[p];
            CpuClock::time_point t_op = CpuClock::now();
            auto accel = lowerAndOptimize(w, d.passes);
            workloads::RunResult r = workloads::runOn(w, *accel);
            ph.latencyMs.back().push_back(msSince(t_op));
            ++res.attempted;
            if (!r.check.empty()) {
                goldenCheck(res, describe(w, d.passes), r.check);
                continue;
            }
            ++ops;
            events += double(r.stats.get("events"));
            if (cycles && done < kListRounds)
                cycles->push_back(double(r.cycles));
        }
        ph.endRound(ops, events, t_round);
        if (warm_ms && round % kWarmEvery == 0)
            warmReplays(res, s, designs, *warm_ms);
    }
    return ph;
}

} // namespace

Result
runDseCold(const Args &args)
{
    Result res;
    Setups setups;
    if (!args.designsPath.empty()) {
        DseSetup s = setUpDse(args.seed, setups);
        std::vector<DesignPoint> designs;
        for (uint64_t r = 0; r < kListRounds; ++r)
            for (auto &[p, d] : s.list->round(r))
                designs.push_back(std::move(d));
        writeDesigns(args.designsPath, designs);
    }

    uint64_t round = 0;
    if (!args.trace) {
        std::vector<double> cycles;
        Rounds warm_ms;
        Phase loop = coldRounds(res, args.seed, setups, round, args.seconds,
                                kListRounds, &cycles, &warm_ms);
        res.metrics["peak_rss_mb"] = peakRssMb();
        putEndToEnd(res, setups, loop, loop.latencyMs, warm_ms, cycles);
        return res;
    }

    // Traced run: an untraced half for trace.overhead's base, then the
    // layer-by-layer half.
    Phase untraced = coldRounds(res, args.seed, setups, round,
                                args.seconds / 2, 1, nullptr, nullptr);
    SpanLog log;
    LayerCounts counts;
    Clock::time_point t0 = Clock::now();
    for (uint64_t op = 0; op == 0 || msSince(t0) < args.seconds * 500.0;
         ++round) {
        DseSetup s = setUpDse(args.seed, setups);
        for (const auto &[p, d] : s.list->round(round)) {
            const Workload &w = s.programs[p];
            std::unique_ptr<uir::Accelerator> accel;
            Reproduced got =
                coldLayers(log, op++, w, d.passes, accel, counts);
            ++res.attempted;
            workloads::RunResult want = workloads::runOn(w, *accel);
            goldenCheck(res, describe(w, d.passes), got.check);
            selfCheck(res, describe(w, d.passes), got, want);
        }
    }
    putLayers(res, log, counts, median(setups.buildMs),
              untraced.meanOpsPerSec());
    if (!args.spansPath.empty())
        log.write(args.spansPath);
    return res;
}

namespace
{

/** One gate cell compiled during replay_warm's set-up. */
struct Cell
{
    size_t program = 0;
    std::string passes;
    std::unique_ptr<uir::Accelerator> accel;
    /** The direct run that recorded and compiled the replay index. */
    workloads::RunResult direct;
};

/** What replay_warm sets up: the programs and the 42 compiled cells. */
struct ReplaySetup
{
    std::vector<Workload> programs;
    std::vector<Cell> cells;
};

/** Set up (again), replacing @p s; each cell's direct run is a cold
 *  operation and lands in a new round of @p cold_ms. */
void
setUpReplay(Result &res, uint64_t seed, ReplaySetup &s, Setups &setups,
            Rounds &cold_ms)
{
    s.cells.clear();
    s.programs.clear();
    CpuClock::time_point t0 = CpuClock::now();
    double build_ms = 0;
    s.programs = buildPrograms(workloads::workloadNames(), build_ms);
    cold_ms.emplace_back();
    for (DesignPoint &d : replayList(seed)) {
        Cell cell;
        cell.program = indexOf(s.programs, d.workload);
        cell.passes = std::move(d.passes);
        const Workload &w = s.programs[cell.program];
        CpuClock::time_point t_cell = CpuClock::now();
        cell.accel = lowerAndOptimize(w, cell.passes);
        workloads::RunOptions keep;
        keep.keepCompiled = true;
        cell.direct = workloads::runOn(w, *cell.accel, keep);
        cold_ms.back().push_back(msSince(t_cell));
        ++res.attempted;
        goldenCheck(res, describe(w, cell.passes), cell.direct.check);
        s.cells.push_back(std::move(cell));
    }
    setups.totalMs.push_back(msSince(t0));
    setups.buildMs.push_back(build_ms);
}

/**
 * Runs @p round over the cells until @p seconds of rounds have passed,
 * setting up again after every kResetupMs of rounds, so set-up and its
 * cold runs are sampled across the run rather than only at its start.
 * @return the process peak before the first re-set-up: one set of
 * cells from a fresh heap, without the allocator's fragmentation that
 * later set-ups add and that varies run to run.
 */
template <typename RoundFn>
double
replayLoop(Result &res, uint64_t seed, ReplaySetup &s, Setups &setups,
           Rounds &cold_ms, double seconds, RoundFn &&round)
{
    double peak_mb = 0;
    double rounds_ms = 0;
    double since_setup_ms = kResetupMs;
    do {
        if (since_setup_ms >= kResetupMs) {
            if (!s.cells.empty() && peak_mb == 0)
                peak_mb = peakRssMb();
            setUpReplay(res, seed, s, setups, cold_ms);
            since_setup_ms = 0;
        }
        Clock::time_point t_round = Clock::now();
        round();
        double ms = msSince(t_round);
        rounds_ms += ms;
        since_setup_ms += ms;
    } while (rounds_ms < seconds * 1000.0);
    return peak_mb ? peak_mb : peakRssMb();
}

Phase
replayRounds(Result &res, uint64_t seed, ReplaySetup &s, Setups &setups,
             Rounds &cold_ms, double seconds)
{
    Phase ph;
    ph.peakMb = replayLoop(res, seed, s, setups, cold_ms, seconds, [&] {
        CpuClock::time_point t_round = CpuClock::now();
        uint64_t ops = 0;
        double events = 0;
        ph.latencyMs.emplace_back();
        for (const Cell &cell : s.cells) {
            const Workload &w = s.programs[cell.program];
            workloads::RunOptions replay;
            replay.compiled = cell.direct.compiled.get();
            CpuClock::time_point t_op = CpuClock::now();
            workloads::RunResult r =
                workloads::runOn(w, *cell.accel, replay);
            ph.latencyMs.back().push_back(msSince(t_op));
            ++res.attempted;
            if (r.cycles != cell.direct.cycles || !r.check.empty()) {
                res.fail(describe(w, cell.passes) +
                         ": replay differs from the direct run");
                continue;
            }
            ++ops;
            events += double(cell.direct.compiled->numEvents);
        }
        ph.endRound(ops, events, t_round);
    });
    return ph;
}

} // namespace

Result
runReplayWarm(const Args &args)
{
    Result res;
    Setups setups;
    Rounds cold_ms;
    ReplaySetup s;
    if (!args.designsPath.empty())
        writeDesigns(args.designsPath, replayList(args.seed));

    if (!args.trace) {
        Phase loop =
            replayRounds(res, args.seed, s, setups, cold_ms, args.seconds);
        res.metrics["peak_rss_mb"] = loop.peakMb;
        std::vector<double> cycles;
        for (const Cell &cell : s.cells)
            cycles.push_back(double(cell.direct.cycles));
        putEndToEnd(res, setups, loop, cold_ms, loop.latencyMs, cycles);
        return res;
    }

    Phase untraced = replayRounds(res, args.seed, s, setups, cold_ms,
                                  args.seconds / 2);
    SpanLog log;
    LayerCounts counts;
    uint64_t op = 0;
    replayLoop(res, args.seed, s, setups, cold_ms, args.seconds / 2, [&] {
        for (const Cell &cell : s.cells) {
            const Workload &w = s.programs[cell.program];
            Reproduced got = warmLayers(log, op++, w, *cell.accel,
                                        *cell.direct.compiled, counts);
            ++res.attempted;
            goldenCheck(res, describe(w, cell.passes), got.check);
            selfCheck(res, describe(w, cell.passes), got, cell.direct);
        }
    });
    putLayers(res, log, counts, median(setups.buildMs),
              untraced.meanOpsPerSec());
    if (!args.spansPath.empty())
        log.write(args.spansPath);
    return res;
}

} // namespace muir::ubench
