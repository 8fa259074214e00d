#include "sim/simulator.hh"

#include "support/logging.hh"

namespace muir::sim
{

SimResult
simulate(const uir::Accelerator &accel, ir::MemoryImage &mem,
         const std::vector<ir::RuntimeValue> &args,
         const SimOptions &options)
{
    // A precompiled index replaces the recording; a value fault changes
    // the recording, so only a schedule-level fault may reuse one.
    const bool schedule_fault =
        options.fault && isScheduleFault(options.fault->kind);
    muir_assert(!options.compiled || !options.fault || schedule_fault,
                "simulate: a value fault cannot reuse a compiled DDG");
    // A schedule-level fault replays an edited copy of the index; a log
    // of it would not read against the index the caller holds.
    const bool keep_log = options.profile || options.trace || options.timeline;
    muir_assert(!schedule_fault || !keep_log,
                "simulate: a schedule-level fault takes no observers");
    muir_assert(!options.compiled || options.compiled->design == &accel,
                "simulate: compiled DDG belongs to another design");
    UirExecutor exec(accel, mem, /*record_ddg=*/!options.compiled);
    SimResult result;
    std::unique_ptr<FaultInjector> inj;
    if (options.fault) {
        inj = std::make_unique<FaultInjector>(*options.fault,
                                              options.maxFirings);
        exec.setInjector(inj.get());
    }
    try {
        result.outputs = exec.run(args);
    } catch (const FaultAbort &abort) {
        // Only μfit guards throw, and only with an injector attached:
        // the fault-free path cannot take this branch.
        result.aborted = true;
        result.abortOutcome = abort.outcome;
        result.abortDetail = abort.detail;
        result.firings = exec.firings();
        return result;
    }
    result.firings = exec.firings();

    // Compile unless handed an index. The record moves into it: the
    // replay and every post-processing step below read only the index.
    std::shared_ptr<const CompiledDdg> owned;
    if (!options.compiled)
        owned = std::make_shared<const CompiledDdg>(
            compileDdg(accel, exec.takeDdg()));
    const CompiledDdg &cd = options.compiled ? *options.compiled : *owned;
    if (options.keepCompiled || keep_log)
        result.compiled = owned;

    std::shared_ptr<ScheduleLog> log;
    if (keep_log)
        log = std::make_shared<ScheduleLog>();
    FaultHarness harness;
    bool use_harness = options.fault || options.watchdog;
    if (use_harness) {
        harness.watchdog.enabled = options.watchdog;
        harness.watchdog.maxCycles = options.maxCycles;
    }
    RunContext ctx;
    ctx.log = log.get();
    ctx.fault = use_harness ? &harness : nullptr;
    TimingResult timing = schedule_fault
                              ? scheduleFault(cd, *options.fault, ctx)
                              : scheduleDdg(cd, ctx);
    result.verdict = std::move(harness.verdict);
    result.cycles = timing.cycles;
    result.stats = std::move(timing.stats);
    if (options.profile)
        result.profile = std::make_shared<ProfileResult>(
            buildProfile(cd, *log, result.cycles));
    if (options.timeline)
        result.timeline = std::make_shared<Timeline>(buildTimeline(
            cd, *log, result.cycles, options.timelineWindows));
    result.log = std::move(log);
    return result;
}

std::vector<ir::RuntimeValue>
execFunctional(const uir::Accelerator &accel, ir::MemoryImage &mem,
               const std::vector<ir::RuntimeValue> &args)
{
    UirExecutor exec(accel, mem, /*record_ddg=*/false);
    return exec.run(args);
}

} // namespace muir::sim
