#include "sim/simulator.hh"

#include <algorithm>

#include "support/logging.hh"

namespace muir::sim
{

namespace
{

/** Store the words @p record's run wrote into @p mem. */
void
applyWrites(const Ddg &record, ir::MemoryImage &mem)
{
    for (const WordWrite &w : record.writes) {
        const uint64_t addr = uint64_t(w.word) * 4;
        mem.storeInt(addr,
                     static_cast<unsigned>(
                         std::min<uint64_t>(4, mem.sizeBytes() - addr)),
                     w.value);
    }
}

} // namespace

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
    muir_assert(!schedule_fault || !options.log,
                "simulate: a schedule-level fault takes no log");
    muir_assert(!options.compiled || options.compiled->design == &accel,
                "simulate: compiled DDG belongs to another design");
    SimResult result;
    std::shared_ptr<const CompiledDdg> owned;
    if (options.compiled) {
        // The index carries its run's functional result: apply it
        // instead of executing again. Nothing executes, so a firing
        // budget below the recorded count could not trip as it would
        // on a direct run: refuse it.
        const CompiledDdg &cd = *options.compiled;
        muir_assert(!options.maxFirings || options.maxFirings >= cd.firings,
                    "simulate: a compiled replay's firing budget is below "
                    "its recorded %llu firings",
                    static_cast<unsigned long long>(cd.firings));
        applyWrites(cd, mem);
        result.outputs = unsharedCopy(cd.outputs);
        result.firings = cd.firings;
    } else {
        UirExecutor exec(accel, mem);
        std::unique_ptr<FaultInjector> inj;
        if (options.fault) {
            inj = std::make_unique<FaultInjector>(*options.fault,
                                                  options.maxFirings);
            exec.setInjector(inj.get());
        }
        try {
            result.outputs = exec.run(args);
        } catch (const FaultAbort &abort) {
            // Only μfit guards throw, and only with an injector
            // attached: the fault-free path cannot take this branch.
            result.aborted = true;
            result.abortOutcome = abort.outcome;
            result.abortDetail = abort.detail;
            result.firings = exec.firings();
            return result;
        }
        result.firings = exec.firings();
        // The record moves into the index: the replay and every
        // post-pass over the log read only the index.
        owned = std::make_shared<const CompiledDdg>(
            compileDdg(accel, exec.takeDdg()));
        if (options.keepCompiled || options.log)
            result.compiled = owned;
    }
    const CompiledDdg &cd = options.compiled ? *options.compiled : *owned;

    std::shared_ptr<ScheduleLog> log;
    if (options.log)
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
    result.log = std::move(log);
    return result;
}

} // namespace muir::sim
