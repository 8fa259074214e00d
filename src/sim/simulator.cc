#include "sim/simulator.hh"

#include "support/logging.hh"

namespace muir::sim
{

SimResult
simulate(const uir::Accelerator &accel, ir::MemoryImage &mem,
         const std::vector<ir::RuntimeValue> &args,
         const SimOptions &options)
{
    // A precompiled index replaces the recording; an injected fault
    // changes what would be recorded, so the two cannot combine.
    muir_assert(!(options.compiled && options.fault),
                "simulate: a fault run cannot reuse a compiled DDG");
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
    if (options.keepCompiled)
        result.compiled = owned;

    if (options.profile || options.timeline)
        result.profileData = std::make_shared<ProfileCollector>();
    FaultHarness harness;
    bool use_harness = options.fault || options.watchdog;
    if (use_harness) {
        harness.plan = options.fault;
        harness.watchdog.enabled = options.watchdog;
        harness.watchdog.maxCycles = options.maxCycles;
    }
    RunContext ctx;
    ctx.hooks.trace = options.trace ? &result.trace : nullptr;
    ctx.hooks.profile = result.profileData.get();
    ctx.fault = use_harness ? &harness : nullptr;
    TimingResult timing = scheduleDdg(cd, ctx);
    result.verdict = std::move(harness.verdict);
    result.cycles = timing.cycles;
    result.stats = std::move(timing.stats);
    if (options.profile)
        result.profile = std::make_shared<ProfileResult>(
            buildProfile(cd, *result.profileData, result.cycles));
    if (options.timeline)
        result.timeline = std::make_shared<Timeline>(
            buildTimeline(cd, *result.profileData, result.cycles,
                          options.timelineWindows));
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
