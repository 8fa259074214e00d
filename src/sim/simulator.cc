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
    // Only a value fault changes the execution; every other kind moves
    // token arrivals and runs as an edit of a compiled index instead.
    muir_assert(!options.fault || options.fault->kind == FaultKind::DataFlip ||
                    options.fault->kind == FaultKind::MemFlip,
                "simulate: takes value faults only (dataflip, memflip)");
    muir_assert(!options.compiled || !options.fault,
                "simulate: a value fault cannot reuse a compiled DDG");
    muir_assert(!options.compiled || options.compiled->design == &accel,
                "simulate: compiled DDG belongs to another design");
    SimResult result;
    std::shared_ptr<const CompiledDdg> owned;
    if (options.compiled) {
        // The index carries its run's functional result: apply it
        // instead of executing again.
        const Record &rec = *options.compiled->record;
        applyWrites(rec, mem);
        result.outputs = unsharedCopy(rec.outputs);
        result.firings = rec.firings;
    } else {
        UirExecutor exec(accel, mem);
        std::unique_ptr<FaultInjector> inj;
        if (options.fault) {
            inj = std::make_unique<FaultInjector>(*options.fault);
            exec.setInjector(inj.get());
        }
        try {
            result.outputs = exec.run(args);
        } catch (FaultAbort &abort) {
            // Only μfit guards throw, and only with an injector
            // attached: the fault-free path cannot take this branch.
            result.abort = std::move(abort);
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
    Watchdog watchdog{options.maxCycles, {}};
    RunContext ctx;
    ctx.log = log.get();
    ctx.watchdog = options.watchdog ? &watchdog : nullptr;
    TimingResult timing = scheduleDdg(cd, ctx);
    result.hang = std::move(watchdog.hang);
    result.cycles = timing.cycles;
    result.stats = std::move(timing.stats);
    result.log = std::move(log);
    return result;
}

} // namespace muir::sim
