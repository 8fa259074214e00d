#include "workloads/driver.hh"

namespace muir::workloads
{

frontend::LowerOptions
baselineOptions(const Workload &w)
{
    frontend::LowerOptions opts;
    opts.name = w.name;
    // Cilk programs declare their working arrays as local buffers, so
    // the paper's baseline places them in a shared scratchpad; the
    // other suites address global arrays through the L1 (§6.4).
    opts.sharedScratchpad = (w.suite == Suite::Cilk);
    return opts;
}

std::unique_ptr<uir::Accelerator>
lowerBaseline(const Workload &w)
{
    return frontend::lowerToUir(*w.module, w.kernel, baselineOptions(w));
}

RunResult
runOn(const Workload &w, const uir::Accelerator &accel,
      const RunOptions &options)
{
    ir::MemoryImage mem(*w.module);
    w.bind(mem);
    sim::SimOptions sopts;
    sopts.profile = options.profile;
    sopts.trace = options.trace;
    sopts.timeline = options.timeline;
    sopts.timelineWindows = options.timelineWindows;
    sopts.watchdog = options.watchdog;
    sopts.maxCycles = options.maxCycles;
    sopts.compiled = options.compiled;
    sopts.keepCompiled = options.keepCompiled;
    sim::SimResult sim = sim::simulate(accel, mem, {}, sopts);
    RunResult result;
    result.cycles = sim.cycles;
    result.firings = sim.firings;
    result.check = w.check(mem);
    result.verdict = std::move(sim.verdict);
    result.stats = std::move(sim.stats);
    result.profile = std::move(sim.profile);
    result.timeline = std::move(sim.timeline);
    result.log = std::move(sim.log);
    result.compiled = std::move(sim.compiled);
    return result;
}

} // namespace muir::workloads
