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
    // A braced list evaluates in order: the check reads the memory the
    // simulation left.
    return {sim::simulate(accel, mem, {}, options), w.check(mem)};
}

} // namespace muir::workloads
