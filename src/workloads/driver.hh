/**
 * @file
 * Shared experiment driver: lowers a workload to its baseline
 * accelerator with the paper's suite-appropriate memory configuration
 * (Cilk local arrays in a shared scratchpad, everything else behind
 * the shared L1, §6.4), and runs accelerators over bound inputs with
 * golden checking.
 */
#pragma once

#include <memory>

#include "frontend/lower.hh"
#include "sim/simulator.hh"
#include "workloads/workload.hh"

namespace muir::workloads
{

/** The lowering options Table 2's baselines use for this workload. */
frontend::LowerOptions baselineOptions(const Workload &w);

/** Lower the workload's kernel to its baseline μIR accelerator. */
std::unique_ptr<uir::Accelerator> lowerBaseline(const Workload &w);

/** How runOn simulates: the same switches as sim::simulate. */
using RunOptions = sim::SimOptions;

/** One simulated run plus its golden check. */
struct RunResult : sim::SimResult
{
    /** Empty when the final memory matched the golden reference. */
    std::string check;
};

/** Bind inputs, simulate, and check outputs against the golden data. */
RunResult runOn(const Workload &w, const uir::Accelerator &accel,
                const RunOptions &options = {});

} // namespace muir::workloads
