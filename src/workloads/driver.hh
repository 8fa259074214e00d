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

/** Outcome of one simulated run. */
struct RunResult
{
    uint64_t cycles = 0;
    uint64_t firings = 0;
    /** Empty when outputs matched the golden reference. */
    std::string check;
    StatSet stats;
    /** μprof results (set when RunOptions::profile). */
    std::shared_ptr<sim::ProfileResult> profile;
    /** μscope windowed telemetry (set when RunOptions::timeline). */
    std::shared_ptr<sim::Timeline> timeline;
    /** The schedule log (set when RunOptions::profile, trace or
     *  timeline), to read against `compiled` (sim::SimResult::log). */
    std::shared_ptr<const sim::ScheduleLog> log;
    /** μfit verdict (set when RunOptions::watchdog). */
    sim::FaultVerdict verdict;
    /** Shared replay index (set when RunOptions::keepCompiled or a log
     *  is kept, unless RunOptions::compiled was passed). */
    std::shared_ptr<const sim::CompiledDdg> compiled;
};

/** Optional collection switches for runOn. */
struct RunOptions
{
    bool profile = false;
    bool trace = false;
    /** Build the μscope windowed timeline. */
    bool timeline = false;
    /** Timeline window-count target (0 = auto ≈ 256). */
    unsigned timelineWindows = 0;
    /** Arm the μfit hang watchdog (see RunResult::verdict). */
    bool watchdog = false;
    /** Watchdog cycle budget (0 = drain detection only). */
    uint64_t maxCycles = 0;
    /** Replay this shared index instead of re-recording the DDG
     *  (sim/compiled_ddg.hh reuse contract). */
    const sim::CompiledDdg *compiled = nullptr;
    /** Compile the recorded DDG into RunResult::compiled for reuse. */
    bool keepCompiled = false;
};

/** Bind inputs, simulate, and check outputs against the golden data. */
RunResult runOn(const Workload &w, const uir::Accelerator &accel,
                const RunOptions &options = {});

} // namespace muir::workloads
