/**
 * @file
 * Simulation façade: functional execution + cycle-level timing in one
 * call. This is the measurement harness standing in for the paper's
 * FPGA runs — cycle counts preserve μIR's execution model (§3.1), and
 * time = cycles / achieved clock from the cost model.
 */
#pragma once

#include <memory>
#include <optional>

#include "sim/compiled_ddg.hh"
#include "sim/exec.hh"
#include "sim/fault.hh"
#include "sim/timing.hh"

namespace muir::sim
{

/** How to run (every switch off by default). */
struct SimOptions
{
    /**
     * Keep the schedule log in SimResult::log. Every observer is a
     * post-pass over it: buildProfile, buildTimeline, chromeTraceJson
     * and traceCsv, each read against the index the run replayed.
     */
    bool log = false;
    /** μfit value fault to inject, DataFlip or MemFlip (nullptr =
     *  bit-identical baseline); a schedule-level kind is refused, it
     *  runs as a scheduleFault call on a compiled index. */
    const FaultPlan *fault = nullptr;
    /** Arm the dynamic hang watchdog (cycle budget + drain detection). */
    bool watchdog = false;
    /** Watchdog cycle budget (0 = drain detection only). */
    uint64_t maxCycles = 0;
    /**
     * Replay this precompiled index instead of executing and recording
     * (sim/compiled_ddg.hh). Execution is deterministic, so the same
     * (design, inputs) pair yields an identical record and result
     * every time; the index carries its run's outputs, firings and
     * written words (sim/ddg.hh), which the replay stores into `mem`
     * and copies into the result before it schedules. No executor
     * runs. Must have been compiled from this accelerator and recorded
     * over the same inputs; the index alone serves the replay, the
     * log's post-passes and hang diagnosis. Does not combine with
     * `fault`, which changes the execution.
     */
    const CompiledDdg *compiled = nullptr;
    /** Compile the recorded DDG and return it in SimResult::compiled
     *  for reuse by later runs (`log` keeps it too). Ignored when
     *  `compiled` is set. */
    bool keepCompiled = false;
};

/** Combined functional + timing result. */
struct SimResult
{
    /** Live-out values of the root task. */
    std::vector<ir::RuntimeValue> outputs;
    /** Total execution cycles. */
    uint64_t cycles = 0;
    /** Dynamic node firings (functional activity, for power). */
    uint64_t firings = 0;
    /** Dynamic events + contention counters. */
    StatSet stats;
    /** The schedule log (set when SimOptions::log); read it against
     *  `compiled`, or against SimOptions::compiled when that was
     *  passed. */
    std::shared_ptr<const ScheduleLog> log;
    /** What the watchdog saw (SimOptions::watchdog). */
    HangDiagnosis hang;
    /** Set when a μfit guard aborted the functional execution of a
     *  `fault` run; nothing was scheduled then. */
    std::optional<FaultAbort> abort;
    /** The replay index (set when SimOptions::keepCompiled or ::log,
     *  unless SimOptions::compiled was passed): pass as
     *  SimOptions::compiled to later runs of the same design+inputs.
     *  Shared and immutable — safe across concurrent replays. */
    std::shared_ptr<const CompiledDdg> compiled;
};

/**
 * Execute the accelerator on a memory image (mutated in place) and
 * schedule the resulting DDG, or apply a compiled index's recorded
 * result to the image and schedule that index.
 */
SimResult simulate(const uir::Accelerator &accel, ir::MemoryImage &mem,
                   const std::vector<ir::RuntimeValue> &args = {},
                   const SimOptions &options = {});

} // namespace muir::sim
