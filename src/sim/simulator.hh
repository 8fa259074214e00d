/**
 * @file
 * Simulation façade: functional execution + cycle-level timing in one
 * call. This is the measurement harness standing in for the paper's
 * FPGA runs — cycle counts preserve μIR's execution model (§3.1), and
 * time = cycles / achieved clock from the cost model.
 */
#pragma once

#include <memory>

#include "sim/compiled_ddg.hh"
#include "sim/exec.hh"
#include "sim/fault.hh"
#include "sim/profile.hh"
#include "sim/timeline.hh"
#include "sim/timing.hh"

namespace muir::sim
{

/** What to collect beyond cycles/stats (all off by default). */
struct SimOptions
{
    /** Build a full μprof ProfileResult (and keep the collector). */
    bool profile = false;
    /** Keep the per-event timeline (needed for trace export). */
    bool trace = false;
    /** Build the μscope windowed timeline (implies a collector). */
    bool timeline = false;
    /** Timeline window-count target (0 = auto ≈ 256). */
    unsigned timelineWindows = 0;
    /** μfit fault plan to inject (nullptr = bit-identical baseline). */
    const FaultPlan *fault = nullptr;
    /** Arm the dynamic hang watchdog (cycle budget + drain detection). */
    bool watchdog = false;
    /** Watchdog cycle budget (0 = drain detection only). */
    uint64_t maxCycles = 0;
    /** Functional firing budget for runaway detection (0 = none). */
    uint64_t maxFirings = 0;
    /**
     * Replay this precompiled index instead of recording a fresh DDG
     * (sim/compiled_ddg.hh). Execution is deterministic, so replaying
     * the same (design, inputs) pair records an identical DDG every
     * time; handing the compiled one back skips both the recording
     * and the compile. The functional run still happens (outputs /
     * golden checks), just without the record. Must have been
     * compiled from this accelerator; the index alone serves the
     * replay, µprof, µscope and hang diagnosis. Incompatible with
     * `fault` (an injected run changes the DDG).
     */
    const CompiledDdg *compiled = nullptr;
    /** Compile the recorded DDG and return it in SimResult::compiled
     *  for reuse by later runs. Ignored when `compiled` is set. */
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
    /** μprof attribution (set when SimOptions::profile). */
    std::shared_ptr<ProfileResult> profile;
    /** Raw per-event costs (set when profile or timeline). */
    std::shared_ptr<ProfileCollector> profileData;
    /** μscope windowed telemetry (set when SimOptions::timeline). */
    std::shared_ptr<Timeline> timeline;
    /** Per-event timeline (set when SimOptions::trace). */
    std::vector<TimingTraceRow> trace;
    /** μfit verdict (watchdog diagnosis, detector hits). */
    FaultVerdict verdict;
    /** Functional execution aborted via a μfit guard (FaultAbort). */
    bool aborted = false;
    /** Pre-classified outcome of the abort (Detected or Hang). */
    Outcome abortOutcome = Outcome::Detected;
    /** Human-readable abort reason. */
    std::string abortDetail;
    /** The replay index (set when SimOptions::keepCompiled): pass as
     *  SimOptions::compiled to later runs of the same design+inputs.
     *  Shared and immutable — safe across concurrent replays. */
    std::shared_ptr<const CompiledDdg> compiled;
};

/**
 * Execute the accelerator on a memory image (mutated in place) and
 * schedule the resulting DDG.
 */
SimResult simulate(const uir::Accelerator &accel, ir::MemoryImage &mem,
                   const std::vector<ir::RuntimeValue> &args = {},
                   const SimOptions &options = {});

/** Functional-only run (no DDG, no timing) — for fast golden checks. */
std::vector<ir::RuntimeValue>
execFunctional(const uir::Accelerator &accel, ir::MemoryImage &mem,
               const std::vector<ir::RuntimeValue> &args = {});

} // namespace muir::sim
