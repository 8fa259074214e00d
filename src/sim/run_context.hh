/**
 * @file
 * The per-run bundle threaded through the timing replay — the single
 * carrier for everything one simulation run observes or feeds back,
 * replacing the accreted (trace, profile, fault) pointer tail that
 * scheduleDdg used to take.
 *
 * ## Concurrency contract
 *
 * The simulation stack is re-entrant: any number of runs may execute
 * concurrently on different threads provided each run has its own
 * RunContext, its own MemoryImage/UirExecutor, and its own result
 * objects. The shared inputs — `uir::Accelerator`, `ir::Module`, and
 * a `CompiledDdg` — are read-only during replay (scheduleDdg and
 * UirExecutor take them by const reference and the const API
 * genuinely is const: no hidden caches, no lazy mutation), so sharing
 * one design across N concurrent runs needs no locking.
 *
 * What is NOT shared-safe, by design:
 *  - a RunContext (and the hooks it points to) belongs to exactly one
 *    run — ProfileCollector, FaultHarness, and the trace vector are
 *    written without synchronization;
 *  - anything a run mutates (MemoryImage, StatSet, TimingResult) is
 *    per-run state.
 *
 * Global knobs (`setVerbose`, MUIR_JOBS) must be settled before
 * fan-out; they are process-wide configuration, not per-run state.
 */
#pragma once

#include <vector>

namespace muir::sim
{

struct ProfileCollector; // sim/profile.hh
struct FaultHarness;     // sim/fault.hh
struct TimingTraceRow;   // sim/timing.hh

/**
 * Optional per-run observer hooks. All default to null = off; every
 * hook is strictly observational — with all hooks null the scheduler
 * takes bit-identical paths and produces bit-identical cycles, stats,
 * and memory (a committed test invariant on all baselines).
 */
struct SimHooks
{
    /** Filled with one row per scheduled event, in processing order
     *  (by start time), for timeline inspection / CSV export. */
    std::vector<TimingTraceRow> *trace = nullptr;
    /** μprof collector (sim/profile.hh): records one EventCost per
     *  event — stall attribution, critical deps, structure activity.
     *  Never changes the schedule. */
    ProfileCollector *profile = nullptr;
};

/**
 * Everything one timing replay reads and writes beyond the shared,
 * immutable (Accelerator, Ddg) pair: observer hooks plus the μfit
 * harness. The harness is the one hook that may legitimately change
 * the schedule — it carries the fault plan to enact and the watchdog
 * budget in, and the verdict out. A default-constructed RunContext
 * is a plain, bit-identical baseline run.
 *
 * One RunContext per concurrent run; contexts are cheap to construct
 * and hold no state of their own.
 */
struct RunContext
{
    SimHooks hooks;
    /** μfit harness (sim/fault.hh): plan + watchdog in, verdict out.
     *  Null keeps the schedule bit-identical (the same observational
     *  guard contract as the hooks). */
    FaultHarness *fault = nullptr;
};

} // namespace muir::sim
