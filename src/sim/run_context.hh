/**
 * @file
 * The per-run bundle threaded through the timing replay — the single
 * carrier for everything one simulation run writes beyond its result:
 * the schedule log and the hang watchdog.
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
 *  - a RunContext (and the ScheduleLog and Watchdog it points to)
 *    belongs to exactly one run; both are written without
 *    synchronization;
 *  - anything a run mutates (MemoryImage, StatSet, TimingResult) is
 *    per-run state.
 *
 * Global knobs (`setVerbose`, MUIR_JOBS) must be settled before
 * fan-out; they are process-wide configuration, not per-run state.
 */
#pragma once

namespace muir::sim
{

struct ScheduleLog;  // sim/timing.hh
struct Watchdog;     // sim/fault.hh

/**
 * Everything one timing replay writes beyond the shared, immutable
 * CompiledDdg: the schedule log, which every observer reads after the
 * run, plus the hang watchdog, which carries the cycle budget in and
 * the diagnosis out and changes a run only by stopping it once the
 * budget trips. Faults never reach the scheduler: scheduleFault edits
 * a copy of the index instead. A default-constructed RunContext is a
 * plain run.
 *
 * One RunContext per concurrent run; contexts are cheap to construct
 * and hold no state of their own.
 */
struct RunContext
{
    /** Filled with the run's schedule (sim/timing.hh); null = off.
     *  Writing it never changes cycles, stats or memory. */
    ScheduleLog *log = nullptr;
    /** Hang watchdog (sim/fault.hh): budget in, diagnosis out. Null
     *  keeps the schedule bit-identical. */
    Watchdog *watchdog = nullptr;
};

} // namespace muir::sim
