/**
 * @file
 * Cycle-level timing replay of a dynamic dependence graph under the
 * accelerator's structural constraints: per-node latency/II with
 * in-order initiation per execution tile, round-robin tile assignment,
 * bounded task queues (backpressure on dispatch), junction port
 * arbitration (§3.4), banked scratchpads, a real set-associative cache
 * with LRU tags simulated over actual addresses, and DRAM
 * latency/bandwidth behind the cache.
 */
#pragma once

#include "sim/ddg.hh"
#include "sim/run_context.hh"
#include "support/stats.hh"

namespace muir::sim
{

struct CompiledDdg; // sim/compiled_ddg.hh

/** Timing results and activity counters. */
struct TimingResult
{
    /** Total execution cycles (finish time of the last event). */
    uint64_t cycles = 0;
    /** Activity and contention counters (global and per task). */
    StatSet stats;
};

/** One scheduled event, for timeline dumps / waveform-style views. */
struct TimingTraceRow
{
    uint64_t event = 0;
    const uir::Node *node = nullptr; // nullptr = completion marker.
    uint32_t invocation = 0;
    uint64_t ready = 0;
    uint64_t start = 0;
    uint64_t finish = 0;
};

/**
 * The scheduler: replay a compiled DDG (sim/compiled_ddg.hh); returns
 * total cycles + stats. Callers compile a recorded Ddg once with
 * compileDdg and replay the index as often as they like (µserve, the
 * perf gate and campaigns replay one index many times).
 *
 * Re-entrant and thread-safe under the RunContext contract
 * (sim/run_context.hh): @p compiled is read-only here and may be
 * shared across any number of concurrent calls, the same contract as
 * the shared Accelerator; @p ctx (and every hook it points to) must be
 * private to this call. All local scheduling state — resource
 * free-lists, cache tags, ready queue — lives on this call's stack.
 *
 * A default RunContext is a plain run; see RunContext for the hook
 * semantics and the bit-identical observational guarantee.
 */
TimingResult scheduleDdg(const CompiledDdg &compiled, RunContext &ctx);

/** Plain compiled replay: no hooks, no fault harness. */
inline TimingResult
scheduleDdg(const CompiledDdg &compiled)
{
    RunContext ctx;
    return scheduleDdg(compiled, ctx);
}

} // namespace muir::sim
