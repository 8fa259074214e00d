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

#include <span>

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

/**
 * What one replay did, in flat columns, written when RunContext::log
 * is set. Every observer derives what it needs from it after the run
 * (eventCost in sim/profile.hh), so none runs in the replay loop.
 */
struct ScheduleLog
{
    /** MemStages::dramStart of a hit or a scratchpad access. */
    static constexpr uint64_t kNoRefill = ~uint64_t(0);

    /** A load's or store's start after the II and junction stages
     *  (the bank stage gives its start), and its line refill. */
    struct MemStages
    {
        uint64_t iiStart = 0;
        uint64_t junctionStart = 0;
        uint64_t dramStart = kNoRefill;
    };

    /** Per event, by compiled id; meaningful once processed. */
    std::vector<uint64_t> ready;
    std::vector<uint64_t> start;
    std::vector<uint64_t> finish;
    /** Per event: its place in the processing order; kNoId32 if it
     *  never ran (a tripped or hung run). */
    std::vector<uint32_t> rank;
    /** Per event: its row in `mem`; kNoId32 if it has none. */
    std::vector<uint32_t> memRow;
    /** One row per processed load or store, in processing order. */
    std::vector<MemStages> mem;

    bool processed(uint32_t e) const { return rank[e] != kNoId32; }

    /** The processed events, in processing order. */
    std::vector<uint32_t> order() const;
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
 * the shared Accelerator; @p ctx (and the log and watchdog it points
 * to) must be private to this call. All local scheduling state —
 * resource free-lists, cache tags, ready queue — lives on this call's
 * stack.
 *
 * A default RunContext is a plain run; see RunContext.
 */
TimingResult scheduleDdg(const CompiledDdg &compiled, RunContext &ctx);

/**
 * scheduleDdg reading each event's record node id from @p node_of (one
 * entry per event) instead of the record's nodeOf column. μfit's
 * TokenDup and DramTimeout point one event at a private node this way
 * and leave the shared record untouched.
 */
TimingResult scheduleDdg(const CompiledDdg &compiled,
                         std::span<const uint32_t> node_of,
                         RunContext &ctx);

/** Plain compiled replay: no log, no watchdog. */
inline TimingResult
scheduleDdg(const CompiledDdg &compiled)
{
    RunContext ctx;
    return scheduleDdg(compiled, ctx);
}

} // namespace muir::sim
