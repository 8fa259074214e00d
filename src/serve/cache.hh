/**
 * @file
 * µserve compile-once design cache. Every RUN request names a
 * (workload, pipeline, graph) triple; the cache compiles/verifies that
 * triple exactly once — even when many clients race on it — and hands
 * every replay the same immutable `const CompiledDesign`. Replays then
 * fan out across the worker pool against the shared accelerator, which
 * the PR-5 const-correctness work made a supported concurrent pattern.
 *
 * Failure is cached too: a graph that does not parse, lint, or accept
 * its pipeline produces a CompiledDesign carrying the structured error,
 * so a client hammering the daemon with the same broken design pays
 * the compile cost once, not per request.
 *
 * A second tier records once per dataflow: it keeps the shared record
 * (sim::Record) of each (workload, uir::dataflowKey) pair, and a miss
 * whose pair is there retargets that record (sim::retarget) instead of
 * executing and recording again. Designs that differ only in timing
 * (queue depths, tiles, banks, ports) share one recording, in memory
 * too: each cached design holds only its timing half.
 *
 * Compiling ends with one replay of the new index with no cycle
 * budget; the design keeps that replay's OK reply and cycle count, so
 * a request whose budget cannot trip is answered without replaying.
 */
#pragma once

#include <cstdint>
#include <list>
#include <map>
#include <memory>
#include <mutex>
#include <string>

#include "serve/protocol.hh"
#include "support/trace.hh"
#include "uir/accelerator.hh"
#include "workloads/workload.hh"

namespace muir::sim
{
struct CompiledDdg; // sim/compiled_ddg.hh
struct Record;      // sim/compiled_ddg.hh
}

namespace muir::serve
{

/** Cache key of one RUN request: what the compiled design depends on. */
uint64_t designKey(const RunRequest &req);

/**
 * One compiled design: the workload (inputs + golden outputs) plus the
 * verified accelerator, or the structured error that stopped it.
 * Immutable after construction; shared across concurrent replays.
 */
struct CompiledDesign
{
    workloads::Workload workload;
    std::unique_ptr<uir::Accelerator> accel;
    /**
     * The design's replay index (sim/compiled_ddg.hh), recorded from
     * one reference execution at compile time. Execution is
     * deterministic, so every replay of this (design, inputs) pair
     * records the same DDG and result; sharing the compiled freeze,
     * which carries that result, lets replays skip execution, the
     * recording and the CSR rebuild. Its record is shared with every
     * cached design of the same dataflow; the design owns only the
     * timing half. Immutable, like everything else here — any number
     * of concurrent replays read it.
     */
    std::shared_ptr<const sim::CompiledDdg> compiled;
    /**
     * The design's OK reply: canonicalResult of one replay of
     * `compiled` with no cycle budget, and that replay's cycles. A
     * request whose budget is at least `cycles` cannot trip the
     * watchdog (every event is ready by then), so it gets this reply
     * without a replay. Empty when the golden check failed or the
     * replay hung; every request of such a design replays.
     */
    std::string okReply;
    uint64_t cycles = 0;
    /** Set when compilation failed (accel stays null). */
    ErrorReply error;

    bool ok() const { return accel != nullptr; }
};

/** Bounded, thread-safe, compile-once design cache. */
class DesignCache
{
  public:
    explicit DesignCache(size_t max_entries = 64)
        : maxEntries_(max_entries ? max_entries : 1)
    {
    }

    /**
     * Look up (compiling on miss) the design for @p req. Concurrent
     * callers with the same key block on one compilation and share its
     * result. Never throws; compile failures come back as a
     * CompiledDesign with error set.
     *
     * When @p t is non-null, the "compile" span @p parent gets a
     * cache=hit|miss attribute, and an actual compilation records
     * compile.lower / compile.parse / compile.lint /
     * compile.optimize child spans under it, then compile.record or
     * (a record-tier hit) compile.retarget, then compile.replay.
     * Tracing adds no locking and no work when @p t is null.
     */
    std::shared_ptr<const CompiledDesign>
    lookup(const RunRequest &req, trace::ActiveTrace *t = nullptr,
           uint64_t parent = 0);

    uint64_t hits() const;
    /** Every design miss, whether it recorded or retargeted. */
    uint64_t misses() const;
    /** Design misses that retargeted a cached record. */
    uint64_t recordHits() const;
    /** Replays that filled a design's OK reply: one per design miss
     *  that compiled. */
    uint64_t replays() const;
    size_t size() const;

  private:
    struct Entry
    {
        std::mutex compileMutex;
        std::shared_ptr<const CompiledDesign> design;
    };

    std::shared_ptr<const CompiledDesign>
    compile(const RunRequest &req, trace::ActiveTrace *t,
            uint64_t parent);

    struct RecordEntry
    {
        std::mutex recordMutex;
        std::shared_ptr<const sim::Record> record;
    };

    /** The record-tier entry of @p key, created (evicting the oldest
     *  beyond capacity) when absent. */
    std::shared_ptr<RecordEntry> recordEntry(const std::string &key);

    const size_t maxEntries_;
    mutable std::mutex mutex_; ///< guards the maps/FIFOs/counters
    std::map<uint64_t, std::shared_ptr<Entry>> entries_;
    std::list<uint64_t> fifo_; ///< insertion order, for eviction
    /** Record tier: the record of each (workload, dataflow key), keyed
     *  by the full text so no collision can share a record. */
    std::map<std::string, std::shared_ptr<RecordEntry>> records_;
    std::list<std::string> recordFifo_;
    uint64_t hits_ = 0;
    uint64_t misses_ = 0;
    uint64_t recordHits_ = 0;
    uint64_t replays_ = 0;
};

} // namespace muir::serve
