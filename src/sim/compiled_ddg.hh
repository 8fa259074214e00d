/**
 * @file
 * The replay index: a recorded dynamic dependence graph plus the
 * design facts the scheduler reads while it replays the record.
 *
 * An index has two parts:
 *
 *  - a `Record` (shared, design-free): the flat record (sim/ddg.hh),
 *    its run's functional result, its dataflow key and the dependents
 *    CSR over the record's deps, built once per recording. Every index
 *    compiled from one recording points at the same immutable Record;
 *  - a timing half (`CompiledDdg`, owned by each design):
 *     - the record nodes resolved to the design's uir::Node pointers;
 *     - the window deps: the dep the design's task queues and tiles
 *       add to an event, at most one per event. The record holds none
 *       of them, so it serves every queue depth and tile count:
 *        - a dispatch of task C waits for the completion that frees a
 *          slot of C's queue window (uir::Task::queueWindow()),
 *          counted in completion order;
 *        - a loop invocation's first loop-control firing waits for
 *          the invocation `tiles` earlier to hand off the tile's loop
 *          control at its last iteration (its exit check if it ran no
 *          iteration);
 *     - the window dependents, the reverse of the window deps, stored
 *       sparsely: window deps are rare (about one per 70 events), so
 *       a bitset of producers with a rank count per 64 events finds a
 *       producer's consumer range without an offset per event;
 *     - small design tables the replay looks up per event: per record
 *       node its in-order-initiation slot base, static latency /
 *       initiation interval, task and structure; per task its tiles
 *       and junction port range; per structure its bank geometry; and
 *       per invocation its round-robin tile.
 *
 * An event's inputs are its record deps, then its window dep (see
 * numInputs()/input()); its dependents are its record dependents, then
 * its window dependents (forEachDependent()). The replay, μprof, hang
 * diagnosis, μfit's edge ordinals and the conflict observer all read
 * them in those orders. The scheduler pops events by (ready, id), so
 * the order it wakes dependents in never shows in a schedule.
 *
 * The replay derives the rest per event from the record's columns and
 * these tables: the slot (node base + tile), the junction ports, the
 * bank (from the address), the port beats and whether a multi-word
 * access straddles a cache line. A design has tens of nodes and a run
 * millions of events, so the tables stay in L1.
 *
 * Both parts are backed by a handful of flat allocations (see bytes())
 * and are strictly read-only after compileDdg or retarget returns, so
 * any number of concurrent replays may share one index, and any number
 * of indices one Record — the same const-correctness contract the
 * shared `uir::Accelerator` follows (sim/run_context.hh). µserve keeps
 * one Record per dataflow and one timing half per design, and replays
 * them from every worker.
 *
 * Lifetime: the index carries every fact the replay's consumers read —
 * hang diagnosis, µprof, µscope — and borrows only its Accelerator
 * (node / structure / task pointers are retained for the post-passes
 * over a ScheduleLog), which must outlive it. The Record borrows
 * nothing: it outlives the design and the index that recorded it as
 * long as some index or cache holds it.
 */
#pragma once

#include <algorithm>
#include <bit>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "sim/ddg.hh"

namespace muir::sim
{

/** One hardware structure with its scheduling geometry denormalized. */
struct CompiledStruct
{
    /** Live pointer for the post-passes (EventCost::structure). */
    const uir::Structure *s = nullptr;
    bool isCache = false;
    unsigned lineBytes = 0;
    unsigned latency = 0;
    unsigned missLatency = 0;
    unsigned banks = 1;
    unsigned portsPerBank = 1;
    /** Words one port moves per beat (at least 1). */
    unsigned wideWords = 1;
    /** DRAM refill occupancy per miss: lineBytes / DRAM bytes/cycle. */
    uint64_t missXfer = 0;
    /** First bank-port slot of this structure in the port file. */
    uint32_t portBase = 0;

    /** First of the portsPerBank slots of the bank serving @p addr.
     *  Caches interleave banks by line, scratchpads by wide word. */
    uint32_t
    bankSlot(uint64_t addr) const
    {
        uint64_t unit = isCache ? addr / lineBytes : addr / 4 / wideWords;
        return portBase + static_cast<uint32_t>(unit % banks) * portsPerBank;
    }

    /** Port beats an access of @p words occupies. */
    unsigned
    beats(unsigned words) const
    {
        return (std::max(1u, words) + wideWords - 1) / wideWords;
    }
};

/** One task with its per-run stat prefix prebuilt. */
struct CompiledTask
{
    const uir::Task *task = nullptr;
    /** "task.<name>." — so the replay never rebuilds it per event. */
    std::string statPrefix;
    unsigned tiles = 1;
    /** Junction ports per tile (at least 1 each). */
    unsigned readPorts = 1;
    unsigned writePorts = 1;
    /** First junction slot of this task in the port file. */
    uint32_t junctionBase = 0;

    /** First junction slot of @p tile's read (@p load) or write
     *  ports: each tile owns its read ports, then its write ports. */
    uint32_t
    junctionSlot(uint32_t tile, bool load) const
    {
        return junctionBase + tile * (readPorts + writePorts) +
               (load ? 0 : readPorts);
    }
};

/** One record node (Ddg::nodes) with its static timing resolved. */
struct CompiledNode
{
    /** First in-order-initiation slot; the node owns one per tile of
     *  its task, indexed by tile. */
    uint32_t slotBase = 0;
    /** Static latency (memory access cost is added at replay). */
    uint32_t latency = 0;
    uint32_t initInterval = 0;
    /** Task id (uir::Task::id()). */
    uint16_t task = 0;
    /** Structure id (index into CompiledDdg::structs) of a load or
     *  store node; kNoId16 otherwise. */
    uint16_t structure = kNoId16;
};

/**
 * The design-free part of a replay index: a record frozen with the
 * reverse of its deps. Immutable once built; every index compiled from
 * the recording shares it.
 */
struct Record : Ddg
{
    /** Record dependents of event e: dependents[depdStart[e] ..
     *  depdStart[e+1]), ascending by consumer id. */
    std::vector<uint32_t> depdStart;
    std::vector<uint32_t> dependents;

    /** uir::dataflowKey() of the recording design, so retargeting
     *  serializes only the target. Empty when the record was compiled
     *  without it (compileDdg's two-argument form); retarget then
     *  serializes the source index's design instead. */
    std::string dataflowKey;

    /** Heap bytes behind the columns, the write set, the CSR and the
     *  key. */
    size_t bytes() const;
};

/**
 * The immutable replay index: the shared Record plus this design's
 * timing half (window deps, their sparse reverse and the design
 * tables).
 */
struct CompiledDdg
{
    /** The shared, design-free record. */
    std::shared_ptr<const Record> record;
    /** record->numEvents, kept here for the callers that size by it. */
    uint32_t numEvents = 0;

    /** Record node id (Ddg::nodeOf) -> this design's node. */
    std::vector<const uir::Node *> nodes;

    /** The window dep of each event (see the file comment); kNoId32
     *  when it has none or the dep is already a record dep. */
    std::vector<uint32_t> windowDep;

    /** @name Window dependents: the reverse of windowDep @{ */
    /** Bit e set when event e is the window dep of some event. */
    std::vector<uint64_t> windowSrc;
    /** Set bits of windowSrc in the words before word w. */
    std::vector<uint32_t> windowSrcRank;
    /** Window dependents of the producer of rank r (its set bit's
     *  ordinal): windowDepd[windowDepdStart[r] ..
     *  windowDepdStart[r+1]), ascending by consumer id. */
    std::vector<uint32_t> windowDepdStart;
    std::vector<uint32_t> windowDepd;
    /** @} */

    /** @name Design tables @{ */
    /** Indexed by record node id (Ddg::nodeOf). */
    std::vector<CompiledNode> nodeInfo;
    /** Indexed by task id (Ddg::invTask, CompiledNode::task). */
    std::vector<CompiledTask> tasks;
    /** Indexed by structure id (CompiledNode::structure). */
    std::vector<CompiledStruct> structs;
    /** Indexed by invocation: its round-robin tile, its sequence
     *  number within its task mod the task's tiles (at most 2^16). */
    std::vector<uint16_t> invTile;
    /** @} */

    /** Size of the per-run in-order-initiation free file. */
    uint32_t initSlots = 0;
    /** Size of the per-run port free file (junctions + banks). */
    uint32_t portSlots = 0;

    /** Design this index was compiled against (identity-checked by
     *  the reuse paths). */
    const uir::Accelerator *design = nullptr;

    /** Heap bytes behind the record and the timing half. */
    size_t bytes() const;
    /** Heap bytes behind the timing half alone. */
    size_t halfBytes() const;

    /** Inputs of event @p e: its record deps, then its window dep. */
    uint32_t
    numInputs(uint32_t e) const
    {
        return record->depStart[e + 1] - record->depStart[e] +
               (windowDep[e] != kNoId32);
    }

    /** Input @p k of event @p e, in numInputs() order. */
    uint32_t
    input(uint32_t e, uint32_t k) const
    {
        uint32_t i = record->depStart[e] + k;
        return i < record->depStart[e + 1] ? record->deps[i]
                                           : windowDep[e];
    }

    /** The queue-slot dep of a dispatch (μprof's "queue full" wait);
     *  kNoId32 for any other event. */
    uint32_t
    queueSlotDep(uint32_t e) const
    {
        return (record->flags[e] & kEvDispatch) ? windowDep[e] : kNoId32;
    }

    /** The node event @p e fired; nullptr for a completion. */
    const uir::Node *
    node(uint32_t e) const
    {
        const uint32_t id = record->nodeOf[e];
        return id == kNoId32 ? nullptr : nodes[id];
    }

    /** Window dependents of event @p p: [*first, *last) in windowDepd;
     *  false when it has none. Only completions (kEvDone) and
     *  loop-control firings can have any, so the others skip the
     *  bitset. */
    bool
    windowDependents(uint32_t p, uint32_t &first, uint32_t &last) const
    {
        if (!(record->flags[p] & (kEvDone | kEvLoopControl)))
            return false;
        const uint64_t word = windowSrc[p >> 6];
        const uint64_t below = (uint64_t(1) << (p & 63)) - 1;
        if (!((word >> (p & 63)) & 1))
            return false;
        const uint32_t rank =
            windowSrcRank[p >> 6] +
            static_cast<uint32_t>(std::popcount(word & below));
        first = windowDepdStart[rank];
        last = windowDepdStart[rank + 1];
        return true;
    }

    /** Call @p fn on each dependent of event @p p: its record
     *  dependents, then its window dependents, each ascending. */
    template <typename Fn>
    void
    forEachDependent(uint32_t p, Fn &&fn) const
    {
        const Record &rec = *record;
        for (uint32_t k = rec.depdStart[p]; k < rec.depdStart[p + 1]; ++k)
            fn(rec.dependents[k]);
        uint32_t first, last;
        if (windowDependents(p, first, last))
            for (uint32_t k = first; k < last; ++k)
                fn(windowDepd[k]);
    }
};

/**
 * Freeze @p ddg into a Record and compile its timing half against
 * @p accel. The record's columns move into the Record unchanged;
 * callers that keep their record pass a copy. The result borrows
 * @p accel, which must outlive it.
 */
CompiledDdg compileDdg(const uir::Accelerator &accel, Ddg ddg);

/**
 * compileDdg for a caller that has serialized @p accel's dataflow
 * already: the Record keeps @p dataflow_key (uir::dataflowKey(accel)),
 * so it can be retargeted after @p accel is gone.
 */
CompiledDdg compileDdg(const uir::Accelerator &accel, Ddg ddg,
                       std::string dataflow_key);

/**
 * Compile a timing half of @p record against @p to without executing
 * again: resolve each record node to the node in the same task and
 * position of @p to, build the design tables and make one window pass.
 * The result shares @p record; nothing of it is copied. Only the
 * timing of the two designs may differ: it refuses (panics) unless
 * @p to_key, uir::dataflowKey(to), equals the record's key (which must
 * be set). The result equals the index a direct run of @p to compiles,
 * and borrows @p to, which must outlive it.
 */
CompiledDdg retarget(std::shared_ptr<const Record> record,
                     const uir::Accelerator &to, const std::string &to_key);

/** retarget(from.record, to, uir::dataflowKey(to)); serializes
 *  from.design too when the record has no key. */
CompiledDdg retarget(const CompiledDdg &from, const uir::Accelerator &to);

} // namespace muir::sim
