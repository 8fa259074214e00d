/**
 * @file
 * The replay index: a recorded dynamic dependence graph plus the
 * design facts the scheduler reads while it replays the record.
 *
 * A `CompiledDdg` is the flat record (sim/ddg.hh), whose columns it
 * takes over unchanged, plus
 *
 *  - the window deps: the dep the design's task queues and tiles add
 *    to an event, at most one per event. The record holds none of
 *    them, so it serves every queue depth and tile count:
 *     - a dispatch of task C waits for the completion that frees a
 *       slot of C's queue window (uir::Task::queueWindow()), counted
 *       in completion order;
 *     - a loop invocation's first loop-control firing waits for the
 *       invocation `tiles` earlier to hand off the tile's loop
 *       control at its last iteration (its exit check if it ran no
 *       iteration);
 *  - the dependents CSR (the reverse of the record's deps and the
 *    window deps), built once instead of on every replay;
 *  - small design tables the replay looks up per event: per record
 *    node its in-order-initiation slot base, static latency /
 *    initiation interval, task and structure; per task its tiles and
 *    junction port range; per structure its bank geometry; and per
 *    invocation its round-robin tile.
 *
 * An event's inputs are its record deps, then its window dep (see
 * numInputs()/input()); the replay, μprof, hang diagnosis, μfit's edge
 * ordinals and the conflict observer all read them in that order.
 *
 * The replay derives the rest per event from the record's columns and
 * these tables: the slot (node base + tile), the junction ports, the
 * bank (from the address), the port beats and whether a multi-word
 * access straddles a cache line. A design has tens of nodes and a run
 * millions of events, so the tables stay in L1.
 *
 * A CompiledDdg is backed by a handful of flat allocations (see
 * bytes()) and is strictly read-only after compileDdg returns, so any
 * number of concurrent replays may share one instance — the same
 * const-correctness contract the shared `uir::Accelerator` follows
 * (sim/run_context.hh). µserve caches one per design and replays it
 * from every worker.
 *
 * Lifetime: the index carries every fact the replay's consumers read —
 * hang diagnosis, µprof, µscope — and borrows only the Accelerator
 * (node / structure / task pointers are retained for the post-passes
 * over a ScheduleLog), which must outlive it.
 */
#pragma once

#include <algorithm>
#include <cstdint>
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
 * The immutable replay index: the record's columns (inherited from
 * Ddg), the dependents CSR, and the design tables.
 */
struct CompiledDdg : Ddg
{
    /** The window dep of each event (see the file comment); kNoId32
     *  when it has none or the dep is already a record dep. */
    std::vector<uint32_t> windowDep;

    /** dependents of event e: dependents[depdStart[e] ..
     *  depdStart[e+1]), ascending by consumer id. */
    std::vector<uint32_t> depdStart;
    std::vector<uint32_t> dependents;

    /** @name Design tables @{ */
    /** Indexed by record node id (Ddg::nodeOf). */
    std::vector<CompiledNode> nodeInfo;
    /** Indexed by task id (Ddg::invTask, CompiledNode::task). */
    std::vector<CompiledTask> tasks;
    /** Indexed by structure id (CompiledNode::structure). */
    std::vector<CompiledStruct> structs;
    /** Indexed by invocation: its round-robin tile, its sequence
     *  number within its task mod the task's tiles. */
    std::vector<uint32_t> invTile;
    /** @} */

    /** Size of the per-run in-order-initiation free file. */
    uint32_t initSlots = 0;
    /** Size of the per-run port free file (junctions + banks). */
    uint32_t portSlots = 0;

    /** Design this index was compiled against (identity-checked by
     *  the reuse paths). */
    const uir::Accelerator *design = nullptr;

    /** Total heap bytes behind the flat arrays (layout accounting). */
    size_t bytes() const;

    /** Inputs of event @p e: its record deps, then its window dep. */
    uint32_t
    numInputs(uint32_t e) const
    {
        return depStart[e + 1] - depStart[e] + (windowDep[e] != kNoId32);
    }

    /** Input @p k of event @p e, in numInputs() order. */
    uint32_t
    input(uint32_t e, uint32_t k) const
    {
        uint32_t i = depStart[e] + k;
        return i < depStart[e + 1] ? deps[i] : windowDep[e];
    }

    /** The queue-slot dep of a dispatch (μprof's "queue full" wait);
     *  kNoId32 for any other event. */
    uint32_t
    queueSlotDep(uint32_t e) const
    {
        return (flags[e] & kEvDispatch) ? windowDep[e] : kNoId32;
    }
};

/**
 * Extend @p ddg into its replay form against @p accel. The record's
 * columns move into the result unchanged; callers that keep their
 * record pass a copy. The result borrows @p accel, which must outlive
 * it.
 */
CompiledDdg compileDdg(const uir::Accelerator &accel, Ddg ddg);

} // namespace muir::sim
