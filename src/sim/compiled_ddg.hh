/**
 * @file
 * The replay index: a recorded dynamic dependence graph extended with
 * everything the scheduler resolves against one design.
 *
 * A `CompiledDdg` is the flat record (sim/ddg.hh), whose columns it
 * takes over as recorded (compiling only sets kEvStraddle in flags),
 * plus
 *
 *  - the dependents CSR (the reverse of the record's deps CSR), built
 *    once instead of on every replay;
 *  - every pointer-keyed lookup the scheduler's hot loop needs,
 *    resolved ahead of time into dense per-event columns: task and
 *    structure ids, the round-robin tile, the in-order-initiation
 *    slot, the junction and bank port-file ranges, the bank index
 *    derived from the address, and the static latency / initiation
 *    interval of the fired node.
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
 * (node / structure / task pointers are retained for the trace and
 * profile hooks), which must outlive it.
 */
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "sim/ddg.hh"

namespace muir::sim
{

/** One hardware structure with its scheduling geometry denormalized. */
struct CompiledStruct
{
    /** Live pointer for the µprof hooks (EventCost::structure). */
    const uir::Structure *s = nullptr;
    bool isCache = false;
    unsigned lineBytes = 0;
    unsigned latency = 0;
    unsigned missLatency = 0;
    unsigned portsPerBank = 1;
    unsigned sizeKb = 0;
    unsigned ways = 0;
    /** DRAM refill occupancy per miss: lineBytes / DRAM bytes/cycle. */
    uint64_t missXfer = 0;
    /** First bank-port slot of this structure in the port file. */
    uint32_t portBase = 0;
};

/** One task with its per-run stat prefix prebuilt. */
struct CompiledTask
{
    const uir::Task *task = nullptr;
    /** "task.<name>." — so the replay never rebuilds it per event. */
    std::string statPrefix;
    unsigned tiles = 1;
};

/**
 * The immutable struct-of-arrays replay index: the record's columns
 * (inherited from Ddg) plus the columns below. All per-event columns
 * have numEvents entries; fields that only apply to a subset of events
 * (memory ops, completions) hold sentinels elsewhere.
 */
struct CompiledDdg : Ddg
{
    /** dependents of event e: dependents[depdStart[e] ..
     *  depdStart[e+1]), ascending by consumer id. */
    std::vector<uint32_t> depdStart;
    std::vector<uint32_t> dependents;

    /** @name Design-resolved per-event columns @{ */
    /** In-order-initiation slot: index into the per-run node-free
     *  file (node base + tile); kNoId32 for completions. */
    std::vector<uint32_t> initSlot;
    /** Static node latency (memory access cost is added at replay). */
    std::vector<uint32_t> latency;
    std::vector<uint32_t> initInterval;
    /** Round-robin tile: invocation seq mod task tiles. */
    std::vector<uint32_t> tile;
    /** Junction port-file range for this access's direction (read
     *  ports for loads, write ports for stores). */
    std::vector<uint32_t> junctionPortBase;
    std::vector<uint16_t> junctionPorts;
    /** Bank port-file base: structure base + bank index x ports. */
    std::vector<uint32_t> bankPortBase;
    /** Port beats the access occupies (words over the wide width, so
     *  no more than words). */
    std::vector<uint16_t> beats;
    /** Dense task id of the fired node; kNoId16 for completions. */
    std::vector<uint16_t> taskOf;
    /** Dense structure id of the access; kNoId16 for non-memory. */
    std::vector<uint16_t> structOf;
    /** @} */

    /** @name Resolved design tables @{ */
    /** Indexed by task id (Ddg::invTask). */
    std::vector<CompiledTask> tasks;
    std::vector<CompiledStruct> structs;
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
};

/**
 * Extend @p ddg into its replay form against @p accel. The record's
 * columns move into the result; callers that keep their record pass a
 * copy. The result borrows @p accel, which must outlive it.
 */
CompiledDdg compileDdg(const uir::Accelerator &accel, Ddg ddg);

} // namespace muir::sim
