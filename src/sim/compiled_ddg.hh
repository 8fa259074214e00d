/**
 * @file
 * The frozen, replay-optimized form of a dynamic dependence graph.
 *
 * The builder-friendly `Ddg` is what the functional executor grows —
 * one `DynEvent` per firing with its own heap-allocated dependency
 * vectors. Replaying it at speed wants the opposite layout: a
 * `CompiledDdg` is an immutable struct-of-arrays freeze of one Ddg
 * against one Accelerator, with
 *
 *  - both adjacency directions in CSR form (deps *and* dependents),
 *    built once instead of on every replay;
 *  - per-event attributes packed into flat parallel arrays;
 *  - every pointer-keyed lookup the scheduler's hot loop used to do
 *    resolved ahead of time into dense indices: task / node /
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
 * Lifetime: the compiled index is the only form of the record after
 * compileDdg returns. It carries every fact the replay's consumers
 * read — hang diagnosis, µprof, µscope — so the executor and its
 * builder Ddg may be destroyed as soon as it is built. It borrows only
 * the Accelerator (node / structure / task pointers are retained for
 * the trace and profile hooks), which must outlive it.
 */
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "sim/ddg.hh"

namespace muir::sim
{

/** Sentinel for "no entry" in the 32-bit id arrays. */
inline constexpr uint32_t kNoId32 = ~uint32_t(0);
/** Sentinel for "no entry" in the 16-bit id arrays. */
inline constexpr uint16_t kNoId16 = uint16_t(0xFFFF);

/** CompiledDdg::flags bits. */
enum : uint8_t
{
    kEvLoad = 1u << 0,
    kEvStore = 1u << 1,
    kEvEntry = 1u << 2,
    kEvCompletion = 1u << 3,
    /** Multi-word access straddles a cache line (second tag probe). */
    kEvStraddle = 1u << 4,
};

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
 * The immutable struct-of-arrays replay index. All per-event arrays
 * have numEvents entries; fields that only apply to a subset of
 * events (memory ops, completions) hold sentinels elsewhere.
 */
struct CompiledDdg
{
    /** @name CSR adjacency (both directions) @{ */
    /** deps of event e: deps[depStart[e] .. depStart[e+1]), in the
     *  original recording order. */
    std::vector<uint32_t> depStart;
    std::vector<uint32_t> deps;
    /** dependents of event e: dependents[depdStart[e] ..
     *  depdStart[e+1]), ascending by consumer id. */
    std::vector<uint32_t> depdStart;
    std::vector<uint32_t> dependents;
    /** One bit per deps entry: set when that dep exists only to order
     *  conflicting memory accesses (DynEvent::memDeps). */
    std::vector<uint64_t> memDepBits;
    /** @} */

    /** @name Packed per-event attributes @{ */
    std::vector<uint64_t> addr;
    /** Dense node id (index into nodes); kNoId32 for completions. */
    std::vector<uint32_t> nodeOf;
    std::vector<uint32_t> invocation;
    /** Queue-backpressure dep (also present in deps); kNoId32 none. */
    std::vector<uint32_t> queueDep;
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
    /** Port beats the access occupies (words over the wide width). */
    std::vector<uint32_t> beats;
    std::vector<uint16_t> words;
    /** Dense task id of the fired node; kNoId16 for completions. */
    std::vector<uint16_t> taskOf;
    /** Dense structure id of the access; kNoId16 for non-memory. */
    std::vector<uint16_t> structOf;
    std::vector<uint8_t> flags;
    /** @} */

    /** Dense task id of each invocation (the entry event is the one
     *  flagged kEvEntry). */
    std::vector<uint16_t> invTask;

    /** @name Resolved design tables @{ */
    std::vector<CompiledTask> tasks;
    std::vector<CompiledStruct> structs;
    /** Dense node id -> live node (trace rows, µprof hooks). */
    std::vector<const uir::Node *> nodes;
    /** @} */

    uint32_t numEvents = 0;
    uint32_t numInvocations = 0;
    /** Size of the per-run in-order-initiation free file. */
    uint32_t initSlots = 0;
    /** Size of the per-run port free file (junctions + banks). */
    uint32_t portSlots = 0;

    /** Design this index was compiled against (identity-checked by
     *  the reuse paths). */
    const uir::Accelerator *design = nullptr;

    /** Is deps[k] a memory-ordering-only dependency? */
    bool
    isMemDep(uint32_t k) const
    {
        return (memDepBits[k >> 6] >> (k & 63)) & 1;
    }

    /** Total heap bytes behind the flat arrays (layout accounting). */
    size_t bytes() const;
};

/**
 * Freeze @p ddg into its replay form. Asserts the Ddg invariant that
 * every dependency references an earlier event. The result borrows
 * @p accel, which must outlive it; @p ddg may be dropped on return.
 */
CompiledDdg compileDdg(const uir::Accelerator &accel, const Ddg &ddg);

/**
 * Heap bytes behind the builder-form record (events, dependency
 * vectors, invocations) — the microbench's bytes/event comparison
 * against CompiledDdg::bytes().
 */
size_t ddgBytes(const Ddg &ddg);

} // namespace muir::sim
