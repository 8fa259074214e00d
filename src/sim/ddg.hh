/**
 * @file
 * Dynamic dependence graph: the record of one functional execution of
 * a μIR accelerator. One event per dynamic node firing, with data,
 * loop-carried, spawn/sync, and memory (RAW/WAW/WAR) dependencies.
 * The timing scheduler replays it under structural constraints.
 *
 * The record is flat and columnar: a CSR of 32-bit deps with one
 * memory-only bit per entry, one column per event attribute, and one
 * per invocation attribute. It depends only on the dataflow graph and
 * its inputs: no column holds a latency, tile, port, bank, queue depth
 * or tile count, and no dep exists because of one. It names no live
 * node either: a record node is a (task id, position in the task's
 * node list) pair (NodeRef), which names the same node in every design
 * that shares the recording design's uir::dataflowKey. So one record
 * serves every timing variant of its dataflow, in memory too:
 * compileDdg (sim/compiled_ddg.hh) freezes it once into a shared
 * sim::Record and adds, per design, only the small timing half (the
 * window deps those parameters impose and the design tables).
 *
 * The record also carries the functional result of the run that made
 * it: the root live-outs, the firing count and the final value of every
 * word a store wrote. Execution is deterministic over a workload's
 * fixed inputs, so a replay applies that result instead of executing
 * again (sim/simulator.hh).
 *
 * Invariant: every dependency references an earlier event id, so a
 * single linear pass in id order is a valid topological schedule.
 * append() asserts it.
 */
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "ir/interp.hh"
#include "uir/accelerator.hh"

namespace muir::sim
{

/** Sentinel for "no event" in the executor's 64-bit event slots. */
inline constexpr uint64_t kNoEvent = ~uint64_t(0);
/** Sentinel for "no entry" in the 32-bit id columns. */
inline constexpr uint32_t kNoId32 = ~uint32_t(0);
/** Sentinel for "no entry" in the 16-bit id columns. */
inline constexpr uint16_t kNoId16 = uint16_t(0xFFFF);
/** Ddg::append's mem_from when no dep is memory-only. */
inline constexpr size_t kNoMemDeps = ~size_t(0);

/** Ddg::flags bits. */
enum : uint8_t
{
    kEvLoad = 1u << 0,
    kEvStore = 1u << 1,
    /** First non-completion event of its invocation. */
    kEvEntry = 1u << 2,
    /** Synthetic event: an invocation's completion or a loop's
     *  carried-value latch. It has no node. */
    kEvCompletion = 1u << 3,
    /** A ChildCall firing that dispatched an invocation of its callee
     *  (one whose guard is off dispatches nothing). */
    kEvDispatch = 1u << 4,
    /** With kEvCompletion: the invocation's completion, not a
     *  carried-value latch. */
    kEvDone = 1u << 5,
    /** A firing of a loop-control node. With kEvDone, these are the
     *  only events a window dep can come from: a completion frees a
     *  queue slot, a loop-control firing hands a tile over. */
    kEvLoopControl = 1u << 6,
};

/** The final value of one 4-byte memory word a run stored to. */
struct WordWrite
{
    /** Byte address / 4. */
    uint32_t word;
    /** Its bytes in memory order (only those inside the image count
     *  for a word the image's end cuts short). */
    uint32_t value;
};

/**
 * A record node: its task (uir::Task::id()) and its position in that
 * task's nodes(). Designs with equal uir::dataflowKey()s list the same
 * tasks and, per task, the same nodes in the same order, so a NodeRef
 * names one node in each of them.
 */
struct NodeRef
{
    uint32_t task = 0;
    uint32_t index = 0;

    bool operator==(const NodeRef &) const = default;
};

/** The node @p ref names in @p accel (range-checked). */
const uir::Node &resolveNode(const uir::Accelerator &accel, NodeRef ref);

/** The whole execution record, one column per attribute. */
struct Ddg
{
    /** @name Dependency CSR @{ */
    /** deps of event e: deps[depStart[e] .. depStart[e+1]), in
     *  recording order. */
    std::vector<uint32_t> depStart{0};
    std::vector<uint32_t> deps;
    /**
     * One bit per deps entry: set when that dep exists only to order
     * conflicting memory accesses (RAW/WAW/WAR). The conflict observer
     * computes happens-before over the other deps: two overlapping
     * accesses ordered by nothing but a memory edge are a dynamic
     * race — the hardware provides no such ordering for free.
     */
    std::vector<uint64_t> memDepBits;
    /** @} */

    /** @name Per-event columns @{ */
    /** Memory access descriptor (loads and stores only; 0 elsewhere). */
    std::vector<uint64_t> addr;
    std::vector<uint16_t> words;
    std::vector<uint8_t> flags;
    std::vector<uint32_t> invocation;
    /** Dense node id (index into nodes); kNoId32 for completions. */
    std::vector<uint32_t> nodeOf;
    /** @} */

    /** @name Per-invocation columns @{ */
    /** Task id (uir::Task::id(), its index in Accelerator::tasks()).
     *  Invocations are numbered in the order they begin. */
    std::vector<uint16_t> invTask;
    /** @} */

    /** Dense node id -> its node in the recording design. */
    std::vector<NodeRef> nodes;

    uint32_t numEvents = 0;
    uint32_t numInvocations = 0;

    /** @name Functional result of the recorded run @{ */
    /** Live-out values of the root task; no tensor is shared with the
     *  run's caller. */
    std::vector<ir::RuntimeValue> outputs;
    /** Dynamic node firings. */
    uint64_t firings = 0;
    /** Every word some store wrote, ascending by word. */
    std::vector<WordWrite> writes;
    /** @} */

    /** Is deps[k] a memory-ordering-only dependency? */
    bool
    isMemDep(uint32_t k) const
    {
        return (memDepBits[k >> 6] >> (k & 63)) & 1;
    }

    /** Begin a new invocation; returns its index. */
    uint32_t beginInvocation(uint16_t task);

    /**
     * Append one event of invocation @p inv and return its id.
     * @p event_deps are earlier event ids in recording order; kNoEvent
     * entries are skipped, and with @p dedupe so is an id already
     * listed. Entries from index @p mem_from of @p event_deps on are
     * memory-only. The invocation's first non-completion event gains
     * kEvEntry.
     */
    uint32_t append(uint32_t inv, uint32_t node, uint8_t event_flags,
                    std::span<const uint64_t> event_deps, bool dedupe,
                    size_t mem_from = kNoMemDeps, uint64_t access_addr = 0,
                    uint16_t access_words = 0);

  private:
    /**
     * The newest invocation while it has no entry event yet. Children
     * start from a dispatch event of their parent, so an invocation's
     * entry always precedes every later invocation's start, and only
     * the newest one can still be waiting for it.
     */
    uint32_t awaitingEntry_ = kNoId32;
};

/**
 * Heap bytes behind the record's columns and write set — the
 * microbench's bytes/event comparison against CompiledDdg::bytes().
 */
size_t ddgBytes(const Ddg &ddg);

/** A copy of @p values whose tensors own their storage, so neither
 *  copy sees writes through the other. */
std::vector<ir::RuntimeValue>
unsharedCopy(const std::vector<ir::RuntimeValue> &values);

} // namespace muir::sim
