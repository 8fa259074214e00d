/**
 * @file
 * Textual serialization of μIR graphs. A deterministic, line-oriented
 * format that round-trips every structural fact the simulator, passes,
 * and backends consume — so optimized designs can be checkpointed to
 * disk, diffed in review, and reloaded without re-running the front
 * end or the pass pipeline.
 *
 * Format sketch (one entity per line, `#` comments allowed):
 *
 *   accelerator gemm
 *   structure l1 kind=cache banks=1 ports=1 wide=1 lat=2 size=64
 *             ways=4 line=64 miss=80 spaces=0
 *   task gemm.mm.k kind=loop tiles=1 queue=2 decoupled=0 jr=2 jw=1
 *     node loop kind=loopctrl type=i32 carried=1 stages=5 \
 *          in=c0:0,c24:0,c1:0,cf0:0,fma:0
 *   root gemm
 *
 * Node references are by name within the task; names are made unique
 * at serialization time. GlobalAddr nodes reference the source
 * module's arrays by name, so deserialization needs the same module.
 */
#pragma once

#include <memory>
#include <string>

#include "uir/accelerator.hh"

namespace muir::uir
{

/**
 * @name Parser resource caps
 * deserializeOrError is exposed to untrusted input (checkpoints from
 * disk, µserve request payloads), so the parser bounds every dimension
 * an adversarial input could blow up: total bytes, single-line length,
 * and entity counts. Exceeding a cap is a recoverable "input too
 * large" error — never an OOM or a crash. The caps are far above any
 * real design (baseline graphs are hundreds of nodes) while keeping
 * the worst-case parse cost small and predictable.
 * @{
 */
constexpr size_t kMaxSerializedBytes = 16u << 20;     ///< whole input
constexpr size_t kMaxSerializedLineBytes = 64u << 10; ///< one line
constexpr unsigned kMaxSerializedNodes = 1u << 16;    ///< across tasks
constexpr unsigned kMaxSerializedEdges = 1u << 18;    ///< in= + guards
constexpr unsigned kMaxSerializedTasks = 1u << 12;
constexpr unsigned kMaxSerializedStructures = 1u << 12;
/** @} */

/** Serialize the whole graph to the textual format. */
std::string serialize(const Accelerator &accel);

/**
 * What a recording of @p accel depends on: the serialized graph without
 * its structure lines and without each task's tiles, queue depth,
 * decoupling and junction ports, none of which the executor reads (the
 * queuing pass sets `decoupled`; only lint and the cost model read it).
 * Designs with equal keys record the same DDG over the same inputs,
 * node for node (nodes in the same task and position), so one record
 * serves them all (sim::retarget).
 */
std::string dataflowKey(const Accelerator &accel);

/** Outcome of a recoverable deserialization attempt. */
struct DeserializeResult
{
    /** The parsed graph; null when parsing failed. */
    std::unique_ptr<Accelerator> accel;
    /** Human-readable problem description (empty on success). */
    std::string error;
    /** 1-based input line of the problem (0 = whole-input problem). */
    unsigned line = 0;

    bool ok() const { return accel != nullptr; }
};

/**
 * Parse a serialized graph, reporting malformed input as an error +
 * line number instead of aborting — callers (muirc, services) print
 * the diagnostic and carry on. Global-array references resolve
 * against source (which must outlive the result).
 */
DeserializeResult deserializeOrError(const std::string &text,
                                     const ir::Module *source);

/**
 * Parse a serialized graph. Global-array references resolve against
 * source (which must outlive the result). Fatal on malformed input —
 * the orDie convenience over deserializeOrError for tests/tools that
 * want the old abort behavior.
 */
std::unique_ptr<Accelerator> deserialize(const std::string &text,
                                         const ir::Module *source);

} // namespace muir::uir
