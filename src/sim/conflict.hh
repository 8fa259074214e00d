/**
 * @file
 * Dynamic memory-conflict observer: the simulator-side ground truth
 * for μlint's static race check (R001).
 *
 * The executor records every dynamic memory access and every
 * dependence that orders events — data edges, spawn/sync edges — plus
 * the RAW/WAW/WAR edges it adds just to keep conflicting accesses in
 * program order, each flagged by its memory-only bit in the record's
 * dep CSR (Ddg::memDepBits). compileDdg adds the design's task-queue
 * and loop hand-off windows, which order events too. Real hardware
 * provides no memory ordering for free: two overlapping accesses (at
 * least one a store) whose only ordering is a memory edge are a data
 * race the microarchitecture may resolve either way. The scan reads
 * the inputs of the compiled index, so a design's queue windows count
 * as orderings.
 */
#pragma once

#include <cstdint>
#include <vector>

#include "sim/compiled_ddg.hh"

namespace muir::sim
{

/** One observed racy pair of dynamic memory accesses. */
struct MemConflict
{
    /** Event ids, first < second in record order. */
    uint64_t first = 0;
    uint64_t second = 0;
    /** Static nodes behind the two accesses. */
    const uir::Node *firstNode = nullptr;
    const uir::Node *secondNode = nullptr;
    /** First overlapping word address. */
    uint64_t addr = 0;
};

/**
 * Scan a recorded execution for overlapping accesses (>= 1 store)
 * unordered by any non-memory dependence.
 *
 * @param cd            The compiled execution record (compileDdg).
 * @param max_conflicts Stop after this many findings.
 */
std::vector<MemConflict> findConflicts(const CompiledDdg &cd,
                                       size_t max_conflicts = 16);

} // namespace muir::sim
