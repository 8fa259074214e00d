/**
 * @file
 * μprof — cycle attribution and critical-path analysis over the timing
 * replay (the observability layer the μopt loop steers by).
 *
 * The timing scheduler, when handed a ProfileCollector, records one
 * EventCost per DDG event: where the event's start was pushed back
 * (operand skew, full task queue, tile initiation interval, junction
 * port, bank port) and where its latency was inflated (cache miss,
 * DRAM bandwidth queue). buildProfile() then derives:
 *
 *  - raw stall roll-ups per class / task / structure (overlap-blind:
 *    concurrent stalls all count, so sums may exceed total cycles —
 *    use them for "how much contention exists");
 *  - a critical-path walk: starting from the last-finishing event,
 *    follow the dependency that determined each ready time. Every
 *    cycle in [0, total] is attributed to exactly one (node, class)
 *    segment, so per-class critical cycles are mutually exclusive and
 *    sum exactly to the total — use them for "what to fix next";
 *  - utilization/occupancy: per-tile busy cycles (interval union),
 *    per-task queue-depth distributions, per-structure port activity,
 *    and a dependence-edge slack histogram;
 *  - Chrome trace-event JSON of the event timeline (one track per
 *    task/tile), loadable in ui.perfetto.dev.
 *
 * Profiling is strictly observational: with a null collector the
 * scheduler does no extra work and produces bit-identical results.
 */
#pragma once

#include <map>
#include <string>
#include <vector>

#include "sim/timing.hh"

namespace muir::sim
{

/** Why a cycle was lost. Classes are mutually exclusive per cycle. */
enum class StallClass : unsigned
{
    /** Waiting for the last operand after the first arrived. */
    Operand,
    /** Dispatch blocked: callee task queue at queueDepth·tiles. */
    QueueFull,
    /** Function unit busy: per-(node, tile) initiation interval. */
    TileII,
    /** Junction read/write port contention (§3.4). */
    Junction,
    /** Scratchpad/cache bank port conflict. */
    Bank,
    /** Cache miss latency. */
    CacheMiss,
    /** DRAM bandwidth queueing. */
    Dram,
    kCount,
};

inline constexpr size_t kNumStallClasses =
    static_cast<size_t>(StallClass::kCount);

/** @return short machine name, e.g. "queue_full". */
const char *stallClassName(StallClass c);

/** Cycles lost per stall class. */
struct StallBreakdown
{
    uint64_t cycles[kNumStallClasses] = {};

    uint64_t &operator[](StallClass c)
    {
        return cycles[static_cast<size_t>(c)];
    }
    uint64_t operator[](StallClass c) const
    {
        return cycles[static_cast<size_t>(c)];
    }

    uint64_t total() const;
    void add(const StallBreakdown &other);
    /** Class with the most cycles; Operand when all-zero. */
    StallClass dominant() const;
};

/** Per-event cost record, indexed by compiled event id. */
struct EventCost
{
    uint64_t ready = 0;
    uint64_t start = 0;
    uint64_t finish = 0;
    /** Start pushback: in-order initiation on the assigned tile. */
    uint64_t iiWait = 0;
    /** Start pushback: junction read/write port arbitration. */
    uint64_t junctionWait = 0;
    /** Start pushback: bank port arbitration. */
    uint64_t bankWait = 0;
    /** Latency inflation: cache miss service time. */
    uint64_t missPenalty = 0;
    /** Latency inflation: waiting in the DRAM bandwidth queue. */
    uint64_t dramWait = 0;
    /** Ready pushback: dispatch held by a full task queue. */
    uint64_t queueWait = 0;
    /** Operand skew: last-arriving minus first-arriving input. */
    uint64_t operandWait = 0;
    /** Dep whose finish time set ready (kNoEvent for sources). */
    uint64_t critDep = kNoEvent;
    /** Same, ignoring the queue-backpressure dep. */
    uint64_t dataCritDep = kNoEvent;
    /** Execution tile the event issued on. */
    uint32_t tile = 0;

    /**
     * @name Time-resolved memory activity (μscope)
     * Loads/stores additionally record where their structure/DRAM
     * occupancy landed on the clock, so the timeline sampler can bin
     * port beats and DRAM bytes per window without re-simulating.
     * @{
     */
    /** Structure the access hit (nullptr for pure compute events). */
    const uir::Structure *structure = nullptr;
    /** Bank-port beats the access occupied, starting at start. */
    uint32_t beats = 0;
    /** Cycle the DRAM line refill began (cache misses only). */
    uint64_t dramStart = 0;
    /** Cycles the refill occupied the DRAM port (0 = no refill). */
    uint64_t dramXfer = 0;
    /** Bytes the refill moved (the structure's line size). */
    uint32_t dramBytes = 0;
    /** @} */
};

/**
 * Raw per-run measurement buffer filled by scheduleDdg. Pass one to
 * scheduleDdg to turn profiling on; everything else derives from it.
 */
struct ProfileCollector
{
    std::vector<EventCost> events;

    /** Per-structure port activity. */
    struct StructUse
    {
        uint64_t accesses = 0;
        /** Accesses that found all ports of their bank busy. */
        uint64_t conflicts = 0;
        /** Port-cycles consumed (beats). */
        uint64_t busyBeats = 0;
    };
    std::map<const uir::Structure *, StructUse> structUse;
};

/** One node's contribution to the critical path. */
struct CritPathEntry
{
    const uir::Node *node = nullptr;
    /** Total cycles of the chain spent at this node. */
    uint64_t cycles = 0;
    /** Portion doing useful work (latency minus penalties). */
    uint64_t executeCycles = 0;
    /** Chain events at this node. */
    uint64_t events = 0;
    StallBreakdown stalls;
    /** Largest stall class (Operand when the node never stalled). */
    StallClass dominantClass = StallClass::Operand;
};

/** Per-task attribution and occupancy. */
struct TaskProfile
{
    const uir::Task *task = nullptr;
    uint64_t events = 0;
    uint64_t invocations = 0;
    /** Overlap-blind stall totals over every event of the task. */
    StallBreakdown raw;
    /** Non-overlapped stall cycles on the critical path. */
    StallBreakdown critical;
    /** Non-overlapped execute cycles on the critical path. */
    uint64_t criticalExecute = 0;
    /** Cycles spent with N invocations in flight (queue occupancy). */
    std::map<uint64_t, uint64_t> queueDepthCycles;
    /** Per-tile busy cycles (union of event service intervals). */
    std::map<uint32_t, uint64_t> tileBusy;
};

/** Per-structure utilization. */
struct StructProfile
{
    const uir::Structure *structure = nullptr;
    uint64_t accesses = 0;
    uint64_t conflicts = 0;
    uint64_t busyBeats = 0;
    /** busyBeats / (cycles · banks · portsPerBank). */
    double utilization = 0.0;
};

/** Everything μprof derives from one run. */
struct ProfileResult
{
    uint64_t cycles = 0;
    /** Overlap-blind whole-run stall totals. */
    StallBreakdown raw;
    /** Critical-path classification: sums to cycles with execute. */
    StallBreakdown critical;
    uint64_t criticalExecute = 0;
    /** Cycles the walk covered — equals cycles by construction. */
    uint64_t criticalLength = 0;
    /** Ranked (descending cycles) per-node critical contributions. */
    std::vector<CritPathEntry> criticalPath;
    /** Keyed by task name (deterministic iteration). */
    std::map<std::string, TaskProfile> tasks;
    /** Keyed by structure name. */
    std::map<std::string, StructProfile> structures;
    /**
     * Dependence-edge slack (ready − dep finish) distribution,
     * log2-bucketed: bucket 0 = slack 0 (critical edges), bucket k =
     * slack in [2^(k−1), 2^k).
     */
    std::map<unsigned, uint64_t> slackHistogram;
};

/**
 * Task-queue occupancy of one collected replay of @p cd: per task id,
 * the (cycle, +1/-1) steps of its invocations in flight, sorted. An
 * invocation enters at its entry event's ready cycle and leaves at its
 * completion's finish; one without an entry event is left out.
 */
std::map<uint16_t, std::vector<std::pair<uint64_t, int>>>
occupancyDeltas(const CompiledDdg &cd, const ProfileCollector &collector);

/** Derive the full profile from one collected replay of @p cd. */
ProfileResult buildProfile(const CompiledDdg &cd,
                           const ProfileCollector &collector,
                           uint64_t cycles);

/**
 * Human-readable report: stall summary plus the top-N critical-path
 * nodes with their dominant stall class (muirc --critical-path).
 */
std::string renderProfileText(const ProfileResult &profile,
                              size_t top_n = 12);

/** Serialize the profile as one JSON object. */
std::string profileJson(const ProfileResult &profile);

struct Timeline; // sim/timeline.hh

/**
 * Chrome trace-event JSON ("traceEvents" array format): one complete
 * "X" event per scheduled node firing on a (task, tile) track, with
 * thread-name metadata. ts/dur are in cycles (load into
 * ui.perfetto.dev; 1 cycle displays as 1 µs). Output is byte-stable
 * across runs: tracks are assigned and emitted in (task-name, tile)
 * order, all metadata ahead of the slice events, so two traces of the
 * same design diff cleanly. With @p timeline set, the μscope counter
 * tracks (stall mix, DRAM bandwidth, utilization, occupancy) are
 * appended after the slices.
 */
std::string chromeTraceJson(const std::vector<TimingTraceRow> &rows,
                            const ProfileCollector &collector,
                            const Timeline *timeline = nullptr);

} // namespace muir::sim
