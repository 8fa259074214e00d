/**
 * @file
 * μscope — time-resolved telemetry over the timing replay. μprof
 * (sim/profile.hh) answers "where did the cycles go" for the whole
 * run; μscope answers "and *when*": the run is cut into fixed-width
 * windows (auto width ≈ cycles/256) and every window gets the raw
 * stall-class mix, per-structure port utilization, DRAM port
 * occupancy and bytes moved, cycle-weighted active execution tiles,
 * task-queue occupancy, and the issue rate.
 *
 * The timeline is derived entirely after the run from the schedule
 * log (sim/timing.hh) through μprof's eventCost, so the log's
 * observational contract carries over: with the sampler off, cycles
 * and stats are bit-identical. Events a tripped run never processed
 * are left out.
 *
 * Exactness invariant (guarded by test on every baseline): each
 * event's stall span is split across the windows it overlaps, so the
 * per-window per-class sums equal μprof's aggregate raw totals
 * exactly — the timeline is a partition of the profile, not a
 * resampling of it.
 *
 * Exports: ASCII sparkline/heatmap tables (support/table), a
 * `muir.timeline.v1` JSON section for `--report-json`, and Perfetto
 * counter tracks appended to the `--emit-trace-json` timeline.
 */
#pragma once

#include <map>
#include <string>
#include <vector>

#include "sim/profile.hh"

namespace muir
{
class JsonWriter; // support/json.hh
}

namespace muir::sim
{

/** Auto window count: width is ceil(cycles / this). */
inline constexpr unsigned kDefaultTimelineWindows = 256;

/**
 * One structure's per-window port activity. Capacities are copied by
 * value so the Timeline stays valid after its accelerator is freed
 * (RunResult can outlive the design).
 */
struct TimelineStructLane
{
    unsigned banks = 1;
    unsigned portsPerBank = 1;
    /** Bank-port beats consumed per window. */
    std::vector<uint64_t> busyBeats;

    /** Port-cycles available per cycle (the utilization denominator). */
    double portCapacity() const
    {
        return double(banks < 1u ? 1u : banks) *
               double(portsPerBank < 1u ? 1u : portsPerBank);
    }
};

/** The windowed run telemetry. All lanes have numWindows() entries. */
struct Timeline
{
    uint64_t cycles = 0;
    uint64_t windowWidth = 1;

    /** Raw (overlap-blind) stall cycles per window, split by span. */
    std::vector<StallBreakdown> stalls;
    /** Events that began execution in each window. */
    std::vector<uint64_t> eventStarts;
    /** Busy execution-tile cycles per window (summed over tiles). */
    std::vector<uint64_t> tileBusyCycles;
    /** Cycles the DRAM port spent transferring lines. */
    std::vector<uint64_t> dramBusyCycles;
    /** Bytes DRAM moved per window (refills split proportionally). */
    std::vector<double> dramBytes;
    /** Keyed by structure name (deterministic iteration). */
    std::map<std::string, TimelineStructLane> structures;
    /** Per task: invocations-in-flight · cycles, per window. */
    std::map<std::string, std::vector<uint64_t>> taskOccupancyCycles;

    size_t numWindows() const { return stalls.size(); }
    uint64_t windowStart(size_t w) const { return w * windowWidth; }

    /** Sum of a stall class across all windows (invariant probe). */
    uint64_t classTotal(StallClass c) const;
};

/**
 * Derive the windowed timeline from one logged run.
 * @param windows Window-count target; 0 = kDefaultTimelineWindows.
 */
Timeline buildTimeline(const CompiledDdg &cd, const ScheduleLog &log,
                       uint64_t cycles, unsigned windows = 0);

/**
 * Human-readable report (muirc --timeline): a sparkline table of the
 * utilization/occupancy lanes with avg/peak/p95 summary columns, and
 * a stall-class heatmap over time.
 */
std::string renderTimelineText(const Timeline &tl);

/** Serialize as one `muir.timeline.v1` JSON object. */
std::string timelineJson(const Timeline &tl);

/**
 * Append Perfetto counter tracks ("ph":"C", one sample per window)
 * to an open trace-event array: the stall mix, DRAM bandwidth,
 * active tiles, issue rate, per-structure utilization, and per-task
 * queue occupancy, alongside the slice tracks chromeTraceJson emits.
 */
void writeTimelineCounterTracks(JsonWriter &w, const Timeline &tl);

} // namespace muir::sim
