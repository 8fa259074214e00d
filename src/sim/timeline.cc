#include "sim/timeline.hh"

#include <algorithm>
#include <functional>
#include <sstream>

#include "sim/compiled_ddg.hh"
#include "support/json.hh"
#include "support/logging.hh"
#include "support/stats.hh"
#include "support/strings.hh"
#include "support/table.hh"

namespace muir::sim
{

uint64_t
Timeline::classTotal(StallClass c) const
{
    uint64_t sum = 0;
    for (const StallBreakdown &sb : stalls)
        sum += sb[c];
    return sum;
}

namespace
{

/** Split [a, b) across the first @p n windows: add(w, overlap). */
template <typename Add>
void
splitSpan(size_t n, uint64_t width, uint64_t a, uint64_t b, Add add)
{
    if (b <= a)
        return;
    for (size_t w = static_cast<size_t>(a / width); w < n; ++w) {
        uint64_t ws = w * width;
        uint64_t we = ws + width;
        uint64_t lo = std::max(a, ws);
        uint64_t hi = std::min(b, we);
        if (hi > lo)
            add(w, hi - lo);
        if (b <= we)
            break;
    }
}

/** Add each window's overlap with [a, b), times @p mult, to @p lane. */
void
binSpan(std::vector<uint64_t> &lane, uint64_t width, uint64_t a,
        uint64_t b, uint64_t mult = 1)
{
    splitSpan(lane.size(), width, a, b,
              [&](size_t w, uint64_t len) { lane[w] += len * mult; });
}

} // namespace

Timeline
buildTimeline(const CompiledDdg &cd, const ScheduleLog &log,
              uint64_t cycles, unsigned windows)
{
    Timeline tl;
    tl.cycles = cycles;
    unsigned target = windows ? windows : kDefaultTimelineWindows;
    tl.windowWidth =
        std::max<uint64_t>(1, (cycles + target - 1) / target);
    size_t n = cycles ? static_cast<size_t>(
                            (cycles + tl.windowWidth - 1) /
                            tl.windowWidth)
                      : 1;
    uint64_t width = tl.windowWidth;

    const uint32_t events = cd.numEvents;
    muir_assert(log.rank.size() == events,
                "timeline: %zu logged events of %u", log.rank.size(),
                events);

    tl.stalls.assign(n, StallBreakdown{});
    tl.eventStarts.assign(n, 0);
    tl.tileBusyCycles.assign(n, 0);
    tl.dramBusyCycles.assign(n, 0);
    tl.dramBytes.assign(n, 0.0);
    for (const CompiledStruct &cs : cd.structs) {
        TimelineStructLane &lane = tl.structures[cs.s->name()];
        lane.banks = cs.s->banks();
        lane.portsPerBank = cs.portsPerBank;
        lane.busyBeats.assign(n, 0);
    }

    auto stall = [&](StallClass cls, uint64_t a, uint64_t b) {
        splitSpan(n, width, a, b, [&](size_t w, uint64_t len) {
            tl.stalls[w][cls] += len;
        });
    };

    for (uint32_t id = 0; id < events; ++id) {
        // μprof's raw roll-up skips completions too.
        if (!log.processed(id) || (cd.record->flags[id] & kEvCompletion))
            continue;
        const EventCost c = eventCost(cd, log, id);

        // Reconstruct each stall's position on the clock from the
        // scheduler's pushback order: operands gather, then the queue
        // slot gates dispatch (both before ready), then the tile II,
        // junction ports, and bank ports push the start back, and the
        // DRAM queue plus the miss service inflate the tail of the
        // latency. Every span has exactly the stall's length, so the
        // window sums partition the aggregate raw totals.
        uint64_t data_ready = c.ready - c.queueWait;
        stall(StallClass::Operand, data_ready - c.operandWait,
              data_ready);
        stall(StallClass::QueueFull, data_ready, c.ready);
        uint64_t t = c.ready;
        stall(StallClass::TileII, t, t + c.iiWait);
        t += c.iiWait;
        stall(StallClass::Junction, t, t + c.junctionWait);
        t += c.junctionWait;
        stall(StallClass::Bank, t, t + c.bankWait);
        stall(StallClass::Dram,
              c.finish - c.missPenalty - c.dramWait,
              c.finish - c.missPenalty);
        stall(StallClass::CacheMiss, c.finish - c.missPenalty,
              c.finish);

        size_t sw = static_cast<size_t>(c.start / width);
        ++tl.eventStarts[std::min(sw, n - 1)];
        if (c.structure) {
            auto it = tl.structures.find(c.structure->name());
            if (it != tl.structures.end())
                binSpan(it->second.busyBeats, width, c.start,
                        c.start + c.beats);
        }
        if (c.dramXfer) {
            binSpan(tl.dramBusyCycles, width, c.dramStart,
                    c.dramStart + c.dramXfer);
            // Spread the line's bytes across the transfer window.
            double per_cycle =
                double(c.dramBytes) / double(c.dramXfer);
            splitSpan(n, width, c.dramStart, c.dramStart + c.dramXfer,
                      [&](size_t w, uint64_t len) {
                          tl.dramBytes[w] += per_cycle * double(len);
                      });
        }
    }
    for (const auto &[key, spans] : tileBusySpans(cd, log))
        for (const auto &[lo, hi] : spans)
            binSpan(tl.tileBusyCycles, width, lo, hi);

    // Task-queue occupancy: integrate invocations-in-flight per
    // window (enter at the entry event's ready, leave at completion).
    for (const auto &[tid, deltas] : occupancyDeltas(cd, log)) {
        auto &lane = tl.taskOccupancyCycles[cd.tasks[tid].task->name()];
        lane.assign(n, 0);
        uint64_t prev = 0;
        int64_t depth = 0;
        for (const auto &[time, delta] : deltas) {
            if (time > prev && depth > 0)
                binSpan(lane, width, prev, time,
                        static_cast<uint64_t>(depth));
            depth += delta;
            prev = time;
        }
    }
    return tl;
}

namespace
{

/** Compress a lane to at most @p cols columns by summing groups. */
std::vector<double>
regroup(const std::vector<double> &lane, size_t cols)
{
    if (lane.size() <= cols)
        return lane;
    size_t group = (lane.size() + cols - 1) / cols;
    std::vector<double> out((lane.size() + group - 1) / group, 0.0);
    for (size_t i = 0; i < lane.size(); ++i)
        out[i / group] += lane[i];
    return out;
}

std::vector<double>
toDoubles(const std::vector<uint64_t> &lane)
{
    return std::vector<double>(lane.begin(), lane.end());
}

/** Eight-level unicode sparkline; blank for exactly-zero windows. */
std::string
sparkline(const std::vector<double> &lane, size_t cols = 64)
{
    static const char *kBlocks[] = {"▁", "▂", "▃",
                                    "▄", "▅", "▆",
                                    "▇", "█"};
    std::vector<double> v = regroup(lane, cols);
    double peak = 0.0;
    for (double x : v)
        peak = std::max(peak, x);
    // Braille blank: renders empty but is 3 UTF-8 bytes like the
    // blocks, so AsciiTable's byte-width padding stays aligned.
    static const char *kZero = "⠀";
    std::string out;
    for (double x : v) {
        if (x <= 0.0 || peak <= 0.0) {
            out += kZero;
            continue;
        }
        int level = static_cast<int>(x / peak * 8.0);
        out += kBlocks[std::clamp(level, 0, 7)];
    }
    return out;
}

/** Ten-level ASCII intensity ramp for the stall heatmap. */
std::string
heatline(const std::vector<double> &lane, double peak,
         size_t cols = 64)
{
    static const char kRamp[] = " .:-=+*#%@";
    std::vector<double> v = regroup(lane, cols);
    std::string out;
    for (double x : v) {
        if (x <= 0.0 || peak <= 0.0) {
            out += ' ';
            continue;
        }
        int level = 1 + static_cast<int>(x / peak * 8.999);
        out += kRamp[std::clamp(level, 1, 9)];
    }
    return out;
}

/** Per-window integer levels → value→count histogram (percentiles). */
std::map<uint64_t, uint64_t>
laneHistogram(const std::vector<uint64_t> &lane)
{
    std::map<uint64_t, uint64_t> hist;
    for (uint64_t v : lane)
        ++hist[v];
    return hist;
}

} // namespace

std::string
renderTimelineText(const Timeline &tl)
{
    std::ostringstream os;
    size_t n = tl.numWindows();
    double width = double(tl.windowWidth);

    // --- Utilization / occupancy lanes with summary percentiles. ---
    AsciiTable lanes({"lane", "activity (time →)", "avg", "peak",
                      "p95"});
    auto addLane = [&](const std::string &name,
                       const std::vector<uint64_t> &lane,
                       double denom) {
        double total = 0.0, peak = 0.0;
        for (uint64_t v : lane) {
            total += double(v);
            peak = std::max(peak, double(v));
        }
        uint64_t p95 = histogramP95(laneHistogram(lane));
        lanes.addRow({name, sparkline(toDoubles(lane)),
                      fmt("%.2f", total / (double(n) * denom)),
                      fmt("%.2f", peak / denom),
                      fmt("%.2f", double(p95) / denom)});
    };
    for (const auto &[name, lane] : tl.structures)
        addLane(fmt("%s util", name.c_str()), lane.busyBeats,
                width * lane.portCapacity());
    addLane("dram port", tl.dramBusyCycles, width);
    {
        double total = 0.0, peak = 0.0;
        for (double v : tl.dramBytes) {
            total += v;
            peak = std::max(peak, v);
        }
        std::map<uint64_t, uint64_t> hist;
        for (double v : tl.dramBytes)
            ++hist[static_cast<uint64_t>(v)];
        lanes.addRow({"dram bytes/cyc", sparkline(tl.dramBytes),
                      fmt("%.2f", total / (double(n) * width)),
                      fmt("%.2f", peak / width),
                      fmt("%.2f", double(histogramP95(hist)) / width)});
    }
    addLane("active tiles", tl.tileBusyCycles, width);
    addLane("issue rate", tl.eventStarts, width);
    for (const auto &[name, lane] : tl.taskOccupancyCycles)
        addLane(fmt("queue %s", name.c_str()), lane, width);
    os << lanes.render(
        fmt("µscope timeline: %llu cycles in %zu windows of %llu "
            "(avg/peak/p95 are per-cycle rates)",
            (unsigned long long)tl.cycles, n,
            (unsigned long long)tl.windowWidth));

    // --- Stall-class heatmap. ---
    AsciiTable heat({"stall class", "heat (time →)", "cycles"});
    for (size_t i = 0; i < kNumStallClasses; ++i) {
        auto cls = static_cast<StallClass>(i);
        std::vector<double> lane(n, 0.0);
        for (size_t w = 0; w < n; ++w)
            lane[w] = double(tl.stalls[w][cls]);
        std::vector<double> grouped = regroup(lane, 64);
        double peak = 0.0;
        for (double v : grouped)
            peak = std::max(peak, v);
        heat.addRow({stallClassName(cls), heatline(lane, peak),
                     fmt("%llu",
                         (unsigned long long)tl.classTotal(cls))});
    }
    os << heat.render("µscope stall mix over time (raw, "
                      "overlap-blind; row-normalized intensity)");
    return os.str();
}

namespace
{

void
writeLane(JsonWriter &w, const std::string &key,
          const std::vector<uint64_t> &lane)
{
    w.beginArray(key);
    for (uint64_t v : lane)
        w.value(v);
    w.end();
}

} // namespace

std::string
timelineJson(const Timeline &tl)
{
    std::ostringstream os;
    JsonWriter w(os);
    w.beginObject();
    w.field("schema", "muir.timeline.v1");
    w.field("cycles", tl.cycles);
    w.field("window_width", tl.windowWidth);
    w.field("windows", uint64_t(tl.numWindows()));
    w.beginObject("stall_cycles");
    for (size_t i = 0; i < kNumStallClasses; ++i) {
        auto cls = static_cast<StallClass>(i);
        w.beginArray(stallClassName(cls));
        for (const StallBreakdown &sb : tl.stalls)
            w.value(sb[cls]);
        w.end();
    }
    w.end();
    writeLane(w, "event_starts", tl.eventStarts);
    writeLane(w, "tile_busy_cycles", tl.tileBusyCycles);
    w.beginObject("dram");
    writeLane(w, "busy_cycles", tl.dramBusyCycles);
    w.beginArray("bytes");
    for (double v : tl.dramBytes)
        w.value(v);
    w.end();
    w.end();
    w.beginObject("structures");
    for (const auto &[name, lane] : tl.structures) {
        w.beginObject(name);
        w.field("banks", lane.banks);
        w.field("ports_per_bank", lane.portsPerBank);
        writeLane(w, "busy_beats", lane.busyBeats);
        w.end();
    }
    w.end();
    w.beginObject("task_occupancy_cycles");
    for (const auto &[name, lane] : tl.taskOccupancyCycles)
        writeLane(w, name, lane);
    w.end();
    w.end();
    return os.str();
}

void
writeTimelineCounterTracks(JsonWriter &w, const Timeline &tl)
{
    size_t n = tl.numWindows();
    double width = double(tl.windowWidth);
    auto counter = [&](const std::string &name, uint64_t ts,
                       const std::function<void()> &args) {
        w.beginObject();
        w.field("name", name);
        w.field("ph", "C");
        w.field("pid", 1);
        w.field("ts", ts);
        w.beginObject("args");
        args();
        w.end();
        w.end();
    };
    for (size_t i = 0; i < n; ++i) {
        uint64_t ts = tl.windowStart(i);
        counter("stall mix", ts, [&] {
            for (size_t c = 0; c < kNumStallClasses; ++c)
                w.field(stallClassName(static_cast<StallClass>(c)),
                        tl.stalls[i].cycles[c]);
        });
        counter("dram bytes/cycle", ts, [&] {
            w.field("value", tl.dramBytes[i] / width);
        });
        counter("active tiles", ts, [&] {
            w.field("value", double(tl.tileBusyCycles[i]) / width);
        });
        counter("issue rate", ts, [&] {
            w.field("value", double(tl.eventStarts[i]) / width);
        });
        for (const auto &[name, lane] : tl.structures) {
            double ports = width * lane.portCapacity();
            counter(fmt("util %s", name.c_str()), ts, [&] {
                w.field("value",
                        double(lane.busyBeats[i]) / ports);
            });
        }
        for (const auto &[name, lane] : tl.taskOccupancyCycles)
            counter(fmt("queue %s", name.c_str()), ts, [&] {
                w.field("value", double(lane[i]) / width);
            });
    }
}

} // namespace muir::sim
