#include "sim/profile.hh"

#include <algorithm>
#include <bit>
#include <sstream>

#include "sim/compiled_ddg.hh"
#include "sim/timeline.hh"

#include "support/json.hh"
#include "support/logging.hh"
#include "support/strings.hh"
#include "support/table.hh"

namespace muir::sim
{

const char *
stallClassName(StallClass c)
{
    switch (c) {
      case StallClass::Operand: return "operand";
      case StallClass::QueueFull: return "queue_full";
      case StallClass::TileII: return "tile_ii";
      case StallClass::Junction: return "junction";
      case StallClass::Bank: return "bank";
      case StallClass::CacheMiss: return "cache_miss";
      case StallClass::Dram: return "dram";
      default: return "?";
    }
}

uint64_t
StallBreakdown::total() const
{
    uint64_t sum = 0;
    for (uint64_t c : cycles)
        sum += c;
    return sum;
}

void
StallBreakdown::add(const StallBreakdown &other)
{
    for (size_t i = 0; i < kNumStallClasses; ++i)
        cycles[i] += other.cycles[i];
}

StallClass
StallBreakdown::dominant() const
{
    size_t best = 0;
    for (size_t i = 1; i < kNumStallClasses; ++i)
        if (cycles[i] > cycles[best])
            best = i;
    return static_cast<StallClass>(best);
}

namespace
{

/** The per-event stall vector in raw (overlap-blind) form. */
StallBreakdown
rawStalls(const EventCost &c)
{
    StallBreakdown sb;
    sb[StallClass::Operand] = c.operandWait;
    sb[StallClass::QueueFull] = c.queueWait;
    sb[StallClass::TileII] = c.iiWait;
    sb[StallClass::Junction] = c.junctionWait;
    sb[StallClass::Bank] = c.bankWait;
    sb[StallClass::CacheMiss] = c.missPenalty;
    sb[StallClass::Dram] = c.dramWait;
    return sb;
}

} // namespace

EventCost
eventCost(const CompiledDdg &cd, const ScheduleLog &log, uint32_t id)
{
    EventCost c;
    c.ready = log.ready[id];
    c.start = log.start[id];
    c.finish = log.finish[id];

    // Operand skew and queue gating against the inputs' finish times;
    // the queue-backpressure dep is kept out of the operand statistics.
    // The scheduler raised ready only on a strictly later finish, so
    // of the inputs with the latest finish the first processed set it.
    const uint32_t qd = cd.queueSlotDep(id);
    uint64_t first = ~uint64_t(0);
    uint64_t crit_ready = 0;
    uint64_t data_ready = 0;
    unsigned data_deps = 0;
    for (uint32_t k = 0, m = cd.numInputs(id); k < m; ++k) {
        uint32_t d = cd.input(id, k);
        uint64_t f = log.finish[d];
        if (f > crit_ready ||
            (f && f == crit_ready && log.rank[d] < log.rank[c.critDep])) {
            crit_ready = f;
            c.critDep = d;
        }
        if (d == qd)
            continue;
        ++data_deps;
        first = std::min(first, f);
        if (f > data_ready) {
            data_ready = f;
            c.dataCritDep = d;
        }
    }
    if (data_deps >= 2)
        c.operandWait = data_ready - first;
    if (qd != kNoId32 && log.finish[qd] > data_ready)
        c.queueWait = log.finish[qd] - data_ready;

    const Record &rec = *cd.record;
    if (rec.flags[id] & kEvCompletion)
        return c;
    c.tile = cd.invTile[rec.invocation[id]];
    if (log.memRow[id] == kNoId32) {
        c.iiWait = c.start - c.ready;
        return c;
    }
    // A load or store: the II, junction and bank stages in turn, then
    // a refill behind the access when it missed.
    const ScheduleLog::MemStages &m = log.mem[log.memRow[id]];
    const CompiledStruct &cs =
        cd.structs[cd.nodeInfo[rec.nodeOf[id]].structure];
    c.iiWait = m.iiStart - c.ready;
    c.junctionWait = m.junctionStart - m.iiStart;
    c.bankWait = c.start - m.junctionStart;
    c.structure = cs.s;
    c.beats = cs.beats(rec.words[id]);
    if (m.dramStart != ScheduleLog::kNoRefill) {
        c.dramWait = m.dramStart - (c.start + cs.latency + c.beats - 1);
        c.missPenalty = cs.missLatency;
        c.dramStart = m.dramStart;
        c.dramXfer = cs.missXfer;
        c.dramBytes = cs.lineBytes;
    }
    return c;
}

std::map<std::pair<uint16_t, uint32_t>,
         std::vector<std::pair<uint64_t, uint64_t>>>
tileBusySpans(const CompiledDdg &cd, const ScheduleLog &log)
{
    std::map<std::pair<uint16_t, uint32_t>,
             std::vector<std::pair<uint64_t, uint64_t>>>
        out;
    const Record &rec = *cd.record;
    for (uint32_t id = 0; id < cd.numEvents; ++id) {
        const uint64_t s = log.start[id], f = log.finish[id];
        if (!log.processed(id) || (rec.flags[id] & kEvCompletion) ||
            f <= s)
            continue;
        const uint32_t inv = rec.invocation[id];
        out[{rec.invTask[inv], cd.invTile[inv]}].push_back({s, f});
    }
    for (auto &[key, spans] : out) {
        std::sort(spans.begin(), spans.end());
        size_t merged = 0;
        for (const auto &span : spans) {
            if (merged && span.first <= spans[merged - 1].second)
                spans[merged - 1].second =
                    std::max(spans[merged - 1].second, span.second);
            else
                spans[merged++] = span;
        }
        spans.resize(merged);
    }
    return out;
}

std::map<uint16_t, std::vector<std::pair<uint64_t, int>>>
occupancyDeltas(const CompiledDdg &cd, const ScheduleLog &log)
{
    const Record &rec = *cd.record;
    std::vector<uint64_t> completionFinish(rec.numInvocations, 0);
    std::vector<uint32_t> entryEvent(rec.numInvocations, kNoId32);
    for (uint32_t id = 0; id < cd.numEvents; ++id) {
        if (!log.processed(id))
            continue;
        if (rec.flags[id] & kEvCompletion)
            completionFinish[rec.invocation[id]] = log.finish[id];
        if (rec.flags[id] & kEvEntry)
            entryEvent[rec.invocation[id]] = id;
    }
    std::map<uint16_t, std::vector<std::pair<uint64_t, int>>> out;
    for (uint32_t i = 0; i < rec.numInvocations; ++i) {
        if (entryEvent[i] == kNoId32)
            continue;
        uint64_t enter = log.ready[entryEvent[i]];
        uint64_t leave = std::max(completionFinish[i], enter);
        auto &deltas = out[rec.invTask[i]];
        deltas.emplace_back(enter, +1);
        deltas.emplace_back(leave, -1);
    }
    for (auto &[tid, deltas] : out)
        std::sort(deltas.begin(), deltas.end());
    return out;
}

ProfileResult
buildProfile(const CompiledDdg &cd, const ScheduleLog &log, uint64_t cycles)
{
    const Record &rec = *cd.record;
    ProfileResult r;
    r.cycles = cycles;
    const uint32_t n = cd.numEvents;
    muir_assert(log.rank.size() == n, "profile: %zu logged events of %u",
                log.rank.size(), n);

    auto taskProf = [&](uint16_t tid) -> TaskProfile & {
        const uir::Task *t = cd.tasks[tid].task;
        TaskProfile &tp = r.tasks[t->name()];
        tp.task = t;
        return tp;
    };

    // --- Raw roll-up, port activity, edge slack, tile busy time. ---
    std::vector<StructProfile> ports(cd.structs.size());
    for (uint32_t id = 0; id < n; ++id) {
        if (!log.processed(id))
            continue;
        const EventCost c = eventCost(cd, log, id);
        for (uint32_t k = 0, m = cd.numInputs(id); k < m; ++k) {
            uint64_t slack = c.ready - log.finish[cd.input(id, k)];
            unsigned bucket =
                slack == 0 ? 0u
                           : static_cast<unsigned>(std::bit_width(slack));
            ++r.slackHistogram[bucket];
        }
        if (rec.flags[id] & kEvCompletion)
            continue;
        TaskProfile &tp = taskProf(rec.invTask[rec.invocation[id]]);
        ++tp.events;
        StallBreakdown sb = rawStalls(c);
        tp.raw.add(sb);
        r.raw.add(sb);
        if (c.structure) {
            StructProfile &sp =
                ports[cd.nodeInfo[rec.nodeOf[id]].structure];
            ++sp.accesses;
            sp.busyBeats += c.beats;
            if (c.bankWait)
                ++sp.conflicts;
        }
    }
    for (const auto &[key, spans] : tileBusySpans(cd, log)) {
        uint64_t busy = 0;
        for (const auto &[lo, hi] : spans)
            busy += hi - lo;
        taskProf(key.first).tileBusy[key.second] = busy;
    }

    // --- Queue occupancy: invocations in flight over time. ---
    for (uint32_t i = 0; i < rec.numInvocations; ++i)
        ++taskProf(rec.invTask[i]).invocations;
    for (const auto &[tid, deltas] : occupancyDeltas(cd, log)) {
        TaskProfile &tp = taskProf(tid);
        uint64_t prev = 0;
        int64_t depth = 0;
        for (const auto &[time, delta] : deltas) {
            if (time > prev && depth > 0)
                tp.queueDepthCycles[static_cast<uint64_t>(depth)] +=
                    time - prev;
            depth += delta;
            prev = time;
        }
    }

    // --- Structure utilization. ---
    for (size_t i = 0; i < ports.size(); ++i) {
        StructProfile &sp = ports[i];
        if (!sp.accesses)
            continue;
        const uir::Structure *s = cd.structs[i].s;
        sp.structure = s;
        uint64_t capacity = cycles * std::max(1u, s->banks()) *
                            std::max(1u, s->portsPerBank());
        sp.utilization =
            capacity ? double(sp.busyBeats) / double(capacity) : 0.0;
        r.structures[s->name()] = sp;
    }

    // --- Critical-path walk. ---
    // From the last-finishing event, follow the dependency that set
    // each ready time. Each visited event accounts for [ready, finish]
    // exactly once (its predecessor finishes at ready), so the walk
    // partitions [0, cycles] into execute + stall segments.
    if (n > 0) {
        uint64_t cur = 0;
        for (uint32_t id = 1; id < n; ++id)
            if (log.finish[id] > log.finish[cur])
                cur = id;
        std::map<const uir::Node *, CritPathEntry> perNode;
        while (cur != kNoEvent) {
            const EventCost c =
                eventCost(cd, log, static_cast<uint32_t>(cur));
            uint64_t next = c.critDep;
            if (!(rec.flags[cur] & kEvCompletion)) {
                const uir::Node *node = cd.node(cur);
                TaskProfile &tp =
                    taskProf(rec.invTask[rec.invocation[cur]]);
                CritPathEntry &pe = perNode[node];
                pe.node = node;
                ++pe.events;
                uint64_t execute =
                    (c.finish - c.start) - c.missPenalty - c.dramWait;
                pe.executeCycles += execute;
                tp.criticalExecute += execute;
                r.criticalExecute += execute;
                auto put = [&](StallClass cls, uint64_t cyc) {
                    if (!cyc)
                        return;
                    pe.stalls[cls] += cyc;
                    tp.critical[cls] += cyc;
                    r.critical[cls] += cyc;
                };
                put(StallClass::TileII, c.iiWait);
                put(StallClass::Junction, c.junctionWait);
                put(StallClass::Bank, c.bankWait);
                put(StallClass::CacheMiss, c.missPenalty);
                put(StallClass::Dram, c.dramWait);
                uint64_t covered = c.finish - c.ready;
                if (c.queueWait > 0 && c.critDep == cd.queueSlotDep(cur)) {
                    // The queue slot, not the operands, gated dispatch:
                    // charge the gap to QueueFull and resume the walk
                    // at the operand chain.
                    put(StallClass::QueueFull, c.queueWait);
                    covered += c.queueWait;
                    next = c.dataCritDep;
                }
                pe.cycles += covered;
                r.criticalLength += covered;
            }
            cur = next;
        }
        r.criticalPath.reserve(perNode.size());
        for (auto &[node, pe] : perNode) {
            pe.dominantClass = pe.stalls.total() ? pe.stalls.dominant()
                                                 : StallClass::Operand;
            r.criticalPath.push_back(pe);
        }
        std::sort(r.criticalPath.begin(), r.criticalPath.end(),
                  [](const CritPathEntry &a, const CritPathEntry &b) {
                      if (a.cycles != b.cycles)
                          return a.cycles > b.cycles;
                      if (a.node->parent()->id() !=
                          b.node->parent()->id())
                          return a.node->parent()->id() <
                                 b.node->parent()->id();
                      return a.node->id() < b.node->id();
                  });
    }
    return r;
}

std::string
renderProfileText(const ProfileResult &profile, size_t top_n)
{
    std::ostringstream os;
    double total = std::max<uint64_t>(1, profile.cycles);

    AsciiTable stalls({"cycle class", "critical", "%", "raw"});
    stalls.addRow({"execute",
                   fmt("%llu",
                       (unsigned long long)profile.criticalExecute),
                   fmt("%.1f", 100.0 * profile.criticalExecute / total),
                   "-"});
    for (size_t i = 0; i < kNumStallClasses; ++i) {
        auto cls = static_cast<StallClass>(i);
        stalls.addRow(
            {stallClassName(cls),
             fmt("%llu", (unsigned long long)profile.critical[cls]),
             fmt("%.1f", 100.0 * profile.critical[cls] / total),
             fmt("%llu", (unsigned long long)profile.raw[cls])});
    }
    stalls.addRow({"total",
                   fmt("%llu",
                       (unsigned long long)profile.criticalLength),
                   fmt("%.1f", 100.0 * profile.criticalLength / total),
                   fmt("%llu", (unsigned long long)profile.raw.total())});
    os << stalls.render(
        fmt("µprof: cycle attribution (%llu cycles; critical = "
            "non-overlapped, raw = contention volume)",
            (unsigned long long)profile.cycles));

    AsciiTable path({"#", "node", "task", "cycles", "%", "execute",
                     "dominant stall"});
    size_t rank = 0;
    for (const CritPathEntry &pe : profile.criticalPath) {
        if (rank >= top_n)
            break;
        ++rank;
        path.addRow(
            {fmt("%zu", rank), pe.node->name(),
             pe.node->parent()->name(),
             fmt("%llu", (unsigned long long)pe.cycles),
             fmt("%.1f", 100.0 * pe.cycles / total),
             fmt("%llu", (unsigned long long)pe.executeCycles),
             pe.stalls.total() ? stallClassName(pe.dominantClass)
                               : "none"});
    }
    os << path.render("µprof: critical path, ranked by contribution");
    return os.str();
}

namespace
{

void
writeStalls(JsonWriter &w, const std::string &key,
            const StallBreakdown &sb)
{
    w.beginObject(key);
    for (size_t i = 0; i < kNumStallClasses; ++i)
        w.field(stallClassName(static_cast<StallClass>(i)),
                sb.cycles[i]);
    w.end();
}

} // namespace

std::string
profileJson(const ProfileResult &profile)
{
    std::ostringstream os;
    JsonWriter w(os);
    w.beginObject();
    w.field("cycles", profile.cycles);
    w.field("critical_execute", profile.criticalExecute);
    w.field("critical_length", profile.criticalLength);
    writeStalls(w, "critical_stalls", profile.critical);
    writeStalls(w, "raw_stalls", profile.raw);

    w.beginArray("critical_path");
    for (const CritPathEntry &pe : profile.criticalPath) {
        w.beginObject();
        w.field("node", pe.node->name());
        w.field("task", pe.node->parent()->name());
        w.field("cycles", pe.cycles);
        w.field("execute", pe.executeCycles);
        w.field("events", pe.events);
        w.field("dominant",
                pe.stalls.total() ? stallClassName(pe.dominantClass)
                                  : "none");
        writeStalls(w, "stalls", pe.stalls);
        w.end();
    }
    w.end();

    w.beginObject("tasks");
    for (const auto &[name, tp] : profile.tasks) {
        w.beginObject(name);
        w.field("events", tp.events);
        w.field("invocations", tp.invocations);
        w.field("critical_execute", tp.criticalExecute);
        writeStalls(w, "critical_stalls", tp.critical);
        writeStalls(w, "raw_stalls", tp.raw);
        w.beginObject("tile_busy_cycles");
        for (const auto &[tile, busy] : tp.tileBusy)
            w.field(fmt("%u", tile), busy);
        w.end();
        w.beginObject("queue_depth_cycles");
        for (const auto &[depth, cyc] : tp.queueDepthCycles)
            w.field(fmt("%llu", (unsigned long long)depth), cyc);
        w.end();
        w.end();
    }
    w.end();

    w.beginObject("structures");
    for (const auto &[name, sp] : profile.structures) {
        w.beginObject(name);
        w.field("kind", uir::structureKindName(sp.structure->kind()));
        w.field("banks", sp.structure->banks());
        w.field("ports_per_bank", sp.structure->portsPerBank());
        w.field("accesses", sp.accesses);
        w.field("conflicts", sp.conflicts);
        w.field("busy_beats", sp.busyBeats);
        w.field("utilization", sp.utilization);
        w.end();
    }
    w.end();

    w.beginObject("edge_slack_histogram");
    for (const auto &[bucket, count] : profile.slackHistogram)
        w.field(fmt("%u", bucket), count);
    w.end();

    w.end();
    return os.str();
}

std::string
chromeTraceJson(const CompiledDdg &cd, const ScheduleLog &log,
                const Timeline *timeline)
{
    // Slices in processing order; completions have no node to show.
    const Record &rec = *cd.record;
    std::vector<uint32_t> firings = log.order();
    std::erase_if(firings,
                  [&](uint32_t id) { return cd.node(id) == nullptr; });

    std::ostringstream os;
    JsonWriter w(os, /*pretty=*/false);
    w.beginObject();
    w.field("displayTimeUnit", "ms");
    w.beginArray("traceEvents");

    // Process-name metadata track.
    w.beginObject();
    w.field("name", "process_name");
    w.field("ph", "M");
    w.field("pid", 1);
    w.beginObject("args");
    w.field("name", "muir-sim");
    w.end();
    w.end();

    // Assign track ids by (task name, tile) — never by pointer or by
    // first appearance — and emit every thread-name record before any
    // slice, so the byte stream is identical run to run.
    std::map<std::pair<std::string, uint32_t>, int> tids;
    for (uint32_t id : firings)
        tids.emplace(std::make_pair(cd.node(id)->parent()->name(),
                                    cd.invTile[rec.invocation[id]]),
                     0);
    int next_tid = 0;
    for (auto &[key, tid] : tids) {
        tid = ++next_tid;
        w.beginObject();
        w.field("name", "thread_name");
        w.field("ph", "M");
        w.field("pid", 1);
        w.field("tid", tid);
        w.beginObject("args");
        w.field("name",
                fmt("%s/tile%u", key.first.c_str(), key.second));
        w.end();
        w.end();
    }

    for (uint32_t id : firings) {
        const EventCost c = eventCost(cd, log, id);
        const uir::Node *node = cd.node(id);
        int tid = tids.at({node->parent()->name(), c.tile});
        w.beginObject();
        w.field("name", node->name());
        w.field("cat", uir::nodeKindName(node->kind()));
        w.field("ph", "X");
        w.field("pid", 1);
        w.field("tid", tid);
        w.field("ts", c.start);
        w.field("dur", c.finish - c.start);
        w.beginObject("args");
        w.field("event", static_cast<uint64_t>(id));
        w.field("invocation",
                static_cast<uint64_t>(rec.invocation[id]));
        w.field("ready", c.ready);
        const StallBreakdown sb = rawStalls(c);
        for (size_t i = 0; i < kNumStallClasses; ++i)
            if (sb.cycles[i])
                w.field(stallClassName(static_cast<StallClass>(i)),
                        sb.cycles[i]);
        w.end();
        w.end();
    }
    if (timeline)
        writeTimelineCounterTracks(w, *timeline);
    w.end();
    w.end();
    return os.str();
}

std::string
traceCsv(const CompiledDdg &cd, const ScheduleLog &log)
{
    std::ostringstream csv;
    const Record &rec = *cd.record;
    csv << "event,node,task,kind,invocation,ready,start,finish\n";
    for (uint32_t id : log.order()) {
        const uir::Node *node = cd.node(id);
        csv << id << "," << csvQuote(node ? node->name() : "<completion>")
            << "," << csvQuote(node ? node->parent()->name() : "") << ","
            << csvQuote(node ? uir::nodeKindName(node->kind()) : "done")
            << "," << rec.invocation[id] << "," << log.ready[id] << ","
            << log.start[id] << "," << log.finish[id] << "\n";
    }
    return csv.str();
}

} // namespace muir::sim
