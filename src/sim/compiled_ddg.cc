#include "sim/compiled_ddg.hh"

#include <algorithm>
#include <chrono>
#include <unordered_map>

#include "support/logging.hh"
#include "support/metrics.hh"
#include "uir/delay_model.hh"
#include "uir/serialize.hh"

namespace muir::sim
{

namespace
{

/**
 * Derives the window deps of a record's events, one call per event in
 * id order, from per-task lists of the completions and loop hand-offs
 * seen so far.
 */
class WindowDeps
{
  public:
    WindowDeps(const Record &rec, const CompiledDdg &cd)
        : rec_(rec), cd_(cd), tasks_(cd.tasks.size()),
          seq_(rec.numInvocations)
    {
        std::vector<uint32_t> begun(cd.tasks.size(), 0);
        for (uint32_t i = 0; i < rec.numInvocations; ++i)
            seq_[i] = begun[rec.invTask[i]]++;
    }

    /** Sequence number of invocation @p inv within its task. */
    uint32_t seq(uint32_t inv) const { return seq_[inv]; }

    /** The window dep of event @p id (kNoId32 if none). */
    uint32_t
    next(uint32_t id)
    {
        const uint8_t fl = rec_.flags[id];
        if (fl & kEvCompletion) {
            if (fl & kEvDone)
                complete(id, rec_.invocation[id]);
            return kNoId32;
        }
        const uir::Node &node = *cd_.nodes[rec_.nodeOf[id]];
        if (fl & kEvDispatch) {
            // At most queueWindow() invocations of the callee in
            // flight: the dispatch made after k completions waits for
            // completion k - window.
            const uir::Task &callee = *node.callee();
            const auto &done = tasks_[callee.id()].completions;
            const uint64_t window = callee.queueWindow();
            return done.size() >= window ? done[done.size() - window]
                                         : kNoId32;
        }
        if (node.kind() != uir::NodeKind::LoopControl)
            return kNoId32;
        // One loop instance per tile's loop control: the first firing
        // of invocation s waits for invocation s - tiles's hand-off.
        const uint32_t inv = rec_.invocation[id];
        TaskState &t = tasks_[rec_.invTask[inv]];
        const bool first = t.lcLast == kNoId32;
        t.lcPrev = t.lcLast;
        t.lcLast = id;
        const uint32_t s = seq_[inv];
        const uint32_t tiles = cd_.tasks[rec_.invTask[inv]].tiles;
        if (!first || s < tiles)
            return kNoId32;
        muir_assert(s - tiles < t.handoffs.size(),
                    "loop invocation order violated");
        return t.handoffs[s - tiles];
    }

  private:
    struct TaskState
    {
        /** Completion events, in completion order. */
        std::vector<uint32_t> completions;
        /** Hand-off event per exited loop invocation, by sequence. */
        std::vector<uint32_t> handoffs;
        /** The running loop invocation's last two control firings. */
        uint32_t lcLast = kNoId32;
        uint32_t lcPrev = kNoId32;
    };

    void
    complete(uint32_t id, uint32_t inv)
    {
        TaskState &t = tasks_[rec_.invTask[inv]];
        t.completions.push_back(id);
        if (t.lcLast == kNoId32)
            return; // Not a loop invocation.
        // The last iteration's control issue hands the tile over (the
        // failing exit check shares the drain with the successor).
        muir_assert(t.handoffs.size() == seq_[inv],
                    "loop invocation order violated");
        t.handoffs.push_back(t.lcPrev != kNoId32 ? t.lcPrev : t.lcLast);
        t.lcLast = t.lcPrev = kNoId32;
    }

    const Record &rec_;
    const CompiledDdg &cd_;
    std::vector<TaskState> tasks_;
    std::vector<uint32_t> seq_;
};

/** Freeze @p ddg into a Record: fit its columns and build the
 *  dependents CSR over its deps. */
std::shared_ptr<const Record>
freeze(Ddg &&ddg, std::string dataflow_key)
{
    auto rec = std::make_shared<Record>();
    static_cast<Ddg &>(*rec) = std::move(ddg);
    rec->dataflowKey = std::move(dataflow_key);
    // A moved-in record keeps its growth slack; a copy has none.
    auto fit = [](auto &...cols) { (cols.shrink_to_fit(), ...); };
    fit(rec->depStart, rec->deps, rec->memDepBits, rec->addr, rec->words,
        rec->flags, rec->invocation, rec->nodeOf, rec->invTask,
        rec->nodes);

    // Dependents CSR, consumers ascending: count, prefix, fill in id
    // order.
    const uint32_t n = rec->numEvents;
    rec->depdStart.assign(n + 1, 0);
    for (uint32_t p : rec->deps)
        ++rec->depdStart[p + 1];
    for (uint32_t i = 1; i <= n; ++i)
        rec->depdStart[i] += rec->depdStart[i - 1];
    rec->dependents.resize(rec->deps.size());
    std::vector<uint32_t> cursor(rec->depdStart.begin(),
                                 rec->depdStart.end() - 1);
    for (uint32_t id = 0; id < n; ++id)
        for (uint32_t k = rec->depStart[id]; k < rec->depStart[id + 1]; ++k)
            rec->dependents[cursor[rec->deps[k]]++] = id;
    return rec;
}

/** The timing half of @p rec against @p accel. */
CompiledDdg
compileHalf(const uir::Accelerator &accel,
            std::shared_ptr<const Record> record)
{
    CompiledDdg cd;
    const Record &rec = *record;
    cd.record = std::move(record);
    cd.numEvents = rec.numEvents;
    cd.design = &accel;
    const uint32_t n = rec.numEvents;

    // ---- design tables: task / structure / node / invocation -------
    uint32_t port_cursor = 0;
    for (const auto &task : accel.tasks()) {
        muir_assert(task->id() == cd.tasks.size(),
                    "compileDdg: task ids must index the task list");
        CompiledTask ct;
        ct.task = task.get();
        ct.statPrefix = "task." + task->name() + ".";
        ct.tiles = std::max(1u, task->numTiles());
        muir_assert(ct.tiles <= 0x10000u,
                    "compileDdg: task %s has more than 2^16 tiles",
                    task->name().c_str());
        ct.readPorts = std::max(1u, task->junctionReadPorts());
        ct.writePorts = std::max(1u, task->junctionWritePorts());
        ct.junctionBase = port_cursor;
        port_cursor += ct.tiles * (ct.readPorts + ct.writePorts);
        cd.tasks.push_back(std::move(ct));
    }

    const uir::Structure *dram = nullptr;
    for (const auto &s : accel.structures())
        if (s->kind() == uir::StructureKind::Dram)
            dram = s.get();
    std::unordered_map<const uir::Structure *, uint16_t> structIds;
    for (const auto &s : accel.structures()) {
        muir_assert(cd.structs.size() < kNoId16,
                    "compileDdg: structure id space exhausted");
        structIds.emplace(s.get(),
                          static_cast<uint16_t>(cd.structs.size()));
        CompiledStruct cs;
        cs.s = s.get();
        cs.isCache = s->kind() == uir::StructureKind::Cache;
        cs.lineBytes = s->lineBytes();
        cs.latency = s->latency();
        cs.missLatency = s->missLatency();
        cs.banks = s->banks();
        cs.portsPerBank = s->portsPerBank();
        cs.wideWords = std::max(1u, s->wideWords());
        double bpc = dram ? dram->bytesPerCycle() : s->bytesPerCycle();
        cs.missXfer = static_cast<uint64_t>(s->lineBytes() /
                                            std::max(1.0, bpc));
        cs.portBase = port_cursor;
        port_cursor += s->banks() * s->portsPerBank();
        cd.structs.push_back(cs);
    }
    cd.portSlots = port_cursor;

    uint32_t slot_cursor = 0;
    cd.nodes.reserve(rec.nodes.size());
    cd.nodeInfo.resize(rec.nodes.size());
    for (size_t nid = 0; nid < rec.nodes.size(); ++nid) {
        const uir::Node &node = resolveNode(accel, rec.nodes[nid]);
        cd.nodes.push_back(&node);
        CompiledNode &cn = cd.nodeInfo[nid];
        cn.task = static_cast<uint16_t>(node.parent()->id());
        cn.slotBase = slot_cursor;
        cn.latency = uir::nodeLatency(node);
        cn.initInterval = uir::nodeInitiationInterval(node);
        if (node.kind() == uir::NodeKind::Load ||
            node.kind() == uir::NodeKind::Store)
            cn.structure =
                structIds.at(accel.structureForSpace(node.memSpace()));
        slot_cursor += cd.tasks[cn.task].tiles;
    }
    cd.initSlots = slot_cursor;

    WindowDeps windows(rec, cd);
    cd.invTile.resize(rec.numInvocations);
    for (uint32_t i = 0; i < rec.numInvocations; ++i)
        cd.invTile[i] = static_cast<uint16_t>(
            windows.seq(i) % cd.tasks[rec.invTask[i]].tiles);

    // ---- window deps + their sparse reverse ------------------------
    // One pass in id order derives each window dep; one that is
    // already a record dep is dropped. The reverse is built from the
    // (producer, consumer) pairs sorted by producer.
    cd.windowDep.assign(n, kNoId32);
    std::vector<std::pair<uint32_t, uint32_t>> edges;
    for (uint32_t id = 0; id < n; ++id) {
        const uint32_t w = windows.next(id);
        if (w == kNoId32)
            continue;
        const auto first = rec.deps.begin() + rec.depStart[id];
        const auto last = rec.deps.begin() + rec.depStart[id + 1];
        if (std::find(first, last, w) == last) {
            cd.windowDep[id] = w;
            edges.emplace_back(w, id);
        }
    }
    muir_assert(rec.deps.size() + edges.size() < kNoId32,
                "compileDdg: inputs exceed the 32-bit CSR space");
    std::sort(edges.begin(), edges.end());
    const size_t words = (size_t(n) + 63) / 64;
    cd.windowSrc.assign(words, 0);
    cd.windowDepd.reserve(edges.size());
    size_t producers = 0;
    for (size_t i = 0; i < edges.size(); ++i)
        producers += i == 0 || edges[i - 1].first != edges[i].first;
    cd.windowDepdStart.reserve(producers + 1);
    for (size_t i = 0; i < edges.size(); ++i) {
        const uint32_t p = edges[i].first;
        if (i == 0 || edges[i - 1].first != p) {
            cd.windowSrc[p >> 6] |= uint64_t(1) << (p & 63);
            cd.windowDepdStart.push_back(
                static_cast<uint32_t>(cd.windowDepd.size()));
        }
        cd.windowDepd.push_back(edges[i].second);
    }
    cd.windowDepdStart.push_back(
        static_cast<uint32_t>(cd.windowDepd.size()));
    cd.windowSrcRank.resize(words);
    uint32_t rank = 0;
    for (size_t w = 0; w < words; ++w) {
        cd.windowSrcRank[w] = rank;
        rank += static_cast<uint32_t>(std::popcount(cd.windowSrc[w]));
    }
    return cd;
}

/** compileDdg's metered body: self-metered like scheduleDdg, so no
 *  sink installed means no clock reads and zero registry traffic. */
CompiledDdg
compileMetered(const uir::Accelerator &accel, Ddg &&ddg,
               std::string dataflow_key)
{
    metrics::Registry *meter = metrics::sink();
    if (!meter)
        return compileHalf(accel,
                           freeze(std::move(ddg), std::move(dataflow_key)));
    auto t0 = std::chrono::steady_clock::now();
    CompiledDdg cd = compileHalf(
        accel, freeze(std::move(ddg), std::move(dataflow_key)));
    std::chrono::duration<double, std::milli> wall =
        std::chrono::steady_clock::now() - t0;
    meter->timerAdd("sim.compile_ddg", wall.count());
    return cd;
}

template <typename T>
size_t
vecBytes(const std::vector<T> &v)
{
    return v.capacity() * sizeof(T);
}

} // namespace

const uir::Node &
resolveNode(const uir::Accelerator &accel, NodeRef ref)
{
    muir_assert(ref.task < accel.tasks().size() &&
                    ref.index < accel.tasks()[ref.task]->nodes().size(),
                "record node (%u, %u) is not in %s", ref.task, ref.index,
                accel.name().c_str());
    return *accel.tasks()[ref.task]->nodes()[ref.index];
}

CompiledDdg
compileDdg(const uir::Accelerator &accel, Ddg ddg)
{
    return compileMetered(accel, std::move(ddg), {});
}

CompiledDdg
compileDdg(const uir::Accelerator &accel, Ddg ddg,
           std::string dataflow_key)
{
    return compileMetered(accel, std::move(ddg), std::move(dataflow_key));
}

CompiledDdg
retarget(std::shared_ptr<const Record> record, const uir::Accelerator &to,
         const std::string &to_key)
{
    muir_assert(record && !record->dataflowKey.empty(),
                "retarget: the record has no dataflow key");
    muir_assert(record->dataflowKey == to_key,
                "retarget: the record and %s differ in dataflow",
                to.name().c_str());
    return compileHalf(to, std::move(record));
}

CompiledDdg
retarget(const CompiledDdg &from, const uir::Accelerator &to)
{
    muir_assert(from.design, "retarget: the index names no design");
    const std::string to_key = uir::dataflowKey(to);
    const std::string &key = from.record->dataflowKey;
    muir_assert(key.empty() ? uir::dataflowKey(*from.design) == to_key
                            : key == to_key,
                "retarget: %s and %s differ in dataflow",
                from.design->name().c_str(), to.name().c_str());
    return compileHalf(to, from.record);
}

size_t
ddgBytes(const Ddg &ddg)
{
    return vecBytes(ddg.depStart) + vecBytes(ddg.deps) +
           vecBytes(ddg.memDepBits) + vecBytes(ddg.addr) +
           vecBytes(ddg.words) + vecBytes(ddg.flags) +
           vecBytes(ddg.invocation) + vecBytes(ddg.nodeOf) +
           vecBytes(ddg.invTask) + vecBytes(ddg.nodes) +
           vecBytes(ddg.writes);
}

size_t
Record::bytes() const
{
    return ddgBytes(*this) + vecBytes(depdStart) + vecBytes(dependents) +
           dataflowKey.capacity();
}

size_t
CompiledDdg::halfBytes() const
{
    size_t total = vecBytes(nodes) + vecBytes(windowDep) +
                   vecBytes(windowSrc) + vecBytes(windowSrcRank) +
                   vecBytes(windowDepdStart) + vecBytes(windowDepd) +
                   vecBytes(nodeInfo) + vecBytes(structs) +
                   vecBytes(invTile);
    total += tasks.capacity() * sizeof(CompiledTask);
    for (const auto &t : tasks)
        total += t.statPrefix.capacity();
    return total;
}

size_t
CompiledDdg::bytes() const
{
    return (record ? record->bytes() : 0) + halfBytes();
}

} // namespace muir::sim
