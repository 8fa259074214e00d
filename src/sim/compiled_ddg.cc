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
    explicit WindowDeps(const CompiledDdg &cd)
        : cd_(cd), tasks_(cd.tasks.size()), seq_(cd.numInvocations)
    {
        std::vector<uint32_t> begun(cd.tasks.size(), 0);
        for (uint32_t i = 0; i < cd.numInvocations; ++i)
            seq_[i] = begun[cd.invTask[i]]++;
    }

    /** Sequence number of invocation @p inv within its task. */
    uint32_t seq(uint32_t inv) const { return seq_[inv]; }

    /** The window dep of event @p id (kNoId32 if none). */
    uint32_t
    next(uint32_t id)
    {
        const uint8_t fl = cd_.flags[id];
        if (fl & kEvCompletion) {
            if (fl & kEvDone)
                complete(id, cd_.invocation[id]);
            return kNoId32;
        }
        const uir::Node &node = *cd_.nodes[cd_.nodeOf[id]];
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
        const uint32_t inv = cd_.invocation[id];
        TaskState &t = tasks_[cd_.invTask[inv]];
        const bool first = t.lcLast == kNoId32;
        t.lcPrev = t.lcLast;
        t.lcLast = id;
        const uint32_t s = seq_[inv];
        const uint32_t tiles = cd_.tasks[cd_.invTask[inv]].tiles;
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
        TaskState &t = tasks_[cd_.invTask[inv]];
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

    const CompiledDdg &cd_;
    std::vector<TaskState> tasks_;
    std::vector<uint32_t> seq_;
};

CompiledDdg
compileImpl(const uir::Accelerator &accel, Ddg &&ddg)
{
    CompiledDdg cd;
    static_cast<Ddg &>(cd) = std::move(ddg);
    cd.design = &accel;
    const uint32_t n = cd.numEvents;
    // A moved-in record keeps its growth slack; a copy has none.
    auto fit = [](auto &...cols) { (cols.shrink_to_fit(), ...); };
    fit(cd.depStart, cd.deps, cd.memDepBits, cd.addr, cd.words, cd.flags,
        cd.invocation, cd.nodeOf, cd.invTask, cd.nodes);

    // ---- design tables: task / structure / node / invocation -------
    uint32_t port_cursor = 0;
    for (const auto &task : accel.tasks()) {
        muir_assert(task->id() == cd.tasks.size(),
                    "compileDdg: task ids must index the task list");
        CompiledTask ct;
        ct.task = task.get();
        ct.statPrefix = "task." + task->name() + ".";
        ct.tiles = std::max(1u, task->numTiles());
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
    cd.nodeInfo.resize(cd.nodes.size());
    for (size_t nid = 0; nid < cd.nodes.size(); ++nid) {
        const uir::Node &node = *cd.nodes[nid];
        CompiledNode &cn = cd.nodeInfo[nid];
        cn.task = static_cast<uint16_t>(node.parent()->id());
        muir_assert(cd.tasks.at(cn.task).task == node.parent(),
                    "compileDdg: record belongs to another design");
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

    WindowDeps windows(cd);
    cd.invTile.resize(cd.numInvocations);
    for (uint32_t i = 0; i < cd.numInvocations; ++i)
        cd.invTile[i] = windows.seq(i) % cd.tasks[cd.invTask[i]].tiles;

    // ---- window deps + dependents CSR (consumers ascending) --------
    // One pass in id order derives each window dep and counts the
    // dependents of every input; a window dep that is already a record
    // dep is dropped. A second pass fills the CSR.
    cd.windowDep.assign(n, kNoId32);
    cd.depdStart.assign(n + 1, 0);
    uint64_t num_edges = cd.deps.size();
    for (uint32_t id = 0; id < n; ++id) {
        const auto first = cd.deps.begin() + cd.depStart[id];
        const auto last = cd.deps.begin() + cd.depStart[id + 1];
        for (auto it = first; it != last; ++it)
            ++cd.depdStart[*it + 1];
        const uint32_t w = windows.next(id);
        if (w != kNoId32 && std::find(first, last, w) == last) {
            cd.windowDep[id] = w;
            ++cd.depdStart[w + 1];
            ++num_edges;
        }
    }
    muir_assert(num_edges < kNoId32,
                "compileDdg: inputs exceed the 32-bit CSR space");
    for (uint32_t i = 1; i <= n; ++i)
        cd.depdStart[i] += cd.depdStart[i - 1];
    cd.dependents.resize(num_edges);
    {
        std::vector<uint32_t> cursor(cd.depdStart.begin(),
                                     cd.depdStart.end() - 1);
        for (uint32_t id = 0; id < n; ++id) {
            for (uint32_t k = cd.depStart[id]; k < cd.depStart[id + 1];
                 ++k)
                cd.dependents[cursor[cd.deps[k]]++] = id;
            if (cd.windowDep[id] != kNoId32)
                cd.dependents[cursor[cd.windowDep[id]]++] = id;
        }
    }
    return cd;
}

template <typename T>
size_t
vecBytes(const std::vector<T> &v)
{
    return v.capacity() * sizeof(T);
}

} // namespace

CompiledDdg
compileDdg(const uir::Accelerator &accel, Ddg ddg)
{
    // Self-metered like scheduleDdg: no sink installed means no clock
    // reads and zero registry traffic.
    metrics::Registry *meter = metrics::sink();
    if (!meter)
        return compileImpl(accel, std::move(ddg));
    auto t0 = std::chrono::steady_clock::now();
    CompiledDdg cd = compileImpl(accel, std::move(ddg));
    std::chrono::duration<double, std::milli> wall =
        std::chrono::steady_clock::now() - t0;
    meter->timerAdd("sim.compile_ddg", wall.count());
    return cd;
}

CompiledDdg
retarget(const CompiledDdg &from, const uir::Accelerator &to)
{
    muir_assert(from.design, "retarget: the index names no design");
    muir_assert(uir::dataflowKey(*from.design) == uir::dataflowKey(to),
                "retarget: %s and %s differ in dataflow",
                from.design->name().c_str(), to.name().c_str());
    Ddg record = from;
    record.outputs = unsharedCopy(from.outputs);
    // Equal keys list the same tasks and, per task, the same nodes in
    // the same order.
    std::unordered_map<const uir::Node *, size_t> position;
    for (const auto &task : from.design->tasks())
        for (size_t i = 0; i < task->nodes().size(); ++i)
            position.emplace(task->nodes()[i].get(), i);
    for (const uir::Node *&node : record.nodes) {
        const uir::Node &mapped =
            *to.tasks()[node->parent()->id()]->nodes()[position.at(node)];
        muir_assert(mapped.name() == node->name(),
                    "retarget: node %s maps to %s", node->name().c_str(),
                    mapped.name().c_str());
        node = &mapped;
    }
    return compileDdg(to, std::move(record));
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
CompiledDdg::bytes() const
{
    size_t total = ddgBytes(*this) + vecBytes(windowDep) +
                   vecBytes(depdStart) + vecBytes(dependents) +
                   vecBytes(nodeInfo) + vecBytes(structs) +
                   vecBytes(invTile);
    total += tasks.capacity() * sizeof(CompiledTask);
    for (const auto &t : tasks)
        total += t.statPrefix.capacity();
    return total;
}

} // namespace muir::sim
