#include "sim/compiled_ddg.hh"

#include <algorithm>
#include <chrono>
#include <unordered_map>

#include "support/logging.hh"
#include "support/metrics.hh"
#include "uir/delay_model.hh"

namespace muir::sim
{

namespace
{

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
        cd.queueDep, cd.invocation, cd.nodeOf, cd.invTask, cd.invSeq,
        cd.nodes);

    // ---- design tables: task / node / structure geometry -----------
    std::vector<uint32_t> taskJunctionBase;
    std::vector<uint16_t> taskReadPorts, taskWritePorts;
    uint32_t port_cursor = 0;
    for (const auto &task : accel.tasks()) {
        muir_assert(task->id() == cd.tasks.size(),
                    "compileDdg: task ids must index the task list");
        CompiledTask ct;
        ct.task = task.get();
        ct.statPrefix = "task." + task->name() + ".";
        ct.tiles = std::max(1u, task->numTiles());
        unsigned r = std::max(1u, task->junctionReadPorts());
        unsigned w = std::max(1u, task->junctionWritePorts());
        taskJunctionBase.push_back(port_cursor);
        taskReadPorts.push_back(static_cast<uint16_t>(r));
        taskWritePorts.push_back(static_cast<uint16_t>(w));
        port_cursor += ct.tiles * (r + w);
        cd.tasks.push_back(std::move(ct));
    }

    // Per record node: its in-order-initiation slot base, static
    // timing, task, and (resolved on first access) structure.
    const size_t num_nodes = cd.nodes.size();
    std::vector<uint32_t> nodeSlotBase(num_nodes);
    std::vector<uint32_t> nodeLat(num_nodes), nodeIi(num_nodes);
    std::vector<uint16_t> nodeTask(num_nodes);
    std::vector<uint16_t> nodeStruct(num_nodes, kNoId16);
    uint32_t slot_cursor = 0;
    for (size_t nid = 0; nid < num_nodes; ++nid) {
        const uir::Node &node = *cd.nodes[nid];
        uint16_t tid = static_cast<uint16_t>(node.parent()->id());
        muir_assert(cd.tasks.at(tid).task == node.parent(),
                    "compileDdg: record belongs to another design");
        nodeSlotBase[nid] = slot_cursor;
        nodeLat[nid] = uir::nodeLatency(node);
        nodeIi[nid] = uir::nodeInitiationInterval(node);
        nodeTask[nid] = tid;
        slot_cursor += cd.tasks[tid].tiles;
    }
    cd.initSlots = slot_cursor;

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
        cs.portsPerBank = s->portsPerBank();
        cs.sizeKb = s->sizeKb();
        cs.ways = s->ways();
        double bpc = dram ? dram->bytesPerCycle() : s->bytesPerCycle();
        cs.missXfer = static_cast<uint64_t>(s->lineBytes() /
                                            std::max(1.0, bpc));
        cs.portBase = port_cursor;
        port_cursor += s->banks() * s->portsPerBank();
        cd.structs.push_back(cs);
    }
    cd.portSlots = port_cursor;

    // ---- design-resolved per-event columns -------------------------
    cd.initSlot.assign(n, kNoId32);
    cd.latency.resize(n);
    cd.initInterval.resize(n);
    cd.tile.resize(n);
    cd.junctionPortBase.resize(n);
    cd.junctionPorts.resize(n);
    cd.bankPortBase.resize(n);
    cd.beats.resize(n);
    cd.taskOf.assign(n, kNoId16);
    cd.structOf.assign(n, kNoId16);
    for (uint32_t id = 0; id < n; ++id) {
        uint8_t &fl = cd.flags[id];
        if (fl & kEvCompletion)
            continue;

        uint32_t nid = cd.nodeOf[id];
        uint16_t tid = nodeTask[nid];
        unsigned tiles = cd.tasks[tid].tiles;
        uint32_t tile = cd.invSeq[cd.invocation[id]] % tiles;
        cd.taskOf[id] = tid;
        cd.tile[id] = tile;
        cd.initSlot[id] = nodeSlotBase[nid] + tile;
        cd.latency[id] = nodeLat[nid];
        cd.initInterval[id] = nodeIi[nid];

        if (!(fl & (kEvLoad | kEvStore)))
            continue;
        bool load = fl & kEvLoad;
        unsigned r = taskReadPorts[tid];
        unsigned w = taskWritePorts[tid];
        uint32_t jbase = taskJunctionBase[tid] + tile * (r + w);
        cd.junctionPortBase[id] = load ? jbase : jbase + r;
        cd.junctionPorts[id] = static_cast<uint16_t>(load ? r : w);

        uint16_t &sid = nodeStruct[nid];
        if (sid == kNoId16)
            sid = structIds.at(
                accel.structureForSpace(cd.nodes[nid]->memSpace()));
        const CompiledStruct &cs = cd.structs[sid];
        const uir::Structure *s = cs.s;
        uint64_t addr = cd.addr[id];
        unsigned words = cd.words[id];
        unsigned wide = std::max(1u, s->wideWords());
        // Caches interleave banks by line, scratchpads by wide word.
        uint64_t unit = cs.isCache ? addr / cs.lineBytes : addr / 4 / wide;
        auto bank_idx = static_cast<uint32_t>(unit % s->banks());
        cd.structOf[id] = sid;
        cd.beats[id] =
            static_cast<uint16_t>((std::max(1u, words) + wide - 1) / wide);
        cd.bankPortBase[id] = cs.portBase + bank_idx * cs.portsPerBank;
        if (cs.isCache && words > 1 &&
            (addr / cs.lineBytes) !=
                ((addr + words * 4 - 1) / cs.lineBytes))
            fl |= kEvStraddle;
    }

    // ---- dependents CSR (consumer ids ascending per producer) ------
    const uint32_t num_deps = static_cast<uint32_t>(cd.deps.size());
    cd.depdStart.assign(n + 1, 0);
    for (uint32_t k = 0; k < num_deps; ++k)
        ++cd.depdStart[cd.deps[k] + 1];
    for (uint32_t i = 1; i <= n; ++i)
        cd.depdStart[i] += cd.depdStart[i - 1];
    cd.dependents.resize(num_deps);
    {
        std::vector<uint32_t> cursor(cd.depdStart.begin(),
                                     cd.depdStart.end() - 1);
        for (uint32_t id = 0; id < n; ++id)
            for (uint32_t k = cd.depStart[id]; k < cd.depStart[id + 1];
                 ++k)
                cd.dependents[cursor[cd.deps[k]]++] = id;
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

size_t
ddgBytes(const Ddg &ddg)
{
    return vecBytes(ddg.depStart) + vecBytes(ddg.deps) +
           vecBytes(ddg.memDepBits) + vecBytes(ddg.addr) +
           vecBytes(ddg.words) + vecBytes(ddg.flags) +
           vecBytes(ddg.queueDep) + vecBytes(ddg.invocation) +
           vecBytes(ddg.nodeOf) + vecBytes(ddg.invTask) +
           vecBytes(ddg.invSeq) + vecBytes(ddg.nodes);
}

size_t
CompiledDdg::bytes() const
{
    size_t total = ddgBytes(*this) + vecBytes(depdStart) +
                   vecBytes(dependents) + vecBytes(initSlot) +
                   vecBytes(latency) + vecBytes(initInterval) +
                   vecBytes(tile) + vecBytes(junctionPortBase) +
                   vecBytes(junctionPorts) + vecBytes(bankPortBase) +
                   vecBytes(beats) + vecBytes(taskOf) +
                   vecBytes(structOf) + vecBytes(structs);
    total += tasks.capacity() * sizeof(CompiledTask);
    for (const auto &t : tasks)
        total += t.statPrefix.capacity();
    return total;
}

} // namespace muir::sim
