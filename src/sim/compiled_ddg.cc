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

    cd.invTile.resize(cd.numInvocations);
    for (uint32_t i = 0; i < cd.numInvocations; ++i)
        cd.invTile[i] = cd.invSeq[i] % cd.tasks[cd.invTask[i]].tiles;

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
                   vecBytes(dependents) + vecBytes(nodeInfo) +
                   vecBytes(structs) + vecBytes(invTile);
    total += tasks.capacity() * sizeof(CompiledTask);
    for (const auto &t : tasks)
        total += t.statPrefix.capacity();
    return total;
}

} // namespace muir::sim
