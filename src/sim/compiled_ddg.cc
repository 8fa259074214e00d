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
compileImpl(const uir::Accelerator &accel, const Ddg &ddg)
{
    CompiledDdg cd;
    cd.design = &accel;
    const auto &events = ddg.events();
    const auto &invocations = ddg.invocations();
    muir_assert(events.size() < kNoId32,
                "compileDdg: %zu events exceed the 32-bit id space",
                events.size());
    const uint32_t n = static_cast<uint32_t>(events.size());
    cd.numEvents = n;
    cd.numInvocations = static_cast<uint32_t>(invocations.size());

    // ---- design tables: dense task / node / structure ids ----------
    std::unordered_map<const uir::Task *, uint16_t> taskIds;
    std::vector<uint32_t> taskJunctionBase;
    std::vector<uint16_t> taskReadPorts, taskWritePorts;
    uint32_t port_cursor = 0;
    for (const auto &task : accel.tasks()) {
        muir_assert(cd.tasks.size() < kNoId16,
                    "compileDdg: task id space exhausted");
        taskIds.emplace(task.get(),
                        static_cast<uint16_t>(cd.tasks.size()));
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

    std::unordered_map<const uir::Node *, uint32_t> nodeIds;
    std::vector<uint32_t> nodeSlotBase;
    std::vector<uint32_t> nodeLat, nodeIi;
    std::vector<uint16_t> nodeTask;
    uint32_t slot_cursor = 0;
    for (const auto &task : accel.tasks()) {
        uint16_t tid = taskIds.at(task.get());
        unsigned tiles = cd.tasks[tid].tiles;
        for (const auto &node : task->nodes()) {
            nodeIds.emplace(node.get(),
                            static_cast<uint32_t>(cd.nodes.size()));
            cd.nodes.push_back(node.get());
            nodeSlotBase.push_back(slot_cursor);
            nodeLat.push_back(uir::nodeLatency(*node));
            nodeIi.push_back(uir::nodeInitiationInterval(*node));
            nodeTask.push_back(tid);
            slot_cursor += tiles;
        }
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

    // Memory-space resolution memo (structureForSpace walks the
    // structure list; spaces repeat across thousands of events).
    std::unordered_map<unsigned, uint16_t> spaceIds;
    auto structForSpace = [&](unsigned space) -> uint16_t {
        auto it = spaceIds.find(space);
        if (it == spaceIds.end())
            it = spaceIds
                     .emplace(space, structIds.at(
                                         accel.structureForSpace(space)))
                     .first;
        return it->second;
    };

    // ---- per-event packed attributes + deps CSR --------------------
    cd.depStart.assign(n + 1, 0);
    uint64_t total_deps = 0;
    for (const auto &e : events)
        total_deps += e.deps.size();
    muir_assert(total_deps < kNoId32,
                "compileDdg: %llu deps exceed the 32-bit CSR space",
                static_cast<unsigned long long>(total_deps));
    cd.deps.resize(total_deps);
    cd.memDepBits.assign((total_deps + 63) / 64, 0);
    cd.addr.resize(n);
    cd.nodeOf.resize(n);
    cd.invocation.resize(n);
    cd.queueDep.resize(n);
    cd.initSlot.resize(n);
    cd.latency.resize(n);
    cd.initInterval.resize(n);
    cd.tile.resize(n);
    cd.junctionPortBase.resize(n);
    cd.junctionPorts.resize(n);
    cd.bankPortBase.resize(n);
    cd.beats.resize(n);
    cd.words.resize(n);
    cd.taskOf.resize(n);
    cd.structOf.resize(n);
    cd.flags.resize(n);

    uint32_t dep_cursor = 0;
    for (uint32_t id = 0; id < n; ++id) {
        const DynEvent &e = events[id];
        cd.depStart[id] = dep_cursor;
        for (uint64_t d : e.deps) {
            muir_assert(d < id, "DDG dep not earlier than event");
            if (std::find(e.memDeps.begin(), e.memDeps.end(), d) !=
                e.memDeps.end())
                cd.memDepBits[dep_cursor >> 6] |= uint64_t(1)
                                                  << (dep_cursor & 63);
            cd.deps[dep_cursor++] = static_cast<uint32_t>(d);
        }
        cd.addr[id] = e.addr;
        cd.words[id] = e.words;
        cd.invocation[id] = e.invocation;
        cd.queueDep[id] = e.queueDep == kNoEvent
                              ? kNoId32
                              : static_cast<uint32_t>(e.queueDep);
        uint8_t fl = 0;
        if (e.isLoad)
            fl |= kEvLoad;
        if (e.isStore)
            fl |= kEvStore;
        if (e.isEntry)
            fl |= kEvEntry;
        if (e.isCompletion)
            fl |= kEvCompletion;

        if (e.isCompletion) {
            cd.nodeOf[id] = kNoId32;
            cd.initSlot[id] = kNoId32;
            cd.taskOf[id] = kNoId16;
            cd.structOf[id] = kNoId16;
            cd.flags[id] = fl;
            continue;
        }

        uint32_t nid = nodeIds.at(e.node);
        uint16_t tid = nodeTask[nid];
        unsigned tiles = cd.tasks[tid].tiles;
        uint32_t tile = static_cast<uint32_t>(
            invocations[e.invocation].seqInTask % tiles);
        cd.nodeOf[id] = nid;
        cd.taskOf[id] = tid;
        cd.tile[id] = tile;
        cd.initSlot[id] = nodeSlotBase[nid] + tile;
        cd.latency[id] = nodeLat[nid];
        cd.initInterval[id] = nodeIi[nid];

        if (e.isLoad || e.isStore) {
            unsigned r = taskReadPorts[tid];
            unsigned w = taskWritePorts[tid];
            uint32_t jbase =
                taskJunctionBase[tid] + tile * (r + w);
            cd.junctionPortBase[id] = e.isLoad ? jbase : jbase + r;
            cd.junctionPorts[id] =
                e.isLoad ? taskReadPorts[tid] : taskWritePorts[tid];

            uint16_t sid = structForSpace(e.node->memSpace());
            const CompiledStruct &cs = cd.structs[sid];
            const uir::Structure *s = cs.s;
            unsigned wide = std::max(1u, s->wideWords());
            unsigned beats =
                (std::max<unsigned>(1, e.words) + wide - 1) / wide;
            unsigned bank_idx;
            if (cs.isCache)
                bank_idx = static_cast<unsigned>(
                    (e.addr / cs.lineBytes) % s->banks());
            else
                bank_idx = static_cast<unsigned>(
                    (e.addr / 4 / wide) % s->banks());
            cd.structOf[id] = sid;
            cd.beats[id] = beats;
            cd.bankPortBase[id] =
                cs.portBase + bank_idx * cs.portsPerBank;
            if (cs.isCache && e.words > 1 &&
                (e.addr / cs.lineBytes) !=
                    ((e.addr + e.words * 4 - 1) / cs.lineBytes))
                fl |= kEvStraddle;
        } else {
            cd.structOf[id] = kNoId16;
        }
        cd.flags[id] = fl;
    }
    cd.depStart[n] = dep_cursor;

    cd.invTask.resize(invocations.size());
    for (size_t i = 0; i < invocations.size(); ++i)
        cd.invTask[i] = taskIds.at(invocations[i].task);

    // ---- dependents CSR (consumer ids ascending per producer) ------
    cd.depdStart.assign(n + 1, 0);
    for (uint32_t k = 0; k < dep_cursor; ++k)
        ++cd.depdStart[cd.deps[k] + 1];
    for (uint32_t i = 1; i <= n; ++i)
        cd.depdStart[i] += cd.depdStart[i - 1];
    cd.dependents.resize(dep_cursor);
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
compileDdg(const uir::Accelerator &accel, const Ddg &ddg)
{
    // Self-metered like scheduleDdg: no sink installed means no clock
    // reads and zero registry traffic.
    metrics::Registry *meter = metrics::sink();
    if (!meter)
        return compileImpl(accel, ddg);
    auto t0 = std::chrono::steady_clock::now();
    CompiledDdg cd = compileImpl(accel, ddg);
    std::chrono::duration<double, std::milli> wall =
        std::chrono::steady_clock::now() - t0;
    meter->timerAdd("sim.compile_ddg", wall.count());
    return cd;
}

size_t
CompiledDdg::bytes() const
{
    size_t total = vecBytes(depStart) + vecBytes(deps) +
                   vecBytes(depdStart) + vecBytes(dependents) +
                   vecBytes(memDepBits) + vecBytes(invTask) +
                   vecBytes(addr) + vecBytes(nodeOf) +
                   vecBytes(invocation) + vecBytes(queueDep) +
                   vecBytes(initSlot) + vecBytes(latency) +
                   vecBytes(initInterval) + vecBytes(tile) +
                   vecBytes(junctionPortBase) +
                   vecBytes(junctionPorts) + vecBytes(bankPortBase) +
                   vecBytes(beats) + vecBytes(words) +
                   vecBytes(taskOf) + vecBytes(structOf) +
                   vecBytes(flags) + vecBytes(structs) +
                   vecBytes(nodes);
    total += tasks.capacity() * sizeof(CompiledTask);
    for (const auto &t : tasks)
        total += t.statPrefix.capacity();
    return total;
}

size_t
ddgBytes(const Ddg &ddg)
{
    size_t total = ddg.events().capacity() * sizeof(DynEvent) +
                   ddg.invocations().capacity() * sizeof(Invocation);
    for (const auto &e : ddg.events())
        total += e.deps.capacity() * sizeof(uint64_t) +
                 e.memDeps.capacity() * sizeof(uint64_t);
    return total;
}

} // namespace muir::sim
