/**
 * @file
 * CompiledDdg equivalence suite: on every baseline design the replay
 * index (sim/compiled_ddg.hh) must take the recorded Ddg over
 * unchanged, add the window deps and the reverse CSR of all inputs,
 * and resolve its node, task, structure and invocation tables to the
 * values the record and the design imply. The record itself must not
 * depend on queue depths or tile counts. The index must also stand
 * alone: an index whose executor and record are gone replays,
 * profiles and diagnoses hangs exactly like a direct run, and it
 * carries that run's functional result, so a replay leaves the memory,
 * outputs and firings a direct run does without executing. The
 * Parallel suite exercises the shared-replay contract (one immutable
 * index, many concurrent RunContexts) under TSan in CI.
 */
#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <map>
#include <set>
#include <thread>
#include <vector>

#include "gate/bench_gate.hh"
#include "sim/compiled_ddg.hh"
#include "support/logging.hh"
#include "sim/exec.hh"
#include "sim/profile.hh"
#include "sim/simulator.hh"
#include "sim/timeline.hh"
#include "sim/timing.hh"
#include "support/strings.hh"
#include "uir/delay_model.hh"
#include "uir/serialize.hh"
#include "uopt/pipeline.hh"
#include "workloads/driver.hh"
#include "workloads/workload.hh"

#include "schedule_log_checks.hh"

namespace muir
{

namespace
{

/** One recorded baseline execution, kept alive for the checks. */
struct Recorded
{
    workloads::Workload workload;
    std::unique_ptr<uir::Accelerator> accel;
    std::unique_ptr<sim::UirExecutor> exec;
    std::unique_ptr<ir::MemoryImage> mem;

    const sim::Ddg &ddg() const { return exec->ddg(); }
};

/** @p w's baseline after the μopt pipeline @p passes. */
std::unique_ptr<uir::Accelerator>
lowered(const workloads::Workload &w, const std::string &passes)
{
    auto accel = workloads::lowerBaseline(w);
    if (!passes.empty()) {
        uopt::PassManager pm;
        std::string error;
        EXPECT_TRUE(uopt::buildPipeline(pm, passes, &error)) << error;
        pm.run(*accel);
    }
    return accel;
}

/** Record @p name's baseline, after the μopt pipeline @p passes. */
Recorded
record(const std::string &name, const std::string &passes = "")
{
    setVerbose(false);
    Recorded r;
    r.workload = workloads::buildWorkload(name);
    r.accel = lowered(r.workload, passes);
    r.mem = std::make_unique<ir::MemoryImage>(*r.workload.module);
    r.workload.bind(*r.mem);
    r.exec = std::make_unique<sim::UirExecutor>(*r.accel, *r.mem);
    r.exec->run({});
    return r;
}

/**
 * The standard-pipeline timing grid of @p w: queue depths, tiles and
 * banks over its suite's pipeline, as the serve and DSE benchmarks
 * draw them. Every cell shares the first cell's dataflow.
 */
std::vector<std::string>
timingGrid(const workloads::Workload &w)
{
    std::vector<std::string> out;
    if (w.suite == workloads::Suite::Cilk) {
        for (unsigned q : {2u, 8u})
            for (unsigned t : {2u, 4u})
                for (unsigned b : {2u, 4u})
                    out.push_back(fmt("queue:%u,tile:%u,bank:%u,fusion", q,
                                      t, b));
    } else if (w.usesTensor) {
        for (unsigned q : {2u, 16u})
            out.push_back(fmt("queue:%u,localize,fusion,tensor", q));
    } else {
        for (unsigned q : {2u, 8u})
            for (unsigned b : {1u, 8u})
                out.push_back(
                    fmt("queue:%u,localize,bank:%u,fusion", q, b));
    }
    return out;
}

/** Queue and tile variants of the baseline, the baseline first. */
const std::vector<std::string> kBaselineTimings = {
    "", "queue:1", "queue:8,tile:4", "tile:2", "queue:3,tile:8"};

/** Bit-exact equality of two run values, tensors by content. */
bool
sameBits(const ir::RuntimeValue &a, const ir::RuntimeValue &b)
{
    if (a.kind != b.kind || a.i != b.i || a.ptr != b.ptr ||
        a.rows != b.rows || a.cols != b.cols ||
        std::memcmp(&a.f, &b.f, sizeof a.f) != 0 ||
        bool(a.tensor) != bool(b.tensor))
        return false;
    return !a.tensor ||
           (a.tensor->size() == b.tensor->size() &&
            std::memcmp(a.tensor->data(), b.tensor->data(),
                        a.tensor->size() * sizeof(float)) == 0);
}

bool
sameBits(const std::vector<ir::RuntimeValue> &a,
         const std::vector<ir::RuntimeValue> &b)
{
    return std::equal(a.begin(), a.end(), b.begin(), b.end(),
                      [](const auto &x, const auto &y) {
                          return sameBits(x, y);
                      });
}

} // namespace

// ------------------------------------------------- structural fidelity

TEST(CompiledDdg, CsrRoundTripOnEveryBaseline)
{
    for (const std::string &name : workloads::workloadNames()) {
        Recorded r = record(name);
        const sim::Ddg &ddg = r.ddg();
        sim::CompiledDdg cd = sim::compileDdg(*r.accel, ddg);

        ASSERT_EQ(cd.numEvents, ddg.numEvents) << name;
        ASSERT_EQ(cd.numInvocations, ddg.numInvocations) << name;
        ASSERT_EQ(ddg.depStart.size(), ddg.numEvents + 1) << name;
        ASSERT_EQ(cd.depdStart.size(), cd.numEvents + 1) << name;
        EXPECT_EQ(cd.design, r.accel.get()) << name;
        EXPECT_GT(cd.bytes(), sim::ddgBytes(cd)) << name;
        EXPECT_GT(sim::ddgBytes(ddg), 0u) << name;

        // The record's columns are taken over unchanged.
        EXPECT_EQ(cd.depStart, ddg.depStart) << name;
        EXPECT_EQ(cd.deps, ddg.deps) << name;
        EXPECT_EQ(cd.memDepBits, ddg.memDepBits) << name;
        EXPECT_EQ(cd.addr, ddg.addr) << name;
        EXPECT_EQ(cd.words, ddg.words) << name;
        EXPECT_EQ(cd.flags, ddg.flags) << name;
        EXPECT_EQ(cd.invocation, ddg.invocation) << name;
        EXPECT_EQ(cd.nodeOf, ddg.nodeOf) << name;
        EXPECT_EQ(cd.invTask, ddg.invTask) << name;
        EXPECT_EQ(cd.nodes, ddg.nodes) << name;

        // Every dep points backwards; memory-only bits sit on deps
        // into loads or stores only. A window dep points backwards
        // too, sits on a dispatch or a loop-control firing, and is
        // never also a record dep.
        ASSERT_EQ(cd.windowDep.size(), cd.numEvents) << name;
        uint32_t window_deps = 0;
        for (uint32_t e = 0; e < ddg.numEvents; ++e) {
            const uint32_t w = cd.windowDep[e];
            for (uint32_t k = ddg.depStart[e]; k < ddg.depStart[e + 1];
                 ++k) {
                ASSERT_LT(ddg.deps[k], e) << name << " event " << e;
                if (ddg.isMemDep(k)) {
                    ASSERT_TRUE(ddg.flags[ddg.deps[k]] &
                                (sim::kEvLoad | sim::kEvStore))
                        << name << " event " << e;
                }
                ASSERT_NE(ddg.deps[k], w) << name << " event " << e;
            }
            if (w == sim::kNoId32)
                continue;
            ++window_deps;
            ASSERT_LT(w, e) << name << " event " << e;
            ASSERT_TRUE((ddg.flags[e] & sim::kEvDispatch) ||
                        ddg.nodes[ddg.nodeOf[e]]->kind() ==
                            uir::NodeKind::LoopControl)
                << name << " event " << e;
        }

        // Per invocation: a task of this design, and kEvEntry on
        // exactly its first non-completion event.
        ASSERT_EQ(cd.invTask.size(), cd.numInvocations) << name;
        std::vector<bool> entered(cd.numInvocations, false);
        for (uint32_t e = 0; e < cd.numEvents; ++e) {
            uint32_t inv = cd.invocation[e];
            bool first = !(cd.flags[e] & sim::kEvCompletion) &&
                         !entered[inv];
            ASSERT_EQ(bool(cd.flags[e] & sim::kEvEntry), first)
                << name << " event " << e;
            entered[inv] = entered[inv] || first;
        }
        for (uint32_t i = 0; i < cd.numInvocations; ++i)
            ASSERT_EQ(cd.tasks.at(cd.invTask[i]).task->id(),
                      cd.invTask[i])
                << name << " invocation " << i;

        // Reverse CSR: one entry per input (record and window deps),
        // each producer's consumer list sorted ascending (the replay's
        // wake order).
        ASSERT_EQ(cd.dependents.size(), ddg.deps.size() + window_deps)
            << name;
        std::vector<std::vector<uint32_t>> expected(ddg.numEvents);
        for (uint32_t e = 0; e < ddg.numEvents; ++e)
            for (uint32_t k = 0; k < cd.numInputs(e); ++k)
                expected[cd.input(e, k)].push_back(e);
        for (uint32_t p = 0; p < cd.numEvents; ++p) {
            // Recording appends consumers in id order already, but the
            // CSR contract is "ascending" regardless of source order.
            std::sort(expected[p].begin(), expected[p].end());
            ASSERT_EQ(cd.depdStart[p + 1] - cd.depdStart[p],
                      expected[p].size())
                << name << " producer " << p;
            for (size_t i = 0; i < expected[p].size(); ++i)
                ASSERT_EQ(cd.dependents[cd.depdStart[p] + i],
                          expected[p][i])
                    << name << " producer " << p;
        }
    }
}

TEST(CompiledDdg, PackedAttributesMatchBuilderEvents)
{
    // Each design table against the values recomputed from the design,
    // and every event's node against its invocation's task.
    for (const std::string name :
         {"gemm", "saxpy", "fib", "msort", "spmv"}) {
        Recorded r = record(name);
        const sim::Ddg &ddg = r.ddg();
        sim::CompiledDdg cd = sim::compileDdg(*r.accel, ddg);

        // Tasks: one per design task, each tile with its own read
        // then write junction ports, packed from slot 0.
        ASSERT_EQ(cd.tasks.size(), r.accel->tasks().size()) << name;
        uint32_t port = 0;
        for (size_t t = 0; t < cd.tasks.size(); ++t) {
            const uir::Task &task = *r.accel->tasks()[t];
            const sim::CompiledTask &ct = cd.tasks[t];
            ASSERT_EQ(ct.task, &task) << name;
            EXPECT_EQ(ct.tiles, std::max(1u, task.numTiles())) << name;
            EXPECT_EQ(ct.readPorts,
                      std::max(1u, task.junctionReadPorts()))
                << name;
            EXPECT_EQ(ct.writePorts,
                      std::max(1u, task.junctionWritePorts()))
                << name;
            EXPECT_EQ(ct.junctionBase, port) << name;
            port += ct.tiles * (ct.readPorts + ct.writePorts);
        }

        // Structures: the design's bank geometry, bank ports packed
        // after the junctions.
        ASSERT_EQ(cd.structs.size(), r.accel->structures().size())
            << name;
        for (size_t i = 0; i < cd.structs.size(); ++i) {
            const uir::Structure &s = *r.accel->structures()[i];
            const sim::CompiledStruct &cs = cd.structs[i];
            ASSERT_EQ(cs.s, &s) << name;
            EXPECT_EQ(cs.banks, s.banks()) << name;
            EXPECT_EQ(cs.wideWords, std::max(1u, s.wideWords())) << name;
            EXPECT_EQ(cs.portBase, port) << name;
            port += s.banks() * s.portsPerBank();
        }
        EXPECT_EQ(cd.portSlots, port) << name;

        // Nodes: static timing, task, the structure of a memory node,
        // and one in-order-initiation slot per (node, tile).
        ASSERT_EQ(cd.nodeInfo.size(), ddg.nodes.size()) << name;
        uint32_t slot = 0;
        for (size_t nid = 0; nid < cd.nodeInfo.size(); ++nid) {
            const uir::Node &node = *ddg.nodes[nid];
            const sim::CompiledNode &cn = cd.nodeInfo[nid];
            ASSERT_EQ(cn.task, node.parent()->id()) << name;
            EXPECT_EQ(cn.latency, uir::nodeLatency(node)) << name;
            EXPECT_EQ(cn.initInterval, uir::nodeInitiationInterval(node))
                << name;
            EXPECT_EQ(cn.slotBase, slot) << name;
            slot += cd.tasks[cn.task].tiles;
            bool mem = node.kind() == uir::NodeKind::Load ||
                       node.kind() == uir::NodeKind::Store;
            if (!mem) {
                EXPECT_EQ(cn.structure, sim::kNoId16) << name;
                continue;
            }
            ASSERT_LT(cn.structure, cd.structs.size()) << name;
            EXPECT_EQ(cd.structs[cn.structure].s,
                      r.accel->structureForSpace(node.memSpace()))
                << name;
        }
        EXPECT_EQ(cd.initSlots, slot) << name;

        // Invocations: the round-robin tile of each task's invocations,
        // numbered in the order they begin.
        ASSERT_EQ(cd.invTile.size(), cd.numInvocations) << name;
        std::vector<uint32_t> begun(cd.tasks.size(), 0);
        for (uint32_t i = 0; i < cd.numInvocations; ++i)
            ASSERT_EQ(cd.invTile[i], begun[ddg.invTask[i]]++ %
                                         cd.tasks[ddg.invTask[i]].tiles)
                << name << " invocation " << i;

        // Events: a fired node belongs to its invocation's task, and
        // only load and store nodes make memory accesses.
        for (uint32_t e = 0; e < cd.numEvents; ++e) {
            if (ddg.flags[e] & sim::kEvCompletion) {
                ASSERT_EQ(ddg.nodeOf[e], sim::kNoId32) << name;
                continue;
            }
            ASSERT_LT(ddg.nodeOf[e], ddg.nodes.size()) << name;
            const sim::CompiledNode &cn = cd.nodeInfo[ddg.nodeOf[e]];
            ASSERT_EQ(cn.task, ddg.invTask[ddg.invocation[e]])
                << name << " event " << e;
            if (ddg.flags[e] & (sim::kEvLoad | sim::kEvStore)) {
                ASSERT_NE(cn.structure, sim::kNoId16)
                    << name << " event " << e;
            }
        }
    }
}

TEST(CompiledDdg, RecordIsIndependentOfTiming)
{
    // Queue depths, tile counts and bank counts shape only the replay:
    // every variant records its family's first variant's columns
    // (nodes compared by task and node name, as each variant is a
    // separate lowering), and its index, compiled against the
    // variant, replays to runOn's cycles.
    auto names = [](const sim::Ddg &ddg) {
        std::vector<std::string> out;
        for (const uir::Node *node : ddg.nodes)
            out.push_back(node->parent()->name() + "." + node->name());
        return out;
    };
    for (const std::string &name : workloads::workloadNames()) {
        for (const std::vector<std::string> &family :
             {kBaselineTimings,
              timingGrid(workloads::buildWorkload(name))}) {
            Recorded base = record(name, family.front());
            const sim::Ddg &b = base.ddg();
            for (size_t i = 1; i < family.size(); ++i) {
                const std::string cell = name + " " + family[i];
                Recorded r = record(name, family[i]);
                const sim::Ddg &v = r.ddg();
                ASSERT_EQ(v.numEvents, b.numEvents) << cell;
                ASSERT_EQ(v.numInvocations, b.numInvocations) << cell;
                EXPECT_EQ(v.depStart, b.depStart) << cell;
                EXPECT_EQ(v.deps, b.deps) << cell;
                EXPECT_EQ(v.memDepBits, b.memDepBits) << cell;
                EXPECT_EQ(v.addr, b.addr) << cell;
                EXPECT_EQ(v.words, b.words) << cell;
                EXPECT_EQ(v.flags, b.flags) << cell;
                EXPECT_EQ(v.invocation, b.invocation) << cell;
                EXPECT_EQ(v.nodeOf, b.nodeOf) << cell;
                EXPECT_EQ(v.invTask, b.invTask) << cell;
                EXPECT_EQ(names(v), names(b)) << cell;

                const uint64_t cycles =
                    sim::scheduleDdg(sim::compileDdg(*r.accel, v)).cycles;
                workloads::RunResult run =
                    workloads::runOn(r.workload, *r.accel);
                ASSERT_TRUE(run.check.empty()) << cell << ": " << run.check;
                EXPECT_EQ(cycles, run.cycles) << cell;
            }
        }
    }
}

TEST(CompiledDdg, RetargetEqualsRerecord)
{
    // Every cell of the timing grid: the first cell's index, retargeted
    // to the cell's design, is the index a direct run of the cell
    // compiles, and replays to the same cycles, stats, log, memory,
    // outputs and firings.
    setVerbose(false);
    size_t cells = 0;
    for (const std::string &name : workloads::workloadNames()) {
        workloads::Workload w = workloads::buildWorkload(name);
        const std::vector<std::string> grid = timingGrid(w);
        auto first = lowered(w, grid.front());
        std::shared_ptr<const sim::CompiledDdg> from;
        {
            ir::MemoryImage mem(*w.module);
            w.bind(mem);
            from = sim::simulate(*first, mem, {}, {.keepCompiled = true})
                       .compiled;
        }
        for (const std::string &passes : grid) {
            const std::string cell = name + " " + passes;
            ++cells;
            auto accel = lowered(w, passes);
            const sim::CompiledDdg cd = sim::retarget(*from, *accel);
            EXPECT_EQ(cd.design, accel.get()) << cell;

            ir::MemoryImage direct_mem(*w.module);
            w.bind(direct_mem);
            sim::SimResult direct =
                sim::simulate(*accel, direct_mem, {}, {.log = true});
            ir::MemoryImage mem(*w.module);
            w.bind(mem);
            sim::SimResult replay = sim::simulate(
                *accel, mem, {}, {.log = true, .compiled = &cd});

            ASSERT_TRUE(direct.compiled && direct.log && replay.log)
                << cell;
            EXPECT_EQ(cd.windowDep, direct.compiled->windowDep) << cell;
            EXPECT_EQ(cd.dependents, direct.compiled->dependents) << cell;
            EXPECT_EQ(cd.nodes, direct.compiled->nodes) << cell;
            EXPECT_EQ(replay.cycles, direct.cycles) << cell;
            EXPECT_EQ(replay.stats.dump(), direct.stats.dump()) << cell;
            expectSameLog(*direct.log, *replay.log, cell);
            EXPECT_TRUE(mem.bytes() == direct_mem.bytes()) << cell;
            EXPECT_TRUE(sameBits(replay.outputs, direct.outputs)) << cell;
            EXPECT_EQ(replay.firings, direct.firings) << cell;
            EXPECT_TRUE(w.check(mem).empty()) << cell;
        }
    }
    EXPECT_EQ(cells, 98u);
}

TEST(DataflowKey, TimingVariantsShareAKey)
{
    // Queue depths, tiles and banks leave the key alone, though they
    // change the serialized graph.
    setVerbose(false);
    for (const std::string &name : workloads::workloadNames()) {
        workloads::Workload w = workloads::buildWorkload(name);
        for (const std::vector<std::string> &family :
             {kBaselineTimings, timingGrid(w)}) {
            auto base = lowered(w, family.front());
            const std::string key = uir::dataflowKey(*base);
            bool differs = false;
            for (size_t i = 1; i < family.size(); ++i) {
                auto accel = lowered(w, family[i]);
                EXPECT_TRUE(uir::dataflowKey(*accel) == key)
                    << name << " " << family[i];
                differs |= uir::serialize(*accel) != uir::serialize(*base);
            }
            EXPECT_TRUE(differs) << name << " " << family.back();
        }
    }
}

TEST(DataflowKey, FusionChangesTheKey)
{
    setVerbose(false);
    for (const std::string name : {"gemm", "2mm", "saxpy", "msort"}) {
        workloads::Workload w = workloads::buildWorkload(name);
        EXPECT_NE(uir::dataflowKey(*lowered(w, "queue:2")),
                  uir::dataflowKey(*lowered(w, "queue:2,fusion")))
            << name;
    }
}

TEST(CompiledDdgDeath, RetargetRefusesAnotherDataflow)
{
    // A fused design fires other nodes: its record is not this one.
    Recorded r = record("gemm", "queue:2");
    const sim::CompiledDdg cd = sim::compileDdg(*r.accel, r.ddg());
    auto fused = lowered(r.workload, "queue:2,fusion");
    EXPECT_DEATH(sim::retarget(cd, *fused), "differ in dataflow");
}

TEST(CompiledDdgDeath, ForwardDependencyTripsTheFreezeAssert)
{
    // The whole replay design rests on "every dep references an
    // earlier event" (a linear id-order pass is a topological
    // schedule); a record violating it must die as the event is
    // appended, not deadlock the scheduler.
    Recorded r = record("fib");
    sim::Ddg bad = r.ddg();
    uint64_t forward = bad.numEvents + 100;
    EXPECT_DEATH(bad.append(0, sim::kNoId32, sim::kEvCompletion,
                            {&forward, 1}, /*dedupe=*/true),
                 "not earlier");
}

// ------------------------------------------------- replay equivalence

TEST(CompiledDdg, StandsAloneAfterItsRecordIsDestroyed)
{
    // The index is built from an executor that is then destroyed with
    // its Ddg. Replaying the orphaned index — with the log on, and
    // under every schedule-level fault — must reproduce a direct run.
    const char *const kScheduleFaults[] = {
        "tokendrop", "tokendup", "stuckvalid",
        "lostspawn", "lostsync", "dramtimeout:attempts=6"};
    std::map<std::string, unsigned> covered;
    for (const std::string name :
         {"gemm", "saxpy", "fib", "spmv", "stencil"}) {
        setVerbose(false);
        workloads::Workload w = workloads::buildWorkload(name);
        auto accel = workloads::lowerBaseline(w);

        std::unique_ptr<const sim::CompiledDdg> cd;
        {
            ir::MemoryImage mem(*w.module);
            w.bind(mem);
            sim::UirExecutor exec(*accel, mem);
            exec.run({});
            cd = std::make_unique<const sim::CompiledDdg>(
                sim::compileDdg(*accel, exec.ddg()));
        }

        sim::SimOptions observe;
        observe.log = true;
        ir::MemoryImage direct_mem(*w.module);
        w.bind(direct_mem);
        sim::SimResult direct =
            sim::simulate(*accel, direct_mem, {}, observe);
        observe.compiled = cd.get();
        ir::MemoryImage replay_mem(*w.module);
        w.bind(replay_mem);
        sim::SimResult replay =
            sim::simulate(*accel, replay_mem, {}, observe);

        EXPECT_EQ(direct.cycles, replay.cycles) << name;
        EXPECT_EQ(direct.stats.toJson(), replay.stats.toJson()) << name;
        ASSERT_TRUE(direct.log && direct.compiled && replay.log) << name;
        const sim::ScheduleLog &a = *direct.log;
        const sim::ScheduleLog &b = *replay.log;
        expectSameLog(a, b, name);
        EXPECT_EQ(sim::profileJson(sim::buildProfile(*direct.compiled, a,
                                                     direct.cycles)),
                  sim::profileJson(sim::buildProfile(*cd, b, replay.cycles)))
            << name;
        sim::Timeline ta =
            sim::buildTimeline(*direct.compiled, a, direct.cycles);
        sim::Timeline tb = sim::buildTimeline(*cd, b, replay.cycles);
        EXPECT_EQ(sim::timelineJson(ta), sim::timelineJson(tb)) << name;
        EXPECT_EQ(sim::chromeTraceJson(*direct.compiled, a, &ta),
                  sim::chromeTraceJson(*cd, b, &tb))
            << name;

        // Every schedule-level fault replays an edited copy of the
        // orphaned index, with the plan a campaign resolves for it:
        // cycles, stats, detector and hang diagnosis must match the
        // same edit of the index the direct run compiled.
        for (const std::string kind : kScheduleFaults) {
            sim::CampaignSpec spec;
            ASSERT_TRUE(sim::parseFaultSpec(kind, spec.fault, nullptr));
            spec.runs = 1;
            spec.seed = 5;
            sim::CampaignResult probe = sim::runCampaign(
                *accel, *w.module, [&](ir::MemoryImage &m) { w.bind(m); },
                spec);
            if (!probe.ok)
                continue; // The design has no site of this kind.
            ++covered[kind];
            const sim::FaultPlan &plan = probe.records[0].plan;
            sim::Watchdog fresh_wd{probe.maxCycles, {}};
            sim::RunContext fresh_ctx;
            fresh_ctx.watchdog = &fresh_wd;
            sim::FaultRun fresh =
                sim::scheduleFault(*direct.compiled, plan, fresh_ctx);
            sim::Watchdog reuse_wd{probe.maxCycles, {}};
            sim::RunContext reuse_ctx;
            reuse_ctx.watchdog = &reuse_wd;
            sim::FaultRun reuse = sim::scheduleFault(*cd, plan, reuse_ctx);
            if (kind == "tokendrop") {
                EXPECT_TRUE(reuse_wd.hang.tripped()) << name;
            }
            EXPECT_EQ(fresh.timing.cycles, reuse.timing.cycles)
                << name << " " << kind;
            EXPECT_EQ(fresh.timing.stats.toJson(),
                      reuse.timing.stats.toJson())
                << name << " " << kind;
            EXPECT_EQ(fresh.detector, reuse.detector)
                << name << " " << kind;
            EXPECT_EQ(fresh_wd.hang.render(), reuse_wd.hang.render())
                << name << " " << kind;
        }
        // The edits went to copies: the index still replays cleanly.
        EXPECT_EQ(sim::scheduleDdg(*cd).cycles, direct.cycles) << name;
    }
    for (const std::string kind : kScheduleFaults)
        EXPECT_GT(covered[kind], 0u) << kind << " never resolved";
}

TEST(CompiledDdg, SimulateReuseMatchesFreshRun)
{
    // The µserve reuse shape end to end: one run keeps its compiled
    // index, later runs replay it without recording a new DDG.
    workloads::Workload w = workloads::buildWorkload("gemm");
    auto accel = workloads::lowerBaseline(w);

    workloads::RunOptions keep;
    keep.keepCompiled = true;
    workloads::RunResult first = workloads::runOn(w, *accel, keep);
    ASSERT_TRUE(first.compiled != nullptr);
    ASSERT_TRUE(first.check.empty()) << first.check;

    workloads::RunOptions reuse;
    reuse.compiled = first.compiled.get();
    workloads::RunResult replay = workloads::runOn(w, *accel, reuse);
    EXPECT_TRUE(replay.check.empty()) << replay.check;
    EXPECT_EQ(first.cycles, replay.cycles);
    EXPECT_EQ(first.firings, replay.firings);
    EXPECT_EQ(first.stats.toJson(), replay.stats.toJson());
}

TEST(CompiledDdg, ReplayCarriesFunctionalResult)
{
    // Every gate cell: a replay of the compiled index executes nothing
    // yet leaves the memory, outputs and firings of the run that made
    // it. The tensor baselines store more bytes than their record
    // entries' accessWords(), so the written words must come from the
    // bytes stored.
    setVerbose(false);
    std::set<std::string> cells;
    for (const gate::GateConfig &config : gate::standardConfigs()) {
        const std::string cell = config.workload + "/" + config.config;
        cells.insert(cell);
        workloads::Workload w = workloads::buildWorkload(config.workload);
        auto accel = workloads::lowerBaseline(w);
        if (!config.passes.empty()) {
            uopt::PassManager pm;
            std::string error;
            ASSERT_TRUE(uopt::buildPipeline(pm, config.passes, &error))
                << error;
            pm.run(*accel);
        }
        ir::MemoryImage direct_mem(*w.module);
        w.bind(direct_mem);
        sim::SimResult direct = sim::simulate(*accel, direct_mem, {},
                                              {.keepCompiled = true});
        ASSERT_TRUE(direct.compiled) << cell;
        EXPECT_EQ(direct.compiled->firings, direct.firings) << cell;
        EXPECT_TRUE(w.check(direct_mem).empty()) << cell;

        for (int rep = 0; rep < 2; ++rep) {
            ir::MemoryImage mem(*w.module);
            w.bind(mem);
            sim::SimResult replay = sim::simulate(
                *accel, mem, {}, {.compiled = direct.compiled.get()});
            EXPECT_EQ(replay.cycles, direct.cycles) << cell;
            EXPECT_EQ(replay.firings, direct.firings) << cell;
            EXPECT_TRUE(mem.bytes() == direct_mem.bytes()) << cell;
            EXPECT_TRUE(sameBits(replay.outputs, direct.outputs)) << cell;
            EXPECT_TRUE(w.check(mem).empty()) << cell;
            // Scribble on this replay's values: the next replay must
            // not see it.
            for (ir::RuntimeValue &v : replay.outputs) {
                ++v.i;
                if (v.tensor)
                    std::fill(v.tensor->begin(), v.tensor->end(), -1.0f);
            }
        }
    }
    EXPECT_EQ(cells.size(), 42u);
    for (const char *tensor : {"conv_t", "2mm_t", "relu_t"})
        EXPECT_TRUE(cells.count(std::string(tensor) + "/baseline"))
            << tensor;
}

TEST(CompiledDdg, ReplayedTensorOutputsOwnTheirStorage)
{
    // A hand-built index whose root returns a tensor: the replay hands
    // out a copy, so writing through it changes neither the index nor
    // the next replay. An index retargeted from it owns its copy too.
    Recorded r = record("saxpy");
    sim::Ddg ddg = r.ddg();
    ddg.outputs = {ir::RuntimeValue::makeTensor(2, 2, {1, 2, 3, 4})};
    const sim::CompiledDdg cd = sim::compileDdg(*r.accel, std::move(ddg));
    for (int rep = 0; rep < 2; ++rep) {
        ir::MemoryImage mem(*r.workload.module);
        r.workload.bind(mem);
        sim::SimResult replay =
            sim::simulate(*r.accel, mem, {}, {.compiled = &cd});
        ASSERT_EQ(replay.outputs.size(), 1u);
        ASSERT_TRUE(replay.outputs[0].tensor);
        EXPECT_NE(replay.outputs[0].tensor, cd.outputs[0].tensor);
        EXPECT_EQ(*replay.outputs[0].tensor,
                  (std::vector<float>{1, 2, 3, 4}));
        (*replay.outputs[0].tensor)[0] = 9;
    }
    EXPECT_EQ((*cd.outputs[0].tensor)[0], 1.0f);

    auto other = lowered(r.workload, "queue:4");
    const sim::CompiledDdg moved = sim::retarget(cd, *other);
    ASSERT_EQ(moved.outputs.size(), 1u);
    EXPECT_NE(moved.outputs[0].tensor, cd.outputs[0].tensor);
    EXPECT_EQ(*moved.outputs[0].tensor, (std::vector<float>{1, 2, 3, 4}));
}

// --------------------------------------- shared replay under threads

TEST(CompiledDdgParallel, SharedIndexReplayedFromEightWorkers)
{
    // One immutable CompiledDdg, eight concurrent RunContexts — the
    // exact shape µserve's worker pool runs. TSan covers this test in
    // CI; any hidden mutation in the "read-only" replay path surfaces
    // as a race here.
    Recorded r = record("gemm");
    sim::CompiledDdg cd = sim::compileDdg(*r.accel, r.ddg());
    sim::TimingResult serial = sim::scheduleDdg(cd);
    const std::string serial_stats = serial.stats.toJson();

    constexpr unsigned kWorkers = 8;
    constexpr unsigned kRepsPerWorker = 3;
    std::vector<uint64_t> cycles(kWorkers * kRepsPerWorker, 0);
    std::vector<std::string> stats(kWorkers * kRepsPerWorker);
    std::vector<std::thread> workers;
    workers.reserve(kWorkers);
    for (unsigned t = 0; t < kWorkers; ++t) {
        workers.emplace_back([&, t] {
            for (unsigned rep = 0; rep < kRepsPerWorker; ++rep) {
                sim::TimingResult run = sim::scheduleDdg(cd);
                cycles[t * kRepsPerWorker + rep] = run.cycles;
                stats[t * kRepsPerWorker + rep] = run.stats.toJson();
            }
        });
    }
    for (auto &worker : workers)
        worker.join();
    for (unsigned i = 0; i < kWorkers * kRepsPerWorker; ++i) {
        EXPECT_EQ(cycles[i], serial.cycles) << "replay " << i;
        EXPECT_EQ(stats[i], serial_stats) << "replay " << i;
    }
}

TEST(CompiledDdgParallel, SharedIndexRunOnFromEightWorkers)
{
    // The whole replay path — applying the carried result, copying the
    // outputs, scheduling, checking — from eight threads over one
    // shared index, as µserve's workers run it.
    constexpr unsigned kWorkers = 8;
    for (const std::string name : {"gemm", "relu_t"}) {
        setVerbose(false);
        workloads::Workload w = workloads::buildWorkload(name);
        auto accel = workloads::lowerBaseline(w);
        ir::MemoryImage direct_mem(*w.module);
        w.bind(direct_mem);
        sim::SimResult direct = sim::simulate(*accel, direct_mem, {},
                                              {.keepCompiled = true});
        ASSERT_TRUE(direct.compiled) << name;
        const workloads::RunOptions replay{.compiled =
                                               direct.compiled.get()};

        std::vector<workloads::RunResult> runs(kWorkers);
        std::vector<char> same_mem(kWorkers, 0);
        std::vector<std::thread> workers;
        workers.reserve(kWorkers);
        for (unsigned t = 0; t < kWorkers; ++t) {
            workers.emplace_back([&, t] {
                runs[t] = workloads::runOn(w, *accel, replay);
                ir::MemoryImage mem(*w.module);
                w.bind(mem);
                sim::simulate(*accel, mem, {}, replay);
                same_mem[t] = mem.bytes() == direct_mem.bytes();
            });
        }
        for (auto &worker : workers)
            worker.join();
        for (unsigned t = 0; t < kWorkers; ++t) {
            EXPECT_EQ(runs[t].cycles, direct.cycles) << name << " " << t;
            EXPECT_EQ(runs[t].check, "") << name << " " << t;
            EXPECT_TRUE(same_mem[t]) << name << " " << t;
        }
    }
}

} // namespace muir
