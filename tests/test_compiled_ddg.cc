/**
 * @file
 * CompiledDdg equivalence suite: the frozen struct-of-arrays replay
 * index (sim/compiled_ddg.hh) must be a faithful re-encoding of the
 * builder-form Ddg — same adjacency in both CSR directions, same
 * per-event attributes — on every baseline design, and it must stand
 * alone: an index whose executor and record are gone replays, profiles
 * and diagnoses hangs exactly like a direct run. The Parallel suite
 * exercises the shared-replay contract (one immutable index, many
 * concurrent RunContexts) under TSan in CI.
 */
#include <gtest/gtest.h>

#include <algorithm>
#include <thread>
#include <vector>

#include "sim/compiled_ddg.hh"
#include "support/logging.hh"
#include "sim/exec.hh"
#include "sim/simulator.hh"
#include "sim/timing.hh"
#include "workloads/driver.hh"
#include "workloads/workload.hh"

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

Recorded
record(const std::string &name)
{
    setVerbose(false);
    Recorded r;
    r.workload = workloads::buildWorkload(name);
    r.accel = workloads::lowerBaseline(r.workload);
    r.mem = std::make_unique<ir::MemoryImage>(*r.workload.module);
    r.workload.bind(*r.mem);
    r.exec = std::make_unique<sim::UirExecutor>(*r.accel, *r.mem);
    r.exec->run({});
    return r;
}

} // namespace

// ------------------------------------------------- structural fidelity

TEST(CompiledDdg, CsrRoundTripOnEveryBaseline)
{
    for (const std::string &name : workloads::workloadNames()) {
        Recorded r = record(name);
        const sim::Ddg &ddg = r.ddg();
        sim::CompiledDdg cd = sim::compileDdg(*r.accel, ddg);

        ASSERT_EQ(cd.numEvents, ddg.numEvents()) << name;
        ASSERT_EQ(cd.numInvocations, ddg.invocations().size()) << name;
        ASSERT_EQ(cd.depStart.size(), cd.numEvents + 1) << name;
        ASSERT_EQ(cd.depdStart.size(), cd.numEvents + 1) << name;
        EXPECT_EQ(cd.design, r.accel.get()) << name;
        EXPECT_GT(cd.bytes(), 0u) << name;
        EXPECT_GT(sim::ddgBytes(ddg), 0u) << name;

        // Forward CSR: exact dependency lists, in recording order,
        // with the memory-only bit set exactly on the memDeps entries.
        for (uint32_t e = 0; e < cd.numEvents; ++e) {
            const auto &deps = ddg.events()[e].deps;
            const auto &mem = ddg.events()[e].memDeps;
            ASSERT_EQ(cd.depStart[e + 1] - cd.depStart[e],
                      deps.size())
                << name << " event " << e;
            for (size_t i = 0; i < deps.size(); ++i) {
                uint32_t k = cd.depStart[e] + static_cast<uint32_t>(i);
                ASSERT_EQ(cd.deps[k], deps[i])
                    << name << " event " << e << " dep " << i;
                ASSERT_EQ(cd.isMemDep(k),
                          std::find(mem.begin(), mem.end(), deps[i]) !=
                              mem.end())
                    << name << " event " << e << " dep " << i;
            }
        }

        // Per-invocation task, and the entry event the kEvEntry flag
        // marks.
        ASSERT_EQ(cd.invTask.size(), cd.numInvocations) << name;
        for (uint32_t i = 0; i < cd.numInvocations; ++i) {
            const sim::Invocation &inv = ddg.invocations()[i];
            ASSERT_EQ(cd.tasks[cd.invTask[i]].task, inv.task) << name;
            if (inv.entryEvent != sim::kNoEvent) {
                ASSERT_TRUE(cd.flags[inv.entryEvent] & sim::kEvEntry)
                    << name << " invocation " << i;
            }
        }

        // Reverse CSR: one entry per forward edge, each producer's
        // consumer list sorted ascending (the replay's wake order).
        ASSERT_EQ(cd.dependents.size(), cd.deps.size()) << name;
        std::vector<std::vector<uint32_t>> expected(cd.numEvents);
        for (uint32_t e = 0; e < cd.numEvents; ++e)
            for (uint64_t d : ddg.events()[e].deps)
                expected[d].push_back(e);
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
    for (const std::string name :
         {"gemm", "saxpy", "fib", "msort", "spmv"}) {
        Recorded r = record(name);
        const sim::Ddg &ddg = r.ddg();
        sim::CompiledDdg cd = sim::compileDdg(*r.accel, ddg);

        for (uint32_t e = 0; e < cd.numEvents; ++e) {
            const sim::DynEvent &ev = ddg.events()[e];
            ASSERT_EQ(cd.invocation[e], ev.invocation) << name;
            ASSERT_EQ(bool(cd.flags[e] & sim::kEvLoad), ev.isLoad)
                << name << " event " << e;
            ASSERT_EQ(bool(cd.flags[e] & sim::kEvStore), ev.isStore)
                << name << " event " << e;
            ASSERT_EQ(bool(cd.flags[e] & sim::kEvEntry), ev.isEntry)
                << name << " event " << e;
            ASSERT_EQ(bool(cd.flags[e] & sim::kEvCompletion),
                      ev.isCompletion)
                << name << " event " << e;
            if (ev.isCompletion) {
                ASSERT_EQ(cd.nodeOf[e], sim::kNoId32) << name;
                ASSERT_EQ(cd.taskOf[e], sim::kNoId16) << name;
                ASSERT_EQ(cd.initSlot[e], sim::kNoId32) << name;
            } else {
                ASSERT_LT(cd.nodeOf[e], cd.nodes.size()) << name;
                ASSERT_EQ(cd.nodes[cd.nodeOf[e]], ev.node) << name;
                ASSERT_LT(cd.taskOf[e], cd.tasks.size()) << name;
                ASSERT_LT(cd.initSlot[e], cd.initSlots) << name;
            }
            if (ev.isLoad || ev.isStore) {
                ASSERT_EQ(cd.addr[e], ev.addr) << name;
                ASSERT_EQ(cd.words[e], ev.words) << name;
                ASSERT_NE(cd.structOf[e], sim::kNoId16)
                    << name << " event " << e;
                ASSERT_GE(cd.beats[e], 1u) << name;
            } else {
                ASSERT_EQ(cd.structOf[e], sim::kNoId16) << name;
            }
            if (ev.queueDep == sim::kNoEvent)
                ASSERT_EQ(cd.queueDep[e], sim::kNoId32) << name;
            else
                ASSERT_EQ(cd.queueDep[e], ev.queueDep) << name;
        }
    }
}

TEST(CompiledDdgDeath, ForwardDependencyTripsTheFreezeAssert)
{
    // The whole replay design rests on "every dep references an
    // earlier event" (a linear id-order pass is a topological
    // schedule); a record violating it must die at freeze time, not
    // deadlock the scheduler.
    Recorded r = record("fib");
    sim::Ddg bad = r.ddg();
    sim::DynEvent rogue;
    rogue.isCompletion = true;
    rogue.invocation = 0;
    rogue.deps = {bad.numEvents() + 100}; // forward reference
    bad.addEvent(std::move(rogue));
    EXPECT_DEATH(sim::compileDdg(*r.accel, bad), "not earlier");
}

// ------------------------------------------------- replay equivalence

TEST(CompiledDdg, StandsAloneAfterItsRecordIsDestroyed)
{
    // The index is built from an executor that is then destroyed with
    // its Ddg. Replaying the orphaned index — with every observer on,
    // and under a token-loss fault — must reproduce a direct run.
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
        observe.profile = true;
        observe.timeline = true;
        observe.trace = true;
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
        ASSERT_EQ(direct.trace.size(), replay.trace.size()) << name;
        for (size_t i = 0; i < direct.trace.size(); ++i) {
            const sim::TimingTraceRow &a = direct.trace[i];
            const sim::TimingTraceRow &b = replay.trace[i];
            ASSERT_EQ(a.event, b.event) << name << " row " << i;
            ASSERT_EQ(a.node, b.node) << name << " row " << i;
            ASSERT_EQ(a.invocation, b.invocation) << name << " row " << i;
            ASSERT_EQ(a.ready, b.ready) << name << " row " << i;
            ASSERT_EQ(a.start, b.start) << name << " row " << i;
            ASSERT_EQ(a.finish, b.finish) << name << " row " << i;
        }
        EXPECT_EQ(sim::profileJson(*direct.profile),
                  sim::profileJson(*replay.profile))
            << name;
        EXPECT_EQ(sim::timelineJson(*direct.timeline),
                  sim::timelineJson(*replay.timeline))
            << name;
        EXPECT_EQ(sim::chromeTraceJson(direct.trace, *direct.profileData,
                                       direct.timeline.get()),
                  sim::chromeTraceJson(replay.trace, *replay.profileData,
                                       replay.timeline.get()))
            << name;

        // Drop the first token into a mid-graph event: the orphaned
        // index must hang with the same diagnosis a direct run renders.
        sim::FaultPlan plan;
        plan.kind = sim::FaultKind::TokenDrop;
        for (uint32_t e = cd->numEvents / 2; e < cd->numEvents; ++e)
            if (cd->depStart[e + 1] > cd->depStart[e]) {
                plan.event = e;
                plan.producer = cd->deps[cd->depStart[e]];
                break;
            }
        ASSERT_NE(plan.event, sim::kNoEvent) << name;
        sim::FaultHarness harness;
        harness.plan = &plan;
        harness.watchdog.enabled = true;
        sim::RunContext ctx;
        ctx.fault = &harness;
        sim::TimingResult faulted = sim::scheduleDdg(*cd, ctx);

        sim::SimOptions inject;
        inject.fault = &plan;
        inject.watchdog = true;
        ir::MemoryImage fault_mem(*w.module);
        w.bind(fault_mem);
        sim::SimResult direct_fault =
            sim::simulate(*accel, fault_mem, {}, inject);
        ASSERT_TRUE(harness.verdict.hang.tripped()) << name;
        EXPECT_EQ(faulted.cycles, direct_fault.cycles) << name;
        EXPECT_EQ(faulted.stats.toJson(), direct_fault.stats.toJson())
            << name;
        EXPECT_EQ(harness.verdict.hang.render(),
                  direct_fault.verdict.hang.render())
            << name;
    }
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

} // namespace muir
