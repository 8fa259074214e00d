/**
 * @file
 * μprof tests: profiling must be a pure observer (bit-identical
 * cycles/stats when disabled), the critical-path walk must partition
 * [0, cycles] exactly, stall classes must be mutually exclusive per
 * task, and the JSON emitters must produce valid documents.
 */
#include <gtest/gtest.h>

#include "frontend/lower.hh"
#include "ir/builder.hh"
#include "ir/verifier.hh"
#include "sim/profile.hh"
#include "sim/simulator.hh"
#include "support/json.hh"
#include "uopt/passes.hh"
#include "workloads/driver.hh"
#include "workloads/workload.hh"

namespace muir::sim
{

using namespace ir;

namespace
{

/** out[i] = in[i] + 1 + ... through a chain of adds (serial body). */
struct ChainKernel
{
    Module m{"chain"};
    GlobalArray *in, *out;
    int n;

    explicit ChainKernel(int elems, int chain = 4) : n(elems)
    {
        in = m.addGlobal("in", Type::i32(), elems);
        out = m.addGlobal("out", Type::i32(), elems);
        Function *fn = m.addFunction("chain", Type::voidTy());
        IRBuilder b(m);
        b.setInsertPoint(fn->addBlock("entry"));
        ForLoop loop(b, "i", b.i32(0), b.i32(elems), b.i32(1));
        Value *v = b.load(b.gep(in, loop.iv()), "v");
        for (int c = 0; c < chain; ++c)
            v = b.add(v, b.i32(c + 1));
        b.store(v, b.gep(out, loop.iv()));
        loop.finish();
        b.ret();
        verifyOrDie(m);
    }

    SimResult
    simulate(const SimOptions &options)
    {
        auto accel = frontend::lowerToUir(m, "chain", {});
        MemoryImage mem(m);
        std::vector<int32_t> data(n);
        for (int i = 0; i < n; ++i)
            data[i] = i;
        mem.writeInts(in, data);
        return sim::simulate(*accel, mem, {}, options);
    }
};

/** Critical attribution must partition [0, cycles] exactly. */
void
expectExactPartition(const ProfileResult &p)
{
    EXPECT_EQ(p.criticalLength, p.cycles);
    EXPECT_EQ(p.critical.total() + p.criticalExecute, p.cycles);
    uint64_t path_sum = 0;
    uint64_t prev = ~uint64_t(0);
    for (const auto &entry : p.criticalPath) {
        ASSERT_NE(entry.node, nullptr);
        path_sum += entry.cycles;
        EXPECT_LE(entry.cycles, prev) << "ranking must be descending";
        prev = entry.cycles;
        EXPECT_EQ(entry.stalls.total() + entry.executeCycles,
                  entry.cycles);
    }
    EXPECT_EQ(path_sum, p.cycles);
    // Per-task critical segments are disjoint slices of the same walk.
    uint64_t task_sum = 0;
    for (const auto &[name, tp] : p.tasks) {
        uint64_t t = tp.critical.total() + tp.criticalExecute;
        EXPECT_LE(t, p.cycles) << name;
        task_sum += t;
    }
    EXPECT_EQ(task_sum, p.cycles);
}

} // namespace

TEST(Profile, DisabledIsBitIdentical)
{
    ChainKernel k(64);
    SimOptions off, on;
    on.profile = true;
    on.trace = true;
    SimResult plain = k.simulate(off);
    SimResult profiled = k.simulate(on);
    EXPECT_EQ(plain.cycles, profiled.cycles);
    EXPECT_EQ(plain.firings, profiled.firings);
    // Same schedule implies the same counters, key for key.
    EXPECT_EQ(plain.stats.dump(), profiled.stats.dump());
    EXPECT_EQ(plain.profile, nullptr);
    EXPECT_EQ(plain.log, nullptr);
    ASSERT_NE(profiled.profile, nullptr);
    ASSERT_NE(profiled.log, nullptr);
}

TEST(Profile, ChainKernelCriticalPathPartitions)
{
    ChainKernel k(64);
    SimOptions on;
    on.profile = true;
    SimResult r = k.simulate(on);
    ASSERT_NE(r.profile, nullptr);
    const ProfileResult &p = *r.profile;
    EXPECT_EQ(p.cycles, r.cycles);
    expectExactPartition(p);
    // The loop body runs serially per iteration, so the walk must
    // thread through body work, not just the loop controller.
    EXPECT_FALSE(p.criticalPath.empty());
    EXPECT_GT(p.criticalExecute, 0u);
    // Queue backpressure exists at the default queue depth.
    EXPECT_GT(p.critical[StallClass::QueueFull] + p.criticalExecute,
              0u);
}

TEST(Profile, QueueBackpressureIsAttributed)
{
    // Baseline saxpy is dispatch-bound: the header's child calls stall
    // on the (depth 1) task queue, which µprof must surface.
    auto w = workloads::buildWorkload("saxpy");
    auto accel = workloads::lowerBaseline(w);
    workloads::RunOptions opts;
    opts.profile = true;
    auto run = workloads::runOn(w, *accel, opts);
    ASSERT_TRUE(run.check.empty()) << run.check;
    ASSERT_NE(run.profile, nullptr);
    EXPECT_GT(run.profile->critical[StallClass::QueueFull], 0u);
    EXPECT_GT(run.profile->raw[StallClass::QueueFull], 0u);
    expectExactPartition(*run.profile);
}

TEST(Profile, AllBaselineWorkloadsSatisfyInvariants)
{
    for (const auto &name : workloads::workloadNames()) {
        SCOPED_TRACE(name);
        auto w = workloads::buildWorkload(name);
        auto accel = workloads::lowerBaseline(w);
        workloads::RunOptions opts;
        opts.profile = true;
        auto run = workloads::runOn(w, *accel, opts);
        ASSERT_TRUE(run.check.empty()) << run.check;
        ASSERT_NE(run.profile, nullptr);
        const ProfileResult &p = *run.profile;
        EXPECT_EQ(p.cycles, run.cycles);
        expectExactPartition(p);
        // Occupancy histograms cannot claim more time than the run.
        for (const auto &[tname, tp] : p.tasks) {
            for (const auto &[tile, busy] : tp.tileBusy)
                EXPECT_LE(busy, p.cycles) << tname << " tile " << tile;
            uint64_t occupied = 0;
            for (const auto &[depth, cyc] : tp.queueDepthCycles)
                occupied += cyc;
            EXPECT_LE(occupied, p.cycles) << tname;
        }
        for (const auto &[sname, sp] : p.structures) {
            EXPECT_GE(sp.utilization, 0.0) << sname;
            EXPECT_LE(sp.utilization, 1.0) << sname;
        }
        std::string error;
        EXPECT_TRUE(jsonValidate(profileJson(p), &error)) << error;
    }
}

TEST(Profile, ChromeTraceJsonIsValid)
{
    auto w = workloads::buildWorkload("relu");
    auto accel = workloads::lowerBaseline(w);
    workloads::RunOptions opts;
    opts.profile = true;
    opts.trace = true;
    auto run = workloads::runOn(w, *accel, opts);
    ASSERT_TRUE(run.check.empty()) << run.check;
    ASSERT_NE(run.log, nullptr);
    ASSERT_NE(run.compiled, nullptr);
    std::string json = chromeTraceJson(*run.compiled, *run.log);
    std::string error;
    EXPECT_TRUE(jsonValidate(json, &error)) << error;
    // Chrome trace-event shape: complete events with timing fields.
    EXPECT_NE(json.find("\"traceEvents\""), std::string::npos);
    EXPECT_NE(json.find("\"ph\":\"X\""), std::string::npos);
    EXPECT_NE(json.find("\"ph\":\"M\""), std::string::npos);
    EXPECT_NE(json.find("\"pid\":"), std::string::npos);
    EXPECT_NE(json.find("\"tid\":"), std::string::npos);
    EXPECT_NE(json.find("\"ts\":"), std::string::npos);
    EXPECT_NE(json.find("\"dur\":"), std::string::npos);
}

TEST(Profile, PassManagerRecordsPassActivity)
{
    auto w = workloads::buildWorkload("saxpy");
    auto accel = workloads::lowerBaseline(w);
    uopt::PassManager pm;
    pm.add(std::make_unique<uopt::TaskQueuingPass>(4));
    pm.add(std::make_unique<uopt::ExecutionTilingPass>(2));
    pm.setCycleProbe([&](const uir::Accelerator &a) {
        return workloads::runOn(w, a).cycles;
    });
    uint64_t before = workloads::runOn(w, *accel).cycles;
    pm.run(*accel);
    ASSERT_EQ(pm.records().size(), 2u);
    const auto &queue = pm.records()[0];
    EXPECT_EQ(queue.name, "task-queuing");
    EXPECT_GT(queue.nodesBefore, 0u);
    EXPECT_GE(queue.wallMs, 0.0);
    EXPECT_GT(queue.nodesChanged + queue.edgesChanged, 0u);
    for (const auto &rec : pm.records()) {
        ASSERT_NE(rec.cyclesAfter, uopt::kNoCycles) << rec.name;
        EXPECT_LE(rec.cyclesAfter, before) << rec.name;
    }
    // Queue + tile must actually speed saxpy up.
    EXPECT_LT(pm.records().back().cyclesAfter, before);
}

} // namespace muir::sim
