/**
 * @file
 * Simulator-internal tests on hand-built micro-graphs: DDG structural
 * invariants, latency/II arithmetic, memory-system behaviour (bank
 * conflicts, cache tag reuse, working-set effects, DRAM pressure),
 * task-queue backpressure, and loop-control occupancy — each isolated
 * with a purpose-built accelerator rather than a full workload.
 */
#include <gtest/gtest.h>

#include "frontend/lower.hh"
#include "ir/builder.hh"
#include "ir/verifier.hh"
#include "sim/exec.hh"
#include "sim/simulator.hh"
#include "uir/delay_model.hh"
#include "uir/verifier.hh"

namespace muir::sim
{

using namespace ir;

namespace
{

/**
 * A tunable streaming kernel: out[i] = in[(i * stride) % n] op'd
 * through a chain of depth adds. Used to create controlled memory
 * patterns.
 */
struct StreamKernel
{
    Module m{"stream"};
    GlobalArray *in, *out;
    int n;

    explicit StreamKernel(int elems, int stride = 1, int chain = 1)
        : n(elems)
    {
        in = m.addGlobal("in", Type::i32(), elems);
        out = m.addGlobal("out", Type::i32(), elems);
        Function *fn = m.addFunction("stream", Type::voidTy());
        IRBuilder b(m);
        b.setInsertPoint(fn->addBlock("entry"));
        ForLoop loop(b, "i", b.i32(0), b.i32(elems), b.i32(1));
        // elems is a power of two: wrap with a mask (srem's iterative
        // divider would otherwise dominate the II).
        Value *idx = b.andOp(b.mul(loop.iv(), b.i32(stride)),
                             b.i32(elems - 1), "idx");
        Value *v = b.load(b.gep(in, idx), "v");
        for (int c = 0; c < chain; ++c)
            v = b.add(v, b.i32(c + 1));
        b.store(v, b.gep(out, loop.iv()));
        loop.finish();
        b.ret();
        verifyOrDie(m);
    }

    std::unique_ptr<uir::Accelerator>
    lower(const frontend::LowerOptions &opts = {})
    {
        return frontend::lowerToUir(m, "stream", opts);
    }

    SimResult
    simulate(uir::Accelerator &accel)
    {
        MemoryImage mem(m);
        std::vector<int32_t> data(n);
        for (int i = 0; i < n; ++i)
            data[i] = i;
        mem.writeInts(in, data);
        return sim::simulate(accel, mem);
    }
};

} // namespace

TEST(Ddg, DepsAlwaysPointBackwards)
{
    StreamKernel k(32);
    auto accel = k.lower();
    MemoryImage mem(k.m);
    UirExecutor exec(*accel, mem);
    exec.run({});
    const Ddg &ddg = exec.ddg();
    ASSERT_GT(ddg.numEvents, 0u);
    ASSERT_EQ(ddg.depStart.size(), ddg.numEvents + 1u);
    for (uint32_t id = 0; id < ddg.numEvents; ++id)
        for (uint32_t k = ddg.depStart[id]; k < ddg.depStart[id + 1]; ++k)
            EXPECT_LT(ddg.deps[k], id);
}

TEST(Ddg, EveryInvocationHasEntryAndCompletion)
{
    StreamKernel k(8);
    auto accel = k.lower();
    MemoryImage mem(k.m);
    UirExecutor exec(*accel, mem);
    exec.run({});
    const Ddg &ddg = exec.ddg();
    std::vector<unsigned> completions(ddg.numInvocations, 0);
    std::vector<unsigned> entries(ddg.numInvocations, 0);
    for (uint32_t id = 0; id < ddg.numEvents; ++id) {
        if (ddg.flags[id] & sim::kEvCompletion)
            ++completions[ddg.invocation[id]];
        if (ddg.flags[id] & sim::kEvEntry)
            ++entries[ddg.invocation[id]];
    }
    for (uint32_t i = 0; i < ddg.numInvocations; ++i) {
        EXPECT_GE(completions[i], 1u) << "invocation " << i;
        EXPECT_EQ(entries[i], 1u) << "invocation " << i;
    }
}

TEST(Ddg, MemoryRawDependenciesRecorded)
{
    // store then load of the same word must be ordered, by a
    // memory-only dep.
    Module m("rw");
    auto *buf = m.addGlobal("buf", Type::i32(), 4);
    Function *fn = m.addFunction("rw", Type::i32());
    IRBuilder b(m);
    b.setInsertPoint(fn->addBlock("entry"));
    b.store(b.i32(7), b.gep(buf, b.i32(1)));
    Value *v = b.load(b.gep(buf, b.i32(1)), "v");
    b.ret(v);
    verifyOrDie(m);
    auto accel = frontend::lowerToUir(m, "rw");
    MemoryImage mem(m);
    UirExecutor exec(*accel, mem);
    auto outs = exec.run({});
    EXPECT_EQ(outs.at(0).asInt(), 7);

    const Ddg &ddg = exec.ddg();
    uint32_t store_id = sim::kNoId32, load_id = sim::kNoId32;
    for (uint32_t id = 0; id < ddg.numEvents; ++id) {
        if (ddg.flags[id] & sim::kEvStore)
            store_id = id;
        if (ddg.flags[id] & sim::kEvLoad)
            load_id = id;
    }
    ASSERT_NE(store_id, sim::kNoId32);
    ASSERT_NE(load_id, sim::kNoId32);
    unsigned ordered = 0;
    for (uint32_t k = ddg.depStart[load_id]; k < ddg.depStart[load_id + 1];
         ++k) {
        if (ddg.deps[k] == store_id) {
            ++ordered;
            EXPECT_TRUE(ddg.isMemDep(k));
        }
    }
    EXPECT_EQ(ordered, 1u);
}

TEST(Timing, LongerFusionChainsRaiseLatencyModel)
{
    // Delay-model sanity: fmul is multi-cycle, logic sub-cycle.
    EXPECT_GT(uir::opDelayUnits(ir::Op::FMul),
              uir::opDelayUnits(ir::Op::Add));
    EXPECT_GT(uir::opDelayUnits(ir::Op::Add),
              uir::opDelayUnits(ir::Op::And));
    EXPECT_GE(uir::opDelayUnits(ir::Op::FDiv), 8.0);
}

TEST(Timing, ChainDepthIncreasesCycles)
{
    StreamKernel shallow(64, 1, 1);
    StreamKernel deep(64, 1, 12);
    auto a1 = shallow.lower();
    auto a2 = deep.lower();
    // Deep chains stretch per-iteration latency; with the same
    // iteration count the pipeline hides most but not all of it.
    uint64_t c1 = shallow.simulate(*a1).cycles;
    uint64_t c2 = deep.simulate(*a2).cycles;
    EXPECT_GT(c2, c1);
}

TEST(Timing, ScratchpadBankingResolvesConflicts)
{
    // Unit-stride over a localized scratchpad: interleaved banks split
    // consecutive words, so banking reduces port waits.
    StreamKernel k(256, 1, 1);
    auto accel = k.lower();
    uir::Structure *spad =
        accel->addStructure(uir::StructureKind::Scratchpad, "spad");
    spad->setLatency(1);
    spad->addSpace(k.in->spaceId());
    spad->addSpace(k.out->spaceId());
    uir::verifyOrDie(*accel);
    // Speed iterations up so memory is the constraint.
    for (const auto &t : accel->tasks())
        if (t->isLoop())
            t->loopControl()->setCtrlStages(1);

    uint64_t one_bank, four_banks;
    {
        spad->setBanks(1);
        one_bank = k.simulate(*accel).cycles;
    }
    {
        spad->setBanks(4);
        four_banks = k.simulate(*accel).cycles;
    }
    EXPECT_LT(four_banks, one_bank);
}

TEST(Timing, CacheCapturesWorkingSetEffects)
{
    // A working set that fits in the L1 misses only on first touch; a
    // tiny cache thrashes (§6.4: "whether working set size fits").
    StreamKernel k(512, 1, 1);
    frontend::LowerOptions small, big;
    small.cacheSizeKb = 1;
    big.cacheSizeKb = 64;
    auto a_small = k.lower(small);
    auto a_big = k.lower(big);
    auto r_small = k.simulate(*a_small);
    auto r_big = k.simulate(*a_big);
    EXPECT_GE(r_small.stats.get("cache.misses"),
              r_big.stats.get("cache.misses"));
    // 512 ints = 2KB/array: first-touch misses = ~2*2KB/64B = 64.
    EXPECT_GE(r_big.stats.get("cache.misses"), 32u);
    EXPECT_LE(r_big.stats.get("cache.misses"), 160u);
}

TEST(Timing, StridedAccessMissesMore)
{
    StreamKernel unit(256, 1, 1);
    StreamKernel strided(256, 17, 1);
    auto a1 = unit.lower();
    auto a2 = strided.lower();
    auto r1 = unit.simulate(*a1);
    auto r2 = strided.simulate(*a2);
    // Same element count; strided sweep touches lines less densely
    // per miss, so it can only do worse or equal.
    EXPECT_GE(r2.stats.get("cache.misses") + 8,
              r1.stats.get("cache.misses"));
}

TEST(Timing, QueueDepthRelievesDispatchBackpressure)
{
    StreamKernel k(128, 1, 1);
    auto accel = k.lower();
    uir::Task *loop = nullptr;
    for (const auto &t : accel->tasks())
        if (t->isLoop())
            loop = t.get();
    ASSERT_NE(loop, nullptr);
    loop->setQueueDepth(1);
    uint64_t shallow = k.simulate(*accel).cycles;
    loop->setQueueDepth(8);
    uint64_t deep = k.simulate(*accel).cycles;
    EXPECT_LE(deep, shallow);
}

TEST(Timing, CtrlStageRetimingBoundsIterationRate)
{
    StreamKernel k(256, 1, 1);
    auto accel = k.lower();
    uir::Node *lc = nullptr;
    for (const auto &t : accel->tasks())
        if (t->isLoop())
            lc = t->loopControl();
    ASSERT_NE(lc, nullptr);

    lc->setCtrlStages(5);
    uint64_t five = k.simulate(*accel).cycles;
    lc->setCtrlStages(2);
    uint64_t two = k.simulate(*accel).cycles;
    // 256 iterations at II 5 vs II 2: expect a large, bounded gain.
    EXPECT_LT(two, five);
    EXPECT_GT(double(five) / double(two), 1.5);
    EXPECT_LT(double(five) / double(two), 3.5);
}

TEST(Timing, DeterministicAcrossRuns)
{
    StreamKernel k(64, 3, 2);
    auto a1 = k.lower();
    auto a2 = k.lower();
    EXPECT_EQ(k.simulate(*a1).cycles, k.simulate(*a2).cycles);
}

TEST(Exec, FunctionalOnlyModeSkipsDdg)
{
    StreamKernel k(32);
    auto accel = k.lower();
    MemoryImage mem(k.m);
    std::vector<int32_t> data(32);
    for (int i = 0; i < 32; ++i)
        data[i] = i;
    mem.writeInts(k.in, data);
    UirExecutor exec(*accel, mem, /*record_ddg=*/false);
    exec.run({});
    EXPECT_EQ(exec.ddg().numEvents, 0u);
    auto out = mem.readInts(k.out);
    EXPECT_EQ(out[5], 5 + 1);
}

TEST(Exec, ExecutionOrderKeepsEffectsInProgramOrder)
{
    StreamKernel k(16);
    auto accel = k.lower();
    for (const auto &task : accel->tasks()) {
        auto order = task->executionOrder();
        // Side-effecting node ids must appear in ascending order.
        unsigned last_effect_id = 0;
        bool first = true;
        for (const uir::Node *n : order) {
            switch (n->kind()) {
              case uir::NodeKind::Load:
              case uir::NodeKind::Store:
              case uir::NodeKind::ChildCall:
              case uir::NodeKind::SyncNode:
                if (!first) {
                    EXPECT_GT(n->id(), last_effect_id);
                }
                last_effect_id = n->id();
                first = false;
                break;
              default:
                break;
            }
        }
        // And the order must be a valid topological order.
        std::set<const uir::Node *> seen;
        for (const uir::Node *n : order) {
            unsigned limit = n->numInputs();
            if (n->kind() == uir::NodeKind::LoopControl)
                limit = 3 + n->numCarried();
            for (unsigned i = 0; i < limit; ++i)
                EXPECT_TRUE(seen.count(n->input(i).node))
                    << n->name();
            seen.insert(n);
        }
    }
}

} // namespace muir::sim
