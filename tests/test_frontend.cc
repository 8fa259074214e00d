/**
 * @file
 * Front-end lowering tests: task extraction (Stage 1), dataflow
 * construction (Stage 2), loop-control matching, predication, spawn
 * handling, and functional equivalence of the lowered μIR graph with
 * the compiler-IR interpreter.
 */
#include <gtest/gtest.h>

#include "frontend/lower.hh"
#include "ir/builder.hh"
#include "ir/interp.hh"
#include "ir/verifier.hh"
#include "sim/simulator.hh"
#include "support/strings.hh"
#include "uir/printer.hh"
#include "uir/verifier.hh"
#include "workloads/driver.hh"
#include "workloads/workload.hh"

namespace muir
{

using namespace ir;

namespace
{

/** saxpy: y[i] = a*x[i] + y[i] over N elements (serial loop). */
struct SaxpyProgram
{
    Module m{"saxpy"};
    GlobalArray *x, *y;
    static constexpr int kN = 32;

    SaxpyProgram()
    {
        x = m.addGlobal("x", Type::f32(), kN);
        y = m.addGlobal("y", Type::f32(), kN);
        Function *fn = m.addFunction("saxpy", Type::voidTy());
        IRBuilder b(m);
        b.setInsertPoint(fn->addBlock("entry"));
        ForLoop loop(b, "i", b.i32(0), b.i32(kN), b.i32(1));
        Value *xi = b.load(b.gep(x, loop.iv()), "xi");
        Value *yi = b.load(b.gep(y, loop.iv()), "yi");
        Value *r = b.fadd(b.fmul(b.f32(2.0), xi, "ax"), yi, "r");
        b.store(r, b.gep(y, loop.iv()));
        loop.finish();
        b.ret();
        verifyOrDie(m);
    }
};

/** sum-reduce with a carried accumulator, returning the sum. */
struct ReduceProgram
{
    Module m{"reduce"};
    GlobalArray *x;
    static constexpr int kN = 16;

    ReduceProgram()
    {
        x = m.addGlobal("x", Type::i32(), kN);
        Function *fn = m.addFunction("reduce", Type::i32());
        IRBuilder b(m);
        b.setInsertPoint(fn->addBlock("entry"));
        ForLoop loop(b, "i", b.i32(0), b.i32(kN), b.i32(1));
        Instruction *acc = loop.addCarried(b.i32(0), "acc");
        Value *xi = b.load(b.gep(x, loop.iv()), "xi");
        loop.setCarriedNext(acc, b.add(acc, xi, "acc.next"));
        loop.finish();
        b.ret(acc);
        verifyOrDie(m);
    }
};

/** Nested loop matrix-like store: out[i*8+j] = i+j. */
struct NestProgram
{
    Module m{"nest"};
    GlobalArray *out;

    NestProgram()
    {
        out = m.addGlobal("out", Type::i32(), 64);
        Function *fn = m.addFunction("nest", Type::voidTy());
        IRBuilder b(m);
        b.setInsertPoint(fn->addBlock("entry"));
        ForLoop i(b, "i", b.i32(0), b.i32(8), b.i32(1));
        ForLoop j(b, "j", b.i32(0), b.i32(8), b.i32(1));
        Value *idx = b.add(b.mul(i.iv(), b.i32(8)), j.iv(), "idx");
        b.store(b.add(i.iv(), j.iv(), "v"), b.gep(out, idx));
        j.finish();
        i.finish();
        b.ret();
        verifyOrDie(m);
    }
};

/** Cilk-style parallel fill with branch: out[i] = i even ? i*i : -i. */
struct ParallelBranchProgram
{
    Module m{"pbranch"};
    GlobalArray *out;
    static constexpr int kN = 16;

    ParallelBranchProgram()
    {
        out = m.addGlobal("out", Type::i32(), kN);
        Function *fn = m.addFunction("pbranch", Type::voidTy());
        IRBuilder b(m);
        b.setInsertPoint(fn->addBlock("entry"));
        ForLoop loop(b, "i", b.i32(0), b.i32(kN), b.i32(1),
                     /*parallel=*/true);
        BasicBlock *even = fn->addBlock("even");
        BasicBlock *odd = fn->addBlock("odd");
        BasicBlock *done = fn->addBlock("done");
        Value *c = b.icmp(Op::ICmpEq, b.srem(loop.iv(), b.i32(2)),
                          b.i32(0));
        b.condBr(c, even, odd);
        b.setInsertPoint(even);
        b.store(b.mul(loop.iv(), loop.iv()), b.gep(out, loop.iv()));
        b.br(done);
        b.setInsertPoint(odd);
        b.store(b.sub(b.i32(0), loop.iv()), b.gep(out, loop.iv()));
        b.br(done);
        b.setInsertPoint(done);
        loop.finish();
        b.ret();
        verifyOrDie(m);
    }
};

} // namespace

TEST(Frontend, SaxpyTaskExtraction)
{
    SaxpyProgram p;
    auto accel = frontend::lowerToUir(p.m, "saxpy");
    ASSERT_TRUE(uir::verify(*accel).empty())
        << join(uir::verify(*accel), "\n");
    // Two tasks: root + the loop.
    EXPECT_EQ(accel->tasks().size(), 2u);
    EXPECT_EQ(accel->root()->kind(), uir::TaskKind::Root);
    EXPECT_EQ(accel->root()->name(), "saxpy");
    uir::Task *loop = accel->taskByName("saxpy.i.header");
    ASSERT_NE(loop, nullptr);
    EXPECT_TRUE(loop->isLoop());
    EXPECT_EQ(loop->parentTask(), accel->root());
    // Loop dataflow: 2 loads + 1 store.
    EXPECT_EQ(loop->memOps().size(), 3u);
    // Root dispatches the loop.
    ASSERT_EQ(accel->root()->childCalls().size(), 1u);
    EXPECT_EQ(accel->root()->childCalls()[0]->callee(), loop);
}

TEST(Frontend, BaselineStructures)
{
    SaxpyProgram p;
    auto accel = frontend::lowerToUir(p.m, "saxpy");
    EXPECT_NE(accel->structureByName("l1"), nullptr);
    EXPECT_NE(accel->structureByName("dram"), nullptr);
    EXPECT_EQ(accel->structureByName("l1")->sizeKb(), 64u);
    // Memory ops carry their points-to spaces but resolve to the L1.
    uir::Task *loop = accel->taskByName("saxpy.i.header");
    for (uir::Node *op : loop->memOps()) {
        EXPECT_NE(op->memSpace(), 0u);
        EXPECT_EQ(accel->structureForSpace(op->memSpace()),
                  accel->structureByName("l1"));
    }
}

TEST(Frontend, SaxpyFunctionalEquivalence)
{
    SaxpyProgram p;
    auto accel = frontend::lowerToUir(p.m, "saxpy");

    // Golden: compiler-IR interpreter.
    Interpreter golden(p.m);
    std::vector<float> xs, ys;
    for (int i = 0; i < SaxpyProgram::kN; ++i) {
        xs.push_back(0.5f * i);
        ys.push_back(1.0f + i);
    }
    golden.memory().writeFloats(p.x, xs);
    golden.memory().writeFloats(p.y, ys);
    golden.run(*p.m.function("saxpy"), {});
    auto want = golden.memory().readFloats(p.y);

    // μIR functional execution.
    MemoryImage mem(p.m);
    mem.writeFloats(p.x, xs);
    mem.writeFloats(p.y, ys);
    sim::UirExecutor(*accel, mem, /*record_ddg=*/false).run();
    auto got = mem.readFloats(p.y);
    ASSERT_EQ(want.size(), got.size());
    for (size_t i = 0; i < want.size(); ++i)
        EXPECT_FLOAT_EQ(want[i], got[i]) << "element " << i;
}

TEST(Frontend, ReduceCarriedValueAndLiveOut)
{
    ReduceProgram p;
    auto accel = frontend::lowerToUir(p.m, "reduce");
    ASSERT_TRUE(uir::verify(*accel).empty())
        << join(uir::verify(*accel), "\n");

    uir::Task *loop = accel->taskByName("reduce.i.header");
    ASSERT_NE(loop, nullptr);
    EXPECT_EQ(loop->loopControl()->numCarried(), 1u);
    // The accumulator escapes: one live-out.
    EXPECT_EQ(loop->liveOuts().size(), 1u);
    // Root returns it.
    EXPECT_EQ(accel->root()->liveOuts().size(), 1u);

    MemoryImage mem(p.m);
    std::vector<int32_t> xs;
    int32_t want = 0;
    for (int i = 0; i < ReduceProgram::kN; ++i) {
        xs.push_back(3 * i + 1);
        want += 3 * i + 1;
    }
    mem.writeInts(p.x, xs);
    auto outs = sim::UirExecutor(*accel, mem, /*record_ddg=*/false).run();
    ASSERT_EQ(outs.size(), 1u);
    EXPECT_EQ(outs[0].asInt(), want);
}

TEST(Frontend, NestedLoopsBecomeTaskHierarchy)
{
    NestProgram p;
    auto accel = frontend::lowerToUir(p.m, "nest");
    ASSERT_TRUE(uir::verify(*accel).empty());
    ASSERT_EQ(accel->tasks().size(), 3u);
    uir::Task *outer = accel->taskByName("nest.i.header");
    uir::Task *inner = accel->taskByName("nest.j.header");
    ASSERT_NE(outer, nullptr);
    ASSERT_NE(inner, nullptr);
    EXPECT_EQ(inner->parentTask(), outer);
    EXPECT_EQ(outer->parentTask(), accel->root());
    // Outer dispatches inner once per iteration.
    ASSERT_EQ(outer->childCalls().size(), 1u);
    EXPECT_EQ(outer->childCalls()[0]->callee(), inner);

    MemoryImage mem(p.m);
    sim::UirExecutor(*accel, mem, /*record_ddg=*/false).run();
    auto out = mem.readInts(p.out);
    for (int i = 0; i < 8; ++i)
        for (int j = 0; j < 8; ++j)
            EXPECT_EQ(out[i * 8 + j], i + j);
}

TEST(Frontend, ParallelLoopCreatesSpawnTask)
{
    ParallelBranchProgram p;
    auto accel = frontend::lowerToUir(p.m, "pbranch");
    ASSERT_TRUE(uir::verify(*accel).empty())
        << join(uir::verify(*accel), "\n");

    // Root + loop + spawn task.
    ASSERT_EQ(accel->tasks().size(), 3u);
    uir::Task *loop = accel->taskByName("pbranch.i.header");
    ASSERT_NE(loop, nullptr);
    std::vector<uir::Node *> spawns;
    for (uir::Node *call : loop->childCalls())
        if (call->isSpawn())
            spawns.push_back(call);
    ASSERT_EQ(spawns.size(), 1u);
    EXPECT_EQ(spawns[0]->callee()->kind(), uir::TaskKind::Spawn);

    // Root syncs after the loop.
    bool has_sync = false;
    for (const auto &n : accel->root()->nodes())
        if (n->kind() == uir::NodeKind::SyncNode)
            has_sync = true;
    EXPECT_TRUE(has_sync);

    MemoryImage mem(p.m);
    sim::UirExecutor(*accel, mem, /*record_ddg=*/false).run();
    auto out = mem.readInts(p.out);
    for (int i = 0; i < ParallelBranchProgram::kN; ++i)
        EXPECT_EQ(out[i], i % 2 == 0 ? i * i : -i) << "element " << i;
}

TEST(Frontend, PredicatedStoresInSpawnBody)
{
    // The spawned body itself contains the branch: detach around an
    // if/else (Figure 4 shape).
    Module m("fig4");
    auto *out = m.addGlobal("out", Type::i32(), 8);
    Function *fn = m.addFunction("fig4", Type::voidTy());
    IRBuilder b(m);
    b.setInsertPoint(fn->addBlock("entry"));
    ForLoop loop(b, "i", b.i32(0), b.i32(8), b.i32(1));
    // Manual detach: spawn a body that branches internally.
    BasicBlock *spawned = fn->addBlock("spawned");
    BasicBlock *even = fn->addBlock("even");
    BasicBlock *odd = fn->addBlock("odd");
    BasicBlock *merge = fn->addBlock("merge");
    BasicBlock *cont = fn->addBlock("cont");
    b.detach(spawned, cont);
    b.setInsertPoint(spawned);
    Value *c = b.icmp(Op::ICmpEq, b.srem(loop.iv(), b.i32(2)), b.i32(0));
    b.condBr(c, even, odd);
    b.setInsertPoint(even);
    b.store(b.i32(7), b.gep(out, loop.iv()));
    b.br(merge);
    b.setInsertPoint(odd);
    b.store(b.i32(9), b.gep(out, loop.iv()));
    b.br(merge);
    b.setInsertPoint(merge);
    b.reattach(cont);
    b.setInsertPoint(cont);
    loop.finish();
    b.ret();
    verifyOrDie(m);

    auto accel = frontend::lowerToUir(m, "fig4");
    ASSERT_TRUE(uir::verify(*accel).empty())
        << join(uir::verify(*accel), "\n");
    ASSERT_EQ(accel->tasks().size(), 3u);

    MemoryImage mem(m);
    sim::UirExecutor(*accel, mem, /*record_ddg=*/false).run();
    auto data = mem.readInts(out);
    for (int i = 0; i < 8; ++i)
        EXPECT_EQ(data[i], i % 2 == 0 ? 7 : 9);
}

TEST(Frontend, SiblingLoopTasksNumberedInProgramOrder)
{
    // Sibling loops become tasks in program order, not in the order
    // their loop objects happen to sit in memory.
    workloads::Workload w = workloads::buildWorkload("softm8");
    auto accel = workloads::lowerBaseline(w);
    const uir::Task *exp = accel->taskByName("softmax.exp.header");
    const uir::Task *div = accel->taskByName("softmax.div.header");
    ASSERT_TRUE(exp && div);
    EXPECT_LT(exp->id(), div->id());
}

TEST(Frontend, GraphPrinterRendersTasks)
{
    SaxpyProgram p;
    auto accel = frontend::lowerToUir(p.m, "saxpy");
    std::string text = uir::printAccelerator(*accel);
    EXPECT_NE(text.find("task saxpy [root]"), std::string::npos);
    EXPECT_NE(text.find("loopctrl"), std::string::npos);
    EXPECT_NE(text.find("structure l1 [cache]"), std::string::npos);
    std::string dot = uir::toDot(*accel);
    EXPECT_NE(dot.find("digraph"), std::string::npos);
}

TEST(Sim, SaxpyTimingIsPlausible)
{
    SaxpyProgram p;
    auto accel = frontend::lowerToUir(p.m, "saxpy");
    MemoryImage mem(p.m);
    auto result = sim::simulate(*accel, mem);
    // 32 iterations of a pipelined loop with FP ops and cache misses:
    // more than 32 cycles, less than fully-serial upper bound.
    EXPECT_GT(result.cycles, 32u);
    EXPECT_LT(result.cycles, 32u * 400u);
    EXPECT_GT(result.stats.get("events"), 32u * 5u);
    EXPECT_GT(result.stats.get("cache.misses"), 0u);
}

TEST(Sim, MoreTilesDoNotSlowSerialLoop)
{
    // Structural sanity: adding tiles to a serial (carried-dep) loop
    // must not change functional results.
    ReduceProgram p;
    auto accel = frontend::lowerToUir(p.m, "reduce");
    uir::Task *loop = accel->taskByName("reduce.i.header");
    loop->setNumTiles(4);
    MemoryImage mem(p.m);
    std::vector<int32_t> xs(ReduceProgram::kN, 2);
    mem.writeInts(p.x, xs);
    auto result = sim::simulate(*accel, mem);
    EXPECT_EQ(result.outputs.at(0).asInt(), 2 * ReduceProgram::kN);
}

} // namespace muir
