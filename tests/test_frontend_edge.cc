/**
 * @file
 * Front-end and executor edge cases: zero-trip loops, loops guarded by
 * conditionals, empty parallel loops, degenerate bounds from memory,
 * nested spawn/sync interleavings, and value plumbing through multiple
 * task levels.
 */
#include <gtest/gtest.h>

#include "frontend/lower.hh"
#include "ir/builder.hh"
#include "ir/verifier.hh"
#include "sim/simulator.hh"
#include "support/strings.hh"
#include "uir/verifier.hh"

namespace muir::frontend
{

using namespace ir;

TEST(FrontendEdge, ZeroTripLoop)
{
    Module m("zt");
    auto *out = m.addGlobal("out", Type::i32(), 4);
    Function *fn = m.addFunction("zt", Type::i32());
    IRBuilder b(m);
    b.setInsertPoint(fn->addBlock("entry"));
    ForLoop loop(b, "i", b.i32(5), b.i32(5), b.i32(1)); // 0 iterations.
    Instruction *acc = loop.addCarried(b.i32(77), "acc");
    loop.setCarriedNext(acc, b.add(acc, b.i32(1)));
    b.store(loop.iv(), b.gep(out, b.i32(0)));
    loop.finish();
    b.ret(acc);
    verifyOrDie(m);

    auto accel = lowerToUir(m, "zt");
    MemoryImage mem(m);
    auto result = sim::simulate(*accel, mem);
    // Zero iterations: the carried value keeps its init.
    ASSERT_EQ(result.outputs.size(), 1u);
    EXPECT_EQ(result.outputs[0].asInt(), 77);
    // The body store never fired.
    EXPECT_EQ(mem.readInts(out)[0], 0);
    EXPECT_GT(result.cycles, 0u);
}

TEST(FrontendEdge, DynamicZeroBoundFromMemory)
{
    Module m("dz");
    auto *n = m.addGlobal("n", Type::i32(), 1);
    auto *out = m.addGlobal("out", Type::i32(), 8);
    Function *fn = m.addFunction("dz", Type::voidTy());
    IRBuilder b(m);
    b.setInsertPoint(fn->addBlock("entry"));
    Value *end = b.load(b.gep(n, b.i32(0)), "end");
    ForLoop loop(b, "i", b.i32(0), end, b.i32(1));
    b.store(b.i32(1), b.gep(out, loop.iv()));
    loop.finish();
    b.ret();
    verifyOrDie(m);

    auto accel = lowerToUir(m, "dz");
    MemoryImage mem(m);
    mem.writeInts(n, {0});
    sim::UirExecutor(*accel, mem, /*record_ddg=*/false).run();
    for (int32_t v : mem.readInts(out))
        EXPECT_EQ(v, 0);
}

TEST(FrontendEdge, LoopUnderConditional)
{
    // if (flag) { for i: out[i] = i; }  — a guarded child call.
    Module m("cl");
    auto *flag = m.addGlobal("flag", Type::i32(), 1);
    auto *out = m.addGlobal("out", Type::i32(), 8);
    Function *fn = m.addFunction("cl", Type::voidTy());
    IRBuilder b(m);
    BasicBlock *entry = fn->addBlock("entry");
    BasicBlock *then_bb = fn->addBlock("then");
    BasicBlock *done = fn->addBlock("done");
    b.setInsertPoint(entry);
    Value *f = b.load(b.gep(flag, b.i32(0)), "f");
    b.condBr(b.icmp(Op::ICmpNe, f, b.i32(0)), then_bb, done);
    b.setInsertPoint(then_bb);
    ForLoop loop(b, "i", b.i32(0), b.i32(8), b.i32(1));
    b.store(loop.iv(), b.gep(out, loop.iv()));
    loop.finish();
    b.br(done);
    b.setInsertPoint(done);
    b.ret();
    verifyOrDie(m);

    auto accel = lowerToUir(m, "cl");
    ASSERT_TRUE(uir::verify(*accel).empty())
        << join(uir::verify(*accel), "\n");

    // flag = 0: loop must not run.
    {
        MemoryImage mem(m);
        mem.writeInts(flag, {0});
        sim::UirExecutor(*accel, mem, /*record_ddg=*/false).run();
        for (int32_t v : mem.readInts(out))
            EXPECT_EQ(v, 0);
    }
    // flag = 1: loop runs.
    {
        MemoryImage mem(m);
        mem.writeInts(flag, {1});
        sim::UirExecutor(*accel, mem, /*record_ddg=*/false).run();
        auto data = mem.readInts(out);
        for (int i = 0; i < 8; ++i)
            EXPECT_EQ(data[i], i);
    }
}

TEST(FrontendEdge, TwoSequentialParallelLoopsWithSyncs)
{
    // pfor a[i] = i; sync; pfor b[i] = a[i] * 2; sync — the second
    // loop must observe the first one's stores.
    Module m("seq");
    auto *a = m.addGlobal("a", Type::i32(), 16);
    auto *b2 = m.addGlobal("b", Type::i32(), 16);
    Function *fn = m.addFunction("seq", Type::voidTy());
    IRBuilder b(m);
    b.setInsertPoint(fn->addBlock("entry"));
    {
        ForLoop l1(b, "p", b.i32(0), b.i32(16), b.i32(1), true);
        b.store(l1.iv(), b.gep(a, l1.iv()));
        l1.finish();
    }
    {
        ForLoop l2(b, "q", b.i32(0), b.i32(16), b.i32(1), true);
        Value *v = b.load(b.gep(a, l2.iv()), "v");
        b.store(b.mul(v, b.i32(2)), b.gep(b2, l2.iv()));
        l2.finish();
    }
    b.ret();
    verifyOrDie(m);

    auto accel = lowerToUir(m, "seq");
    ASSERT_TRUE(uir::verify(*accel).empty());
    MemoryImage mem(m);
    auto result = sim::simulate(*accel, mem);
    auto data = mem.readInts(b2);
    for (int i = 0; i < 16; ++i)
        EXPECT_EQ(data[i], 2 * i);
    EXPECT_GT(result.cycles, 16u);
}

TEST(FrontendEdge, CarriedValueThroughThreeLevels)
{
    // sum over i of (sum over j of (i + j)) — inner live-out feeds the
    // outer carried chain across a task boundary.
    Module m("tri");
    Function *fn = m.addFunction("tri", Type::i32());
    IRBuilder b(m);
    b.setInsertPoint(fn->addBlock("entry"));
    ForLoop li(b, "i", b.i32(0), b.i32(6), b.i32(1));
    Instruction *outer = li.addCarried(b.i32(0), "outer");
    ForLoop lj(b, "j", b.i32(0), b.i32(4), b.i32(1));
    Instruction *inner = lj.addCarried(b.i32(0), "inner");
    lj.setCarriedNext(inner, b.add(inner, b.add(li.iv(), lj.iv())));
    lj.finish();
    li.setCarriedNext(outer, b.add(outer, inner));
    li.finish();
    b.ret(outer);
    verifyOrDie(m);

    int64_t want = 0;
    for (int i = 0; i < 6; ++i)
        for (int j = 0; j < 4; ++j)
            want += i + j;

    auto accel = lowerToUir(m, "tri");
    MemoryImage mem(m);
    auto result = sim::simulate(*accel, mem);
    ASSERT_EQ(result.outputs.size(), 1u);
    EXPECT_EQ(result.outputs[0].asInt(), want);
}

TEST(FrontendEdge, InductionVariableEscapesLoop)
{
    // Counting loop whose final iv is returned.
    Module m("iv");
    auto *n = m.addGlobal("n", Type::i32(), 1);
    Function *fn = m.addFunction("iv", Type::i32());
    IRBuilder b(m);
    b.setInsertPoint(fn->addBlock("entry"));
    Value *end = b.load(b.gep(n, b.i32(0)), "end");
    ForLoop loop(b, "i", b.i32(0), end, b.i32(3));
    loop.finish();
    b.ret(loop.iv());
    verifyOrDie(m);

    auto accel = lowerToUir(m, "iv");
    MemoryImage mem(m);
    mem.writeInts(n, {10});
    auto outs = sim::UirExecutor(*accel, mem, /*record_ddg=*/false).run();
    ASSERT_EQ(outs.size(), 1u);
    EXPECT_EQ(outs[0].asInt(), 12); // 0,3,6,9 -> exits at 12.
}

TEST(FrontendEdge, GuardedStoreUnderDoubleNesting)
{
    // for i: for j: if ((i+j) % 2) out[i*4+j] = 9;
    Module m("gd");
    auto *out = m.addGlobal("out", Type::i32(), 16);
    Function *fn = m.addFunction("gd", Type::voidTy());
    IRBuilder b(m);
    b.setInsertPoint(fn->addBlock("entry"));
    ForLoop li(b, "i", b.i32(0), b.i32(4), b.i32(1));
    ForLoop lj(b, "j", b.i32(0), b.i32(4), b.i32(1));
    BasicBlock *odd = fn->addBlock("odd");
    BasicBlock *cont = fn->addBlock("cont");
    Value *par = b.srem(b.add(li.iv(), lj.iv()), b.i32(2), "par");
    b.condBr(b.icmp(Op::ICmpNe, par, b.i32(0)), odd, cont);
    b.setInsertPoint(odd);
    b.store(b.i32(9),
            b.gep(out, b.add(b.mul(li.iv(), b.i32(4)), lj.iv())));
    b.br(cont);
    b.setInsertPoint(cont);
    lj.finish();
    li.finish();
    b.ret();
    verifyOrDie(m);

    auto accel = lowerToUir(m, "gd");
    MemoryImage mem(m);
    sim::UirExecutor(*accel, mem, /*record_ddg=*/false).run();
    auto data = mem.readInts(out);
    for (int i = 0; i < 4; ++i)
        for (int j = 0; j < 4; ++j)
            EXPECT_EQ(data[i * 4 + j], (i + j) % 2 ? 9 : 0)
                << i << "," << j;
}

TEST(FrontendEdge, SpawnInsideSerialLoopInsideParallelLoop)
{
    // pfor i { for j { spawn { out[i*4+j] = i*10+j } } } — three-level
    // task nesting with spawns at the innermost level.
    Module m("nest3");
    auto *out = m.addGlobal("out", Type::i32(), 16);
    Function *fn = m.addFunction("nest3", Type::voidTy());
    IRBuilder b(m);
    b.setInsertPoint(fn->addBlock("entry"));
    ForLoop li(b, "i", b.i32(0), b.i32(4), b.i32(1), /*parallel=*/true);
    ForLoop lj(b, "j", b.i32(0), b.i32(4), b.i32(1));
    BasicBlock *task = fn->addBlock("work");
    BasicBlock *cont = fn->addBlock("cont2");
    b.detach(task, cont);
    b.setInsertPoint(task);
    b.store(b.add(b.mul(li.iv(), b.i32(10)), lj.iv()),
            b.gep(out, b.add(b.mul(li.iv(), b.i32(4)), lj.iv())));
    b.reattach(cont);
    b.setInsertPoint(cont);
    lj.finish();
    li.finish();
    b.ret();
    verifyOrDie(m);

    auto accel = lowerToUir(m, "nest3");
    ASSERT_TRUE(uir::verify(*accel).empty())
        << join(uir::verify(*accel), "\n");
    EXPECT_EQ(accel->tasks().size(), 5u); // root, pfor, row spawn, for, spawn.
    MemoryImage mem(m);
    auto result = sim::simulate(*accel, mem);
    auto data = mem.readInts(out);
    for (int i = 0; i < 4; ++i)
        for (int j = 0; j < 4; ++j)
            EXPECT_EQ(data[i * 4 + j], i * 10 + j);
    EXPECT_GT(result.cycles, 10u);
}

} // namespace muir::frontend
