/**
 * @file
 * Behaviour-level transform tests: loop unrolling correctness
 * (interpreter + lowered μIR equivalence), canonical-form
 * preservation, and the qualifying conditions.
 */
#include <gtest/gtest.h>

#include "frontend/lower.hh"
#include "ir/builder.hh"
#include "ir/interp.hh"
#include "ir/transforms/loop_unroll.hh"
#include "ir/verifier.hh"
#include "sim/simulator.hh"
#include "support/strings.hh"
#include "uir/verifier.hh"
#include "workloads/workload.hh"

namespace muir::ir
{

namespace
{

/** sum += x[i]*x[i] with a store per iteration. */
struct SquaresKernel
{
    Module m{"squares"};
    GlobalArray *x, *out;
    Function *fn;
    static constexpr int kN = 32;

    SquaresKernel()
    {
        x = m.addGlobal("x", Type::i32(), kN);
        out = m.addGlobal("out", Type::i32(), kN);
        fn = m.addFunction("squares", Type::i32());
        IRBuilder b(m);
        b.setInsertPoint(fn->addBlock("entry"));
        ForLoop loop(b, "i", b.i32(0), b.i32(kN), b.i32(1));
        Instruction *acc = loop.addCarried(b.i32(0), "acc");
        Value *xi = b.load(b.gep(x, loop.iv()), "xi");
        Value *sq = b.mul(xi, xi, "sq");
        b.store(sq, b.gep(out, loop.iv()));
        loop.setCarriedNext(acc, b.add(acc, sq, "acc.n"));
        loop.finish();
        b.ret(acc);
        verifyOrDie(m);
    }

    int64_t
    runGolden(std::vector<int32_t> *stores = nullptr)
    {
        Interpreter interp(m);
        std::vector<int32_t> data(kN);
        for (int i = 0; i < kN; ++i)
            data[i] = i - 7;
        interp.memory().writeInts(x, data);
        auto r = interp.run(*fn, {});
        if (stores)
            *stores = interp.memory().readInts(out);
        return r.asInt();
    }
};

} // namespace

TEST(LoopUnroll, FactorOneIsNoop)
{
    SquaresKernel k;
    UnrollOptions opts;
    opts.factor = 1;
    EXPECT_EQ(unrollLoops(*k.fn, opts), 0u);
}

TEST(LoopUnroll, UnrollsAndGrowsBody)
{
    SquaresKernel k;
    unsigned before = k.fn->numInsts();
    UnrollOptions opts;
    opts.factor = 4;
    EXPECT_EQ(unrollLoops(*k.fn, opts), 1u);
    EXPECT_TRUE(verify(k.m).empty()) << join(verify(k.m), "\n");
    EXPECT_GT(k.fn->numInsts(), before + 10);
}

TEST(LoopUnroll, PreservesInterpreterSemantics)
{
    SquaresKernel reference;
    std::vector<int32_t> want_stores;
    int64_t want = reference.runGolden(&want_stores);

    SquaresKernel unrolled;
    UnrollOptions opts;
    opts.factor = 4;
    ASSERT_EQ(unrollLoops(*unrolled.fn, opts), 1u);
    std::vector<int32_t> got_stores;
    int64_t got = unrolled.runGolden(&got_stores);
    EXPECT_EQ(want, got);
    EXPECT_EQ(want_stores, got_stores);
}

TEST(LoopUnroll, UnrolledLoopStillLowersCanonically)
{
    SquaresKernel k;
    UnrollOptions opts;
    opts.factor = 2;
    ASSERT_EQ(unrollLoops(*k.fn, opts), 1u);
    auto accel = frontend::lowerToUir(k.m, "squares");
    ASSERT_TRUE(uir::verify(*accel).empty())
        << join(uir::verify(*accel), "\n");

    // Simulate and compare against the golden reference.
    SquaresKernel reference;
    int64_t want = reference.runGolden();
    MemoryImage mem(k.m);
    std::vector<int32_t> data(SquaresKernel::kN);
    for (int i = 0; i < SquaresKernel::kN; ++i)
        data[i] = i - 7;
    mem.writeInts(k.x, data);
    auto result = sim::simulate(*accel, mem);
    ASSERT_EQ(result.outputs.size(), 1u);
    EXPECT_EQ(result.outputs[0].asInt(), want);
}

TEST(LoopUnroll, AmortizesLoopControlOverhead)
{
    // Unrolling by 4 quarters the loop-control firings; on a cheap
    // body the cycle count must drop.
    SquaresKernel base;
    auto a_base = frontend::lowerToUir(base.m, "squares");
    SquaresKernel unrolled;
    UnrollOptions opts;
    opts.factor = 4;
    unrollLoops(*unrolled.fn, opts);
    auto a_unrolled = frontend::lowerToUir(unrolled.m, "squares");

    auto runIt = [&](SquaresKernel &k, uir::Accelerator &a) {
        MemoryImage mem(k.m);
        std::vector<int32_t> data(SquaresKernel::kN, 3);
        mem.writeInts(k.x, data);
        return sim::simulate(a, mem).cycles;
    };
    EXPECT_LT(runIt(unrolled, *a_unrolled), runIt(base, *a_base));
}

TEST(LoopUnroll, SkipsNonDivisibleTripCounts)
{
    SquaresKernel k; // 32 iterations.
    UnrollOptions opts;
    opts.factor = 5;
    EXPECT_EQ(unrollLoops(*k.fn, opts), 0u);
}

TEST(LoopUnroll, SkipsOversizedBodies)
{
    SquaresKernel k;
    UnrollOptions opts;
    opts.factor = 2;
    opts.maxBodyInsts = 2;
    EXPECT_EQ(unrollLoops(*k.fn, opts), 0u);
}

TEST(LoopUnroll, SkipsDynamicBounds)
{
    // spmv's inner loop has load-dependent bounds: not unrollable.
    Module m("dyn");
    auto *bounds = m.addGlobal("bounds", Type::i32(), 2);
    auto *out = m.addGlobal("out", Type::i32(), 64);
    Function *fn = m.addFunction("dyn", Type::voidTy());
    IRBuilder b(m);
    b.setInsertPoint(fn->addBlock("entry"));
    Value *end = b.load(b.gep(bounds, b.i32(0)), "end");
    ForLoop loop(b, "i", b.i32(0), end, b.i32(1));
    b.store(loop.iv(), b.gep(out, loop.iv()));
    loop.finish();
    b.ret();
    verifyOrDie(m);
    UnrollOptions opts;
    opts.factor = 2;
    EXPECT_EQ(unrollLoops(*fn, opts), 0u);
}

TEST(LoopUnroll, InnermostOnlyInNests)
{
    // gemm: only the k loops (3 in 2mm? 1 here) qualify.
    auto w = workloads::buildWorkload("gemm");
    Function *fn = w.module->function("gemm");
    UnrollOptions opts;
    opts.factor = 2;
    EXPECT_EQ(unrollLoops(*fn, opts), 1u); // Just the k loop.
    EXPECT_TRUE(verify(*w.module).empty());

    // Still produces correct results end to end.
    auto accel = frontend::lowerToUir(*w.module, "gemm");
    MemoryImage mem(*w.module);
    w.bind(mem);
    sim::UirExecutor(*accel, mem, /*record_ddg=*/false).run();
    EXPECT_EQ(w.check(mem), "");
}

} // namespace muir::ir
