/**
 * @file
 * The R001 race fixture shared by the μlint tests and the output pins:
 * a Cilk-style parallel loop lowered through the real front end.
 */
#pragma once

#include <memory>
#include <vector>

#include "frontend/lower.hh"
#include "ir/builder.hh"
#include "ir/interp.hh"
#include "ir/verifier.hh"

namespace muir
{

/**
 * Every iteration loads in[i] and stores it to out[same_slot ? 0 : i].
 * same_slot=true is a textbook determinacy race.
 */
struct SpawnKernel
{
    ir::Module m{"spawnk"};
    ir::GlobalArray *in, *out;
    int n;

    SpawnKernel(int elems, bool same_slot) : n(elems)
    {
        in = m.addGlobal("in", ir::Type::i32(), elems);
        out = m.addGlobal("out", ir::Type::i32(), elems);
        ir::Function *fn = m.addFunction("spawnk", ir::Type::voidTy());
        ir::IRBuilder b(m);
        b.setInsertPoint(fn->addBlock("entry"));
        ir::ForLoop loop(b, "i", b.i32(0), b.i32(elems), b.i32(1),
                         /*parallel=*/true);
        ir::Value *v = b.load(b.gep(in, loop.iv()), "v");
        ir::Value *slot = same_slot ? b.i32(0) : loop.iv();
        b.store(v, b.gep(out, slot));
        loop.finish();
        b.ret();
        ir::verifyOrDie(m);
    }

    std::unique_ptr<uir::Accelerator> lower()
    {
        return frontend::lowerToUir(m, "spawnk", {});
    }

    /** Fill in[] with 1..n. */
    void bind(ir::MemoryImage &mem) const
    {
        std::vector<int32_t> data(n);
        for (int i = 0; i < n; ++i)
            data[i] = i + 1;
        mem.writeInts(in, data);
    }
};

} // namespace muir
