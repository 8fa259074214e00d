#include "frontend/lower.hh"

#include <algorithm>
#include <map>
#include <set>

#include "ir/analysis/cfg.hh"
#include "ir/analysis/dominators.hh"
#include "ir/analysis/loop_info.hh"
#include "ir/analysis/memory_objects.hh"
#include "ir/printer.hh"
#include "support/logging.hh"
#include "support/strings.hh"

namespace muir::frontend
{

using ir::BasicBlock;
using ir::Instruction;
using ir::Op;
using uir::Node;
using uir::NodeKind;
using uir::Task;
using uir::TaskKind;

namespace
{

/** A Stage-1 task region (Algorithm 1, µIR_TaskGNodes entry). */
struct Region
{
    TaskKind kind;
    const ir::Function *fn = nullptr;
    /** For Loop regions. */
    ir::Loop *loop = nullptr;
    BasicBlock *exitBlock = nullptr;
    BasicBlock *bodyEntry = nullptr;
    BasicBlock *latch = nullptr;
    /** For Spawn regions: the detach terminator. */
    const Instruction *detach = nullptr;
    /** Full block set (for containment tests). */
    std::set<BasicBlock *> allBlocks;
    /** Blocks lowered by this region (allBlocks minus descendants). */
    std::vector<BasicBlock *> ownBlocks;
    Region *parent = nullptr;
    std::vector<Region *> children;
    std::string name;

    /** Filled during Stage 2. */
    Task *task = nullptr;
    std::vector<const ir::Value *> liveInValues;
    /** Escaping header phis, for Loop regions, in live-out order. */
    std::vector<const Instruction *> escapingPhis;
    /** The single ret value, for Root/Func regions. */
    const ir::Value *retValue = nullptr;
};

/** An optionally-"always" predicate value. */
struct Pred
{
    bool always = true;
    Node::PortRef ref;
};

/** Per-region lowering state. */
struct RegionCtx
{
    Region *region = nullptr;
    std::map<const ir::Value *, Node::PortRef> valueMap;
    std::map<const BasicBlock *, Pred> blockPred;
    std::map<const BasicBlock *, bool> blockReached;
    std::map<int64_t, Node *> intConsts;
    std::map<double, Node *> fpConsts;
    std::map<const ir::GlobalArray *, Node *> globalAddrs;
    /** Instructions absorbed into LoopControl (not lowered). */
    std::set<const Instruction *> absorbed;
    /** Carried next-values to wire up after the body is lowered. */
    std::vector<const ir::Value *> carriedNextValues;
    /** Most recent child call (connects SyncNode into the DAG). */
    Node *lastCall = nullptr;
    /** Shared i1 constant 1 for predicate negation. */
    Node *boolOne = nullptr;
};

/** Whole-lowering driver. */
class Lowering
{
  public:
    Lowering(const ir::Module &module, const LowerOptions &opts)
        : module_(module), opts_(opts)
    {
    }

    std::unique_ptr<uir::Accelerator> run(const std::string &kernel);

  private:
    /** Stage 1: build the region tree for one function. */
    Region *buildRegions(const ir::Function &fn, TaskKind root_kind);

    /** Stage 2: lower one region (children first). */
    void lowerRegion(Region &region);

    void matchLoopControl(Region &region, RegionCtx &ctx);
    void finalizeLoopControl(Region &region, RegionCtx &ctx);
    void lowerBlock(Region &region, RegionCtx &ctx, BasicBlock *bb);
    void lowerInst(Region &region, RegionCtx &ctx, const Instruction &inst,
                   const Pred &pred);
    Node *makeChildCall(Region &parent, RegionCtx &ctx, Region &child,
                        bool spawn, const Pred &pred);

    Node::PortRef mapValue(Region &region, RegionCtx &ctx,
                           const ir::Value *v);
    Pred predAnd(RegionCtx &ctx, const Pred &a, const Pred &b);
    Pred predOr(RegionCtx &ctx, const Pred &a, const Pred &b);
    Pred predNot(RegionCtx &ctx, const Pred &a);
    void mergeIntoBlock(RegionCtx &ctx, BasicBlock *target,
                        const Pred &contribution);
    Pred edgePred(RegionCtx &ctx, const Pred &src_pred, const Pred &cond,
                  bool negate);

    const ir::Module &module_;
    LowerOptions opts_;
    std::unique_ptr<uir::Accelerator> accel_;
    std::vector<std::unique_ptr<Region>> regions_;
    /** header block -> loop region (for ChildCall creation). */
    std::map<const BasicBlock *, Region *> loopEntry_;
    /** detach inst -> spawn region. */
    std::map<const Instruction *, Region *> detachRegion_;
    /** function -> func region root. */
    std::map<const ir::Function *, Region *> funcRegion_;
    std::map<const ir::Function *, std::unique_ptr<ir::MemoryObjects>>
        memObjectsByFn_;
    /** Keeps Loop* pointers referenced by regions alive. */
    struct FnAnalysis
    {
        ir::Cfg cfg;
        ir::DominatorTree dt;
        ir::LoopInfo li;
        explicit FnAnalysis(const ir::Function &fn)
            : cfg(fn), dt(cfg), li(cfg, dt)
        {
        }
    };
    std::map<const ir::Function *, std::unique_ptr<FnAnalysis>> analyses_;
};

std::unique_ptr<uir::Accelerator>
Lowering::run(const std::string &kernel)
{
    const ir::Function *fn = module_.function(kernel);
    if (fn == nullptr)
        muir_fatal("kernel function %s not found", kernel.c_str());

    std::string accel_name = opts_.name.empty() ? kernel : opts_.name;
    accel_ = std::make_unique<uir::Accelerator>(accel_name, &module_);

    // Baseline memory system: a shared L1 cache in front of DRAM. The
    // cache serves space 0 (and, as the default, every space no
    // scratchpad claims yet).
    uir::Structure *dram =
        accel_->addStructure(uir::StructureKind::Dram, "dram");
    dram->setLatency(opts_.dramLatency);
    uir::Structure *l1 =
        accel_->addStructure(uir::StructureKind::Cache, "l1");
    l1->setSizeKb(opts_.cacheSizeKb);
    l1->setMissLatency(opts_.dramLatency);
    l1->addSpace(0);

    if (opts_.sharedScratchpad) {
        uir::Structure *spad = accel_->addStructure(
            uir::StructureKind::Scratchpad, "spad_shared");
        spad->setLatency(1);
        spad->setBanks(2);
        spad->setPortsPerBank(2);
        unsigned total_kb = 0;
        for (const auto &g : module_.globals()) {
            unsigned kb = static_cast<unsigned>(
                (g->sizeBytes() + 1023) / 1024);
            if (kb > opts_.scratchpadMaxKb)
                continue;
            spad->addSpace(g->spaceId());
            total_kb += std::max(1u, kb);
        }
        spad->setSizeKb(std::max(1u, total_kb));
    }

    Region *root = buildRegions(*fn, TaskKind::Root);
    lowerRegion(*root);
    accel_->setRoot(root->task);
    return std::move(accel_);
}

Region *
Lowering::buildRegions(const ir::Function &fn, TaskKind root_kind)
{
    analyses_[&fn] = std::make_unique<FnAnalysis>(fn);
    const ir::Cfg &cfg = analyses_[&fn]->cfg;
    const ir::LoopInfo &li = analyses_[&fn]->li;
    memObjectsByFn_[&fn] = std::make_unique<ir::MemoryObjects>(fn);

    auto *root = regions_.emplace_back(std::make_unique<Region>()).get();
    root->kind = root_kind;
    root->fn = &fn;
    root->name = fn.name();
    for (BasicBlock *bb : cfg.rpo())
        root->allBlocks.insert(bb);

    // Loop regions, then spawn regions, in program order: task ids
    // follow this order, so it must not depend on heap addresses.
    std::vector<Region *> fn_regions;
    for (ir::Loop *loop : li.allLoops()) {
        auto *r = regions_.emplace_back(std::make_unique<Region>()).get();
        r->kind = TaskKind::Loop;
        r->fn = &fn;
        r->loop = loop;
        r->name = fmt("%s.%s", fn.name().c_str(),
                      loop->header->name().c_str());
        r->allBlocks = loop->blocks;
        muir_assert(loop->latches.size() == 1,
                    "loop %s: multiple latches unsupported",
                    loop->header->name().c_str());
        r->latch = loop->latches[0];
        const Instruction *hterm = loop->header->terminator();
        muir_assert(hterm && hterm->op() == Op::CondBr,
                    "loop %s: non-canonical header terminator",
                    loop->header->name().c_str());
        r->bodyEntry = hterm->successor(0);
        r->exitBlock = hterm->successor(1);
        fn_regions.push_back(r);
        loopEntry_[loop->header] = r;
    }

    // Spawn regions (one per detach).
    for (BasicBlock *bb : cfg.rpo()) {
        const Instruction *term = bb->terminator();
        if (!term || term->op() != Op::Detach)
            continue;
        auto *r = regions_.emplace_back(std::make_unique<Region>()).get();
        r->kind = TaskKind::Spawn;
        r->fn = &fn;
        r->detach = term;
        r->bodyEntry = term->successor(0);
        r->name = fmt("%s.%s.task", fn.name().c_str(),
                      term->successor(0)->name().c_str());
        for (BasicBlock *rb : ir::detachRegion(*term))
            r->allBlocks.insert(rb);
        detachRegion_[term] = r;
        fn_regions.push_back(r);
    }

    // Parenting: each non-root region's parent is the smallest other
    // region strictly containing its entry block. Regions are properly
    // nested so "smallest containing" is well defined.
    auto entry_of = [](Region *r) -> BasicBlock * {
        if (r->kind == TaskKind::Loop)
            return r->loop->header;
        return r->detach->parent(); // Block issuing the detach.
    };
    for (Region *r : fn_regions) {
        BasicBlock *probe = entry_of(r);
        Region *best = root;
        for (Region *other : fn_regions) {
            if (other == r || !other->allBlocks.count(probe))
                continue;
            // A loop contains its own header; skip self-containment
            // artifacts: for loops, the header probe sits inside the
            // loop itself, so exclude regions whose block set is the
            // probe's own region superset check below handles it since
            // other != r.
            if (other->kind == TaskKind::Loop &&
                other->loop->header == probe)
                continue;
            if (best == root ||
                other->allBlocks.size() < best->allBlocks.size())
                best = other;
        }
        r->parent = best;
        best->children.push_back(r);
    }

    // Own blocks: each block belongs to the smallest region holding it.
    for (BasicBlock *bb : cfg.rpo()) {
        Region *owner = root;
        for (Region *r : fn_regions) {
            if (!r->allBlocks.count(bb))
                continue;
            if (owner == root ||
                r->allBlocks.size() < owner->allBlocks.size())
                owner = r;
        }
        owner->ownBlocks.push_back(bb);
    }
    return root;
}

void
Lowering::lowerRegion(Region &region)
{
    for (Region *child : region.children)
        lowerRegion(*child);

    // Children are lowered first (their live-in lists must be final
    // before this region's ChildCalls are built), so the parent link
    // is patched here once this region's task exists.
    region.task = accel_->addTask(region.kind, region.name, nullptr);
    for (Region *child : region.children)
        child->task->setParentTask(region.task);
    RegionCtx ctx;
    ctx.region = &region;

    if (region.kind == TaskKind::Loop)
        matchLoopControl(region, ctx);

    // Seed entry predicate.
    BasicBlock *entry = nullptr;
    switch (region.kind) {
      case TaskKind::Loop:
        entry = region.bodyEntry;
        break;
      case TaskKind::Spawn:
        entry = region.bodyEntry;
        break;
      case TaskKind::Root:
      case TaskKind::Func:
        entry = region.fn->entry();
        break;
    }
    ctx.blockPred[entry] = Pred{};
    ctx.blockReached[entry] = true;

    // Lower own blocks in function RPO order (forward CFG).
    const ir::Cfg &cfg = analyses_.at(region.fn)->cfg;
    for (BasicBlock *bb : cfg.rpo()) {
        if (std::find(region.ownBlocks.begin(), region.ownBlocks.end(),
                      bb) == region.ownBlocks.end())
            continue;
        if (region.kind == TaskKind::Loop &&
            (bb == region.loop->header || bb == region.latch))
            continue; // Absorbed into LoopControl.
        if (!ctx.blockReached.count(bb))
            continue; // Dead within this region.
        lowerBlock(region, ctx, bb);
    }

    if (region.kind == TaskKind::Loop)
        finalizeLoopControl(region, ctx);

    // Root/Func ret value becomes live-out 0.
    if (region.retValue != nullptr &&
        !region.retValue->type().isVoid()) {
        Node *out = region.task->addLiveOut(region.retValue->type(),
                                            "ret");
        Node::PortRef ref = mapValue(region, ctx, region.retValue);
        out->addInput(ref.node, ref.out);
    }
}

void
Lowering::matchLoopControl(Region &region, RegionCtx &ctx)
{
    ir::Loop *loop = region.loop;
    BasicBlock *header = loop->header;
    BasicBlock *latch = region.latch;

    // Identify the preheader (the unique non-latch predecessor).
    BasicBlock *preheader = nullptr;
    for (BasicBlock *pred : header->predecessors()) {
        if (pred == latch)
            continue;
        muir_assert(preheader == nullptr,
                    "loop %s: multiple preheaders", header->name().c_str());
        preheader = pred;
    }
    muir_assert(preheader != nullptr, "loop %s: no preheader",
                header->name().c_str());

    // The header terminator: condbr(icmp slt iv end, body, exit).
    const Instruction *term = header->terminator();
    auto *cmp = dynamic_cast<const Instruction *>(term->operand(0));
    muir_assert(cmp && cmp->op() == Op::ICmpSlt,
                "loop %s: non-canonical exit condition",
                header->name().c_str());

    // Find the induction phi and carried phis.
    const Instruction *iv_phi = nullptr;
    std::vector<const Instruction *> carried;
    for (const auto &inst : header->insts()) {
        if (inst->op() != Op::Phi)
            break;
        if (cmp->operand(0) == inst.get())
            iv_phi = inst.get();
        else
            carried.push_back(inst.get());
    }
    muir_assert(iv_phi != nullptr, "loop %s: induction phi not found",
                header->name().c_str());

    auto incomingFrom = [](const Instruction *phi, const BasicBlock *bb) {
        for (unsigned i = 0; i < phi->numIncoming(); ++i)
            if (phi->incomingBlock(i) == bb)
                return phi->incomingValue(i);
        muir_panic("phi %%%s: no incoming from %s", phi->name().c_str(),
                   bb->name().c_str());
    };

    // iv.next must be add(iv, step) in the latch.
    auto *iv_next =
        dynamic_cast<const Instruction *>(incomingFrom(iv_phi, latch));
    muir_assert(iv_next && iv_next->op() == Op::Add &&
                    (iv_next->operand(0) == iv_phi ||
                     iv_next->operand(1) == iv_phi),
                "loop %s: non-canonical induction update",
                header->name().c_str());
    const ir::Value *step = iv_next->operand(0) == iv_phi
                                ? iv_next->operand(1)
                                : iv_next->operand(0);
    const ir::Value *begin = incomingFrom(iv_phi, preheader);
    const ir::Value *end = cmp->operand(1);

    // Latch may only hold the induction update and the back edge.
    for (const auto &inst : latch->insts()) {
        muir_assert(inst.get() == iv_next || inst->isTerminator(),
                    "loop %s: latch computes %s (non-canonical)",
                    header->name().c_str(),
                    ir::printInst(*inst).c_str());
        ctx.absorbed.insert(inst.get());
    }
    ctx.absorbed.insert(cmp);
    ctx.absorbed.insert(term);

    Node *lc = region.task->addNode(NodeKind::LoopControl, "loop");
    lc->setIrType(iv_phi->type());
    lc->setNumCarried(carried.size());
    lc->addInput(mapValue(region, ctx, begin).node,
                 mapValue(region, ctx, begin).out);
    lc->addInput(mapValue(region, ctx, end).node,
                 mapValue(region, ctx, end).out);
    lc->addInput(mapValue(region, ctx, step).node,
                 mapValue(region, ctx, step).out);
    for (const Instruction *phi : carried) {
        Node::PortRef init =
            mapValue(region, ctx, incomingFrom(phi, preheader));
        lc->addInput(init.node, init.out);
    }
    // Next-value slots are wired in finalizeLoopControl; remember what
    // they should resolve to.
    for (const Instruction *phi : carried)
        ctx.carriedNextValues.push_back(incomingFrom(phi, latch));

    // Map the phis to LoopControl outputs.
    ctx.valueMap[iv_phi] = {lc, 0};
    for (unsigned k = 0; k < carried.size(); ++k)
        ctx.valueMap[carried[k]] = {lc, k + 1};

    // Record which carried phis escape the loop (live-outs).
    for (const Instruction *phi : carried) {
        bool escapes = false;
        for (const Instruction *user : phi->users())
            if (!region.allBlocks.count(user->parent()))
                escapes = true;
        if (escapes)
            region.escapingPhis.push_back(phi);
    }
    // The induction variable may escape too (e.g. counting loops).
    {
        bool escapes = false;
        for (const Instruction *user : iv_phi->users()) {
            if (ctx.absorbed.count(user))
                continue;
            if (!region.allBlocks.count(user->parent()))
                escapes = true;
        }
        if (escapes)
            region.escapingPhis.push_back(iv_phi);
    }
}

void
Lowering::finalizeLoopControl(Region &region, RegionCtx &ctx)
{
    Node *lc = region.task->loopControl();
    for (const ir::Value *next : ctx.carriedNextValues) {
        Node::PortRef ref = mapValue(region, ctx, next);
        lc->addInput(ref.node, ref.out);
    }
    // Live-outs for escaping phis: the final carried value.
    for (const Instruction *phi : region.escapingPhis) {
        Node *out = region.task->addLiveOut(phi->type(),
                                            phi->name() + ".out");
        Node::PortRef ref = ctx.valueMap.at(phi);
        out->addInput(ref.node, ref.out);
    }
}

Node::PortRef
Lowering::mapValue(Region &region, RegionCtx &ctx, const ir::Value *v)
{
    auto it = ctx.valueMap.find(v);
    if (it != ctx.valueMap.end())
        return it->second;

    Node *node = nullptr;
    if (auto *c = dynamic_cast<const ir::Constant *>(v)) {
        if (c->isFloatConstant()) {
            auto [cit, inserted] = ctx.fpConsts.emplace(c->fpValue(),
                                                        nullptr);
            if (inserted)
                cit->second = region.task->addConstFp(c->fpValue());
            node = cit->second;
        } else {
            auto [cit, inserted] = ctx.intConsts.emplace(c->intValue(),
                                                         nullptr);
            if (inserted)
                cit->second = region.task->addConstInt(c->type(),
                                                       c->intValue());
            node = cit->second;
        }
    } else if (auto *g = dynamic_cast<const ir::GlobalArray *>(v)) {
        auto [git, inserted] = ctx.globalAddrs.emplace(g, nullptr);
        if (inserted)
            git->second = region.task->addGlobalAddr(g);
        node = git->second;
    } else {
        // Defined outside this region: becomes a live-in. (Arguments
        // always take this path.)
        node = region.task->addLiveIn(v->type(), v->name());
        region.liveInValues.push_back(v);
    }
    Node::PortRef ref{node, 0};
    ctx.valueMap[v] = ref;
    return ref;
}

Pred
Lowering::predAnd(RegionCtx &ctx, const Pred &a, const Pred &b)
{
    if (a.always)
        return b;
    if (b.always)
        return a;
    Node *n = ctx.region->task->addCompute(Op::And, ir::Type::i1(), "p.and");
    n->addInput(a.ref.node, a.ref.out);
    n->addInput(b.ref.node, b.ref.out);
    return Pred{false, {n, 0}};
}

Pred
Lowering::predOr(RegionCtx &ctx, const Pred &a, const Pred &b)
{
    if (a.always || b.always)
        return Pred{};
    Node *n = ctx.region->task->addCompute(Op::Or, ir::Type::i1(), "p.or");
    n->addInput(a.ref.node, a.ref.out);
    n->addInput(b.ref.node, b.ref.out);
    return Pred{false, {n, 0}};
}

Pred
Lowering::predNot(RegionCtx &ctx, const Pred &a)
{
    muir_assert(!a.always, "NOT of always-predicate");
    if (ctx.boolOne == nullptr)
        ctx.boolOne = ctx.region->task->addConstInt(ir::Type::i1(), 1);
    Node *n = ctx.region->task->addCompute(Op::Xor, ir::Type::i1(),
                                           "p.not");
    n->addInput(a.ref.node, a.ref.out);
    n->addInput(ctx.boolOne, 0);
    return Pred{false, {n, 0}};
}

void
Lowering::mergeIntoBlock(RegionCtx &ctx, BasicBlock *target,
                         const Pred &contribution)
{
    auto it = ctx.blockPred.find(target);
    if (it == ctx.blockPred.end()) {
        ctx.blockPred[target] = contribution;
    } else if (ctx.blockReached[target]) {
        it->second = predOr(ctx, it->second, contribution);
    } else {
        it->second = contribution;
    }
    ctx.blockReached[target] = true;
}

Pred
Lowering::edgePred(RegionCtx &ctx, const Pred &src_pred, const Pred &cond,
                   bool negate)
{
    Pred c = negate ? predNot(ctx, cond) : cond;
    return predAnd(ctx, src_pred, c);
}

Node *
Lowering::makeChildCall(Region &parent, RegionCtx &ctx, Region &child,
                        bool spawn, const Pred &pred)
{
    Node *call = parent.task->addChildCall(
        child.task, spawn, "call_" + child.task->name());
    for (const ir::Value *v : child.liveInValues) {
        Node::PortRef ref = mapValue(parent, ctx, v);
        call->addInput(ref.node, ref.out);
    }
    if (!pred.always)
        call->setGuard(pred.ref.node, pred.ref.out);
    ctx.lastCall = call;

    // Loop live-outs (escaping phis) become visible in the parent as
    // the call's output ports.
    for (unsigned k = 0; k < child.escapingPhis.size(); ++k)
        ctx.valueMap[child.escapingPhis[k]] = {call, k};
    return call;
}

void
Lowering::lowerBlock(Region &region, RegionCtx &ctx, BasicBlock *bb)
{
    Pred pred = ctx.blockPred.at(bb);

    // Join phis: fold incoming values with edge-predicate selects.
    // (Header phis of loop regions were absorbed by matchLoopControl.)
    for (const auto &inst : bb->insts()) {
        if (inst->op() != Op::Phi)
            break;
        muir_assert(inst->numIncoming() >= 1, "empty phi");
        Node::PortRef acc;
        bool first = true;
        for (unsigned i = 0; i < inst->numIncoming(); ++i) {
            BasicBlock *in_bb = inst->incomingBlock(i);
            muir_assert(std::find(region.ownBlocks.begin(),
                                  region.ownBlocks.end(), in_bb) !=
                            region.ownBlocks.end(),
                        "phi %%%s: incoming across region boundary",
                        inst->name().c_str());
            Node::PortRef val =
                mapValue(region, ctx, inst->incomingValue(i));
            if (first) {
                acc = val;
                first = false;
                continue;
            }
            // Edge-active predicate for this incoming edge.
            const Instruction *in_term = in_bb->terminator();
            Pred src = ctx.blockPred.count(in_bb) ? ctx.blockPred[in_bb]
                                                  : Pred{};
            Pred edge = src;
            if (in_term->op() == Op::CondBr) {
                Pred cond{false,
                          mapValue(region, ctx, in_term->operand(0))};
                bool taken_true = in_term->successor(0) == bb;
                edge = edgePred(ctx, src, cond, !taken_true);
            }
            if (edge.always) {
                // Unconditional later edge dominates: just take it.
                acc = val;
                continue;
            }
            Node *sel = region.task->addCompute(Op::Select, inst->type(),
                                                inst->name() + ".mux");
            sel->addInput(edge.ref.node, edge.ref.out);
            sel->addInput(val.node, val.out);
            sel->addInput(acc.node, acc.out);
            acc = {sel, 0};
        }
        ctx.valueMap[inst.get()] = acc;
    }

    for (const auto &inst : bb->insts()) {
        if (inst->op() == Op::Phi || ctx.absorbed.count(inst.get()))
            continue;
        lowerInst(region, ctx, *inst, pred);
    }
}

void
Lowering::lowerInst(Region &region, RegionCtx &ctx,
                    const Instruction &inst, const Pred &pred)
{
    Task *task = region.task;
    auto mapIn = [&](unsigned i) {
        return mapValue(region, ctx, inst.operand(i));
    };
    auto guardIf = [&](Node *n) {
        if (!pred.always)
            n->setGuard(pred.ref.node, pred.ref.out);
    };

    switch (inst.op()) {
      case Op::Load:
      case Op::TLoad: {
        unsigned space =
            memObjectsByFn_.at(region.fn)->spaceForAccess(inst);
        Node *n = task->addLoad(inst.type(), space, inst.name());
        Node::PortRef addr = mapIn(0);
        n->addInput(addr.node, addr.out);
        guardIf(n);
        ctx.valueMap[&inst] = {n, 0};
        return;
      }
      case Op::Store:
      case Op::TStore: {
        unsigned space =
            memObjectsByFn_.at(region.fn)->spaceForAccess(inst);
        Node *n = task->addStore(space, fmt("st%u", task->numNodes()));
        Node::PortRef val = mapIn(0);
        Node::PortRef addr = mapIn(1);
        n->addInput(val.node, val.out);
        n->addInput(addr.node, addr.out);
        guardIf(n);
        return;
      }
      case Op::Br: {
        BasicBlock *target = inst.successor(0);
        auto lit = loopEntry_.find(target);
        if (lit != loopEntry_.end()) {
            Region *loop_region = lit->second;
            makeChildCall(region, ctx, *loop_region, /*spawn=*/false,
                          pred);
            // Control continues at the loop's exit block.
            mergeIntoBlock(ctx, loop_region->exitBlock, pred);
        } else {
            mergeIntoBlock(ctx, target, pred);
        }
        return;
      }
      case Op::CondBr: {
        Pred cond{false, mapValue(region, ctx, inst.operand(0))};
        for (unsigned s = 0; s < 2; ++s) {
            BasicBlock *target = inst.successor(s);
            Pred edge = edgePred(ctx, pred, cond, s == 1);
            auto lit = loopEntry_.find(target);
            if (lit != loopEntry_.end()) {
                Region *loop_region = lit->second;
                makeChildCall(region, ctx, *loop_region, false, edge);
                mergeIntoBlock(ctx, loop_region->exitBlock, edge);
            } else {
                mergeIntoBlock(ctx, target, edge);
            }
        }
        return;
      }
      case Op::Detach: {
        Region *spawn_region = detachRegion_.at(&inst);
        makeChildCall(region, ctx, *spawn_region, /*spawn=*/true, pred);
        mergeIntoBlock(ctx, inst.successor(1), pred);
        return;
      }
      case Op::Reattach:
        return; // End of a spawn region's dataflow.
      case Op::Sync: {
        Node *n = task->addNode(NodeKind::SyncNode,
                                fmt("sync%u", task->numNodes()));
        n->setIrType(ir::Type::i1());
        if (ctx.lastCall != nullptr)
            n->addInput(ctx.lastCall, 0);
        guardIf(n);
        ctx.lastCall = n;
        mergeIntoBlock(ctx, inst.successor(0), pred);
        return;
      }
      case Op::Ret:
        muir_assert(region.retValue == nullptr,
                    "multiple value-returning rets in %s (non-canonical)",
                    region.fn->name().c_str());
        region.retValue =
            inst.numOperands() ? inst.operand(0) : nullptr;
        return;
      case Op::Call: {
        const ir::Function *callee = inst.callee();
        auto fit = funcRegion_.find(callee);
        if (fit == funcRegion_.end()) {
            Region *fr = buildRegions(*callee, TaskKind::Func);
            funcRegion_[callee] = fr;
            lowerRegion(*fr);
            fit = funcRegion_.find(callee);
        }
        Region *fr = fit->second;
        // Func live-ins start with out-of-region values which include
        // the callee's arguments; map arguments to the call operands.
        Node *call = task->addChildCall(fr->task, /*spawn=*/false,
                                        "call_" + callee->name());
        for (const ir::Value *v : fr->liveInValues) {
            const ir::Value *actual = v;
            if (auto *arg = dynamic_cast<const ir::Argument *>(v)) {
                muir_assert(arg->index() < inst.numOperands(),
                            "call arg mapping out of range");
                actual = inst.operand(arg->index());
            }
            Node::PortRef ref = mapValue(region, ctx, actual);
            call->addInput(ref.node, ref.out);
        }
        if (!pred.always)
            call->setGuard(pred.ref.node, pred.ref.out);
        ctx.lastCall = call;
        if (!inst.type().isVoid())
            ctx.valueMap[&inst] = {call, 0};
        return;
      }
      default: {
        muir_assert(ir::isComputeOp(inst.op()),
                    "lowerInst: unexpected op %s", ir::opName(inst.op()));
        Node *n = task->addCompute(inst.op(), inst.type(), inst.name());
        for (unsigned i = 0; i < inst.numOperands(); ++i) {
            Node::PortRef ref = mapIn(i);
            n->addInput(ref.node, ref.out);
        }
        ctx.valueMap[&inst] = {n, 0};
        return;
      }
    }
}

} // namespace

std::unique_ptr<uir::Accelerator>
lowerToUir(const ir::Module &module, const std::string &kernel,
           const LowerOptions &opts)
{
    Lowering lowering(module, opts);
    return lowering.run(kernel);
}

} // namespace muir::frontend
