#include "sim/exec.hh"

#include <algorithm>
#include <bit>
#include <cstring>

#include "ir/op_eval.hh"
#include "sim/fault.hh"
#include "support/logging.hh"

namespace muir::sim
{

using ir::RuntimeValue;
using uir::Node;
using uir::NodeKind;
using uir::Task;

uint32_t
Ddg::beginInvocation(uint16_t task)
{
    invTask.push_back(task);
    awaitingEntry_ = numInvocations;
    return numInvocations++;
}

uint32_t
Ddg::append(uint32_t inv, uint32_t node, uint8_t event_flags,
            std::span<const uint64_t> event_deps, bool dedupe,
            size_t mem_from, uint64_t access_addr, uint16_t access_words)
{
    muir_assert(numEvents < kNoId32,
                "DDG: events exceed the 32-bit id space");
    const uint32_t id = numEvents;
    const auto first = static_cast<std::ptrdiff_t>(depStart.back());
    for (size_t i = 0; i < event_deps.size(); ++i) {
        if (event_deps[i] == kNoEvent)
            continue;
        muir_assert(event_deps[i] < id, "DDG dep not earlier than event");
        auto d = static_cast<uint32_t>(event_deps[i]);
        if (dedupe &&
            std::find(deps.begin() + first, deps.end(), d) != deps.end())
            continue;
        size_t k = deps.size();
        if (k % 64 == 0)
            memDepBits.push_back(0);
        if (i >= mem_from)
            memDepBits.back() |= uint64_t(1) << (k % 64);
        deps.push_back(d);
    }
    muir_assert(deps.size() < kNoId32,
                "DDG: deps exceed the 32-bit CSR space");
    depStart.push_back(static_cast<uint32_t>(deps.size()));
    if (!(event_flags & kEvCompletion) && inv == awaitingEntry_) {
        event_flags |= kEvEntry;
        awaitingEntry_ = kNoId32;
    }
    addr.push_back(access_addr);
    words.push_back(access_words);
    flags.push_back(event_flags);
    invocation.push_back(inv);
    nodeOf.push_back(node);
    return numEvents++;
}

UirExecutor::UirExecutor(const uir::Accelerator &accel,
                         ir::MemoryImage &mem, bool record_ddg)
    : accel_(accel), mem_(mem), record_(record_ddg),
      tasks_(accel.tasks().size())
{
    muir_assert(!record_ || tasks_.size() < kNoId16,
                "DDG: tasks exceed the 16-bit id space");
    unsigned max_words = 1;
    for (const auto &task : accel.tasks()) {
        TaskState &ts = tasks_.at(task->id());
        for (const auto &n : task->nodes())
            ts.idSlots = std::max(ts.idSlots, n->id() + 1);
        if (!record_)
            continue;
        ts.denseNode.assign(ts.idSlots, kNoId32);
        for (const auto &n : task->nodes()) {
            ts.denseNode[n->id()] =
                static_cast<uint32_t>(ddg_.nodes.size());
            ddg_.nodes.push_back(n.get());
            if (n->kind() == NodeKind::Load ||
                n->kind() == NodeKind::Store)
                max_words = std::max(max_words, n->accessWords());
        }
    }
    if (record_) {
        // A range-checked access starts at word addr / 4, at most
        // sizeBytes / 4, and covers at most max_words words.
        size_t words = mem.sizeBytes() / 4 + max_words;
        wordStore_.assign(words, kNoId32);
        wordRead_.assign(words, kNoId32);
        written_.assign((mem.sizeBytes() / 4 + 64) / 64, 0);
    }
}

std::vector<RuntimeValue>
unsharedCopy(const std::vector<RuntimeValue> &values)
{
    std::vector<RuntimeValue> copy = values;
    for (RuntimeValue &v : copy)
        if (v.tensor)
            v.tensor = std::make_shared<std::vector<float>>(*v.tensor);
    return copy;
}

RuntimeValue
UirExecutor::zeroOf(const ir::Type &type)
{
    switch (type.kind()) {
      case ir::Type::Kind::Float:
        return RuntimeValue::makeFloat(0.0);
      case ir::Type::Kind::Ptr:
        return RuntimeValue::makePtr(0);
      case ir::Type::Kind::Tensor:
        return RuntimeValue::makeTensor(
            type.rows(), type.cols(),
            std::vector<float>(type.tensorElems(), 0.0f));
      default:
        return RuntimeValue::makeInt(0);
    }
}

RuntimeValue
UirExecutor::valueOf(Ctx &ctx, const Node::PortRef &ref)
{
    const auto &slots = ctx.vals.at(ref.node->id());
    muir_assert(ref.out < slots.size(),
                "value of %s output %u not computed",
                ref.node->name().c_str(), ref.out);
    return slots[ref.out];
}

uint64_t
UirExecutor::eventOf(Ctx &ctx, const Node::PortRef &ref)
{
    // Carried outputs of the loop control have their own per-iteration
    // latch events (see invoke()'s loop driver).
    if (ref.node->kind() == NodeKind::LoopControl && ref.out > 0 &&
        ref.out - 1 < ctx.lcCarried.size())
        return ctx.lcCarried[ref.out - 1];
    return ctx.evs.at(ref.node->id());
}

bool
UirExecutor::guardOn(Ctx &ctx, const Node &node)
{
    if (!node.guard().valid())
        return true;
    return valueOf(ctx, node.guard()).asInt() != 0;
}

uint64_t
UirExecutor::emit(Ctx &ctx, const Node *node,
                  std::span<const uint64_t> deps, uint8_t flags)
{
    if (!record_)
        return kNoEvent;
    return ddg_.append(ctx.inv, nodeId(ctx, *node), flags, deps,
                       /*dedupe=*/true);
}

std::vector<RuntimeValue>
UirExecutor::run(const std::vector<RuntimeValue> &args)
{
    InvocationResult result = invoke(*accel_.root(), args, kNoEvent);
    if (record_) {
        ddg_.outputs = unsharedCopy(result.liveOutValues);
        ddg_.firings = firings_;
        // Whole words, read back from the image: a word's bytes no
        // store wrote keep the value every replay's image starts with.
        const std::vector<uint8_t> &bytes = mem_.bytes();
        ddg_.writes.clear();
        for (size_t i = 0; i < written_.size(); ++i)
            for (uint64_t bits = written_[i]; bits; bits &= bits - 1) {
                uint64_t word = i * 64 + std::countr_zero(bits);
                uint32_t value = 0;
                std::memcpy(&value, bytes.data() + word * 4,
                            std::min<size_t>(4, bytes.size() - word * 4));
                ddg_.writes.push_back(
                    {static_cast<uint32_t>(word), value});
            }
    }
    return result.liveOutValues;
}

UirExecutor::InvocationResult
UirExecutor::invoke(const Task &task, const std::vector<RuntimeValue> &args,
                    uint64_t dispatch_event)
{
    if (inj_)
        inj_->checkDepth(depth_);
    muir_assert(++depth_ < 256, "task invocation depth exceeded");
    muir_assert(args.size() == task.liveIns().size(),
                "task %s: %zu args for %zu live-ins", task.name().c_str(),
                args.size(), task.liveIns().size());

    Ctx ctx;
    ctx.state = &tasks_[task.id()];
    ctx.inv = record_ ? ddg_.beginInvocation(
                            static_cast<uint16_t>(task.id()))
                      : 0;
    ctx.vals.assign(ctx.state->idSlots, {});
    ctx.evs.assign(ctx.state->idSlots, kNoEvent);

    if (ctx.state->order.empty())
        ctx.state->order = task.executionOrder();
    const auto &order = ctx.state->order;

    // Interface and constant nodes evaluate once per invocation.
    for (const Node *n : order) {
        switch (n->kind()) {
          case NodeKind::LiveIn:
            ctx.vals[n->id()] = {args[n->liveIndex()]};
            ctx.evs[n->id()] = emit(ctx, n, {&dispatch_event, 1});
            ++firings_;
            break;
          case NodeKind::ConstNode:
            ctx.vals[n->id()] = {n->constIsFloat()
                                     ? RuntimeValue::makeFloat(n->constFp())
                                     : RuntimeValue::makeInt(n->constInt())};
            break;
          case NodeKind::GlobalAddr:
            ctx.vals[n->id()] = {
                RuntimeValue::makePtr(mem_.baseOf(n->global()))};
            break;
          default:
            break;
        }
    }
    if (Node *lc = task.loopControl()) {
        // ---- Loop task: run iterations (§3.5). ----
        unsigned carried = lc->numCarried();
        int64_t iv = valueOf(ctx, lc->input(0)).asInt();
        int64_t end = valueOf(ctx, lc->input(1)).asInt();
        int64_t step = valueOf(ctx, lc->input(2)).asInt();
        if (inj_)
            inj_->checkLoopStep(step, task.name());
        muir_assert(step > 0, "loop %s: non-positive step",
                    task.name().c_str());

        std::vector<RuntimeValue> carried_vals;
        // Events producing the carried value consumed next iteration:
        // the init producers initially, then the body's next-values.
        std::vector<uint64_t> carried_srcs;
        std::vector<uint64_t> seed_deps{dispatch_event,
                                        eventOf(ctx, lc->input(0)),
                                        eventOf(ctx, lc->input(1)),
                                        eventOf(ctx, lc->input(2))};
        for (unsigned k = 0; k < carried; ++k) {
            carried_vals.push_back(valueOf(ctx, lc->input(3 + k)));
            carried_srcs.push_back(eventOf(ctx, lc->input(3 + k)));
        }

        uint64_t prev_lc_event = kNoEvent;
        while (iv < end) {
            // LoopControl fires: iv advances along the control-only
            // recurrence (prev control event), NOT the carried chain.
            seed_deps.push_back(prev_lc_event);
            uint64_t lc_event = emit(ctx, lc, seed_deps);
            ++firings_;
            if (inj_)
                inj_->checkFirings(firings_);
            seed_deps.clear();

            // Carried-value latches: value k becomes available when
            // the control fires AND its previous producer finished.
            ctx.lcCarried.assign(carried, kNoEvent);
            for (unsigned k = 0; k < carried; ++k) {
                if (!record_)
                    continue;
                // A pure register: a 0-latency completion-like event.
                uint64_t latch_deps[] = {lc_event, carried_srcs[k]};
                ctx.lcCarried[k] =
                    ddg_.append(ctx.inv, kNoId32, kEvCompletion,
                                latch_deps, /*dedupe=*/true);
            }

            std::vector<RuntimeValue> lc_outs;
            lc_outs.push_back(RuntimeValue::makeInt(iv));
            for (unsigned k = 0; k < carried; ++k)
                lc_outs.push_back(carried_vals[k]);
            ctx.vals[lc->id()] = std::move(lc_outs);
            ctx.evs[lc->id()] = lc_event;

            evalBody(ctx, order);

            // Read back the carried next values for the next iteration.
            for (unsigned k = 0; k < carried; ++k) {
                const Node::PortRef &next = lc->input(3 + carried + k);
                carried_vals[k] = valueOf(ctx, next);
                carried_srcs[k] = eventOf(ctx, next);
            }
            prev_lc_event = lc_event;
            iv += step;
        }

        // Final (failing) bound check: makes exit values available.
        std::vector<uint64_t> exit_deps = seed_deps;
        exit_deps.push_back(prev_lc_event);
        for (uint64_t e : carried_srcs)
            exit_deps.push_back(e);
        uint64_t exit_event = emit(ctx, lc, exit_deps);
        ++firings_;
        ctx.tail.push_back(exit_event);
        ctx.lcCarried.clear();
        std::vector<RuntimeValue> final_outs;
        final_outs.push_back(RuntimeValue::makeInt(iv));
        for (unsigned k = 0; k < carried; ++k)
            final_outs.push_back(carried_vals[k]);
        ctx.vals[lc->id()] = std::move(final_outs);
        ctx.evs[lc->id()] = exit_event;

        // Live-outs (escaping carried values / iv).
        for (const Node *n : order) {
            if (n->kind() == NodeKind::LiveOut)
                evalNode(ctx, *n);
        }
    } else {
        // ---- Plain task: single pass over the dataflow. ----
        evalBody(ctx, order);
        for (const Node *n : order)
            if (n->kind() == NodeKind::LiveOut)
                evalNode(ctx, *n);
    }

    InvocationResult result;
    for (Node *out : task.liveOuts()) {
        result.liveOutValues.push_back(valueOf(ctx, {out, 0}));
        result.liveOutEvents.push_back(ctx.evs[out->id()]);
        ctx.tail.push_back(ctx.evs[out->id()]);
    }
    // Synthetic completion event covering the whole invocation subtree.
    // Its deps are sorted and unique; kNoEvent sorts last.
    if (record_) {
        std::sort(ctx.tail.begin(), ctx.tail.end());
        ctx.tail.erase(std::unique(ctx.tail.begin(), ctx.tail.end()),
                       ctx.tail.end());
        if (ctx.tail.empty() || ctx.tail.front() == kNoEvent)
            ctx.tail.assign(1, dispatch_event);
        result.completionEvent =
            ddg_.append(ctx.inv, kNoId32, kEvCompletion | kEvDone,
                        ctx.tail, /*dedupe=*/false);
    }
    result.outstanding = std::move(ctx.outstanding);
    --depth_;
    return result;
}

void
UirExecutor::evalBody(Ctx &ctx, const std::vector<Node *> &order)
{
    for (const Node *n : order) {
        switch (n->kind()) {
          case NodeKind::LiveIn:
          case NodeKind::LiveOut:
          case NodeKind::ConstNode:
          case NodeKind::GlobalAddr:
          case NodeKind::LoopControl:
            continue; // Handled by invoke().
          default:
            evalNode(ctx, *n);
        }
    }
}

void
UirExecutor::evalNode(Ctx &ctx, const Node &node)
{
    ++firings_;
    if (inj_)
        inj_->checkFirings(firings_);
    // Data deps in input order, then the guard (recording only). The
    // buffer is shared by every firing: a ChildCall records its
    // dispatch before invoke() recurses into the next evalNode.
    std::vector<uint64_t> &deps = depScratch_;
    deps.clear();
    if (record_) {
        for (const auto &ref : node.inputs())
            deps.push_back(eventOf(ctx, ref));
        if (node.guard().valid())
            deps.push_back(eventOf(ctx, node.guard()));
    }

    switch (node.kind()) {
      case NodeKind::Compute: {
        RuntimeValue result;
        if (node.op() == ir::Op::GEP) {
            uint64_t base = valueOf(ctx, node.input(0)).asPtr();
            int64_t index = valueOf(ctx, node.input(1)).asInt();
            unsigned elem = node.irType().pointee().sizeBytes();
            result = RuntimeValue::makePtr(
                base + static_cast<uint64_t>(index) * elem);
        } else {
            std::vector<RuntimeValue> operands;
            operands.reserve(node.numInputs());
            for (const auto &ref : node.inputs())
                operands.push_back(valueOf(ctx, ref));
            if (inj_ &&
                (node.op() == ir::Op::SDiv ||
                 node.op() == ir::Op::SRem) &&
                operands.size() > 1 &&
                operands[1].kind == RuntimeValue::Kind::Int)
                inj_->checkDivisor(operands[1].i);
            result = ir::applyPureOp(node.op(), operands, node.irType());
        }
        ctx.vals[node.id()] = {std::move(result)};
        uint64_t id = emit(ctx, &node, deps);
        ctx.evs[node.id()] = id;
        if (inj_)
            inj_->corruptValue(id, ctx.vals[node.id()]);
        return;
      }
      case NodeKind::Fused: {
        std::vector<RuntimeValue> ext;
        ext.reserve(node.numInputs());
        for (const auto &ref : node.inputs())
            ext.push_back(valueOf(ctx, ref));
        std::vector<RuntimeValue> internal;
        internal.reserve(node.microOps().size());
        for (const auto &mop : node.microOps()) {
            std::vector<RuntimeValue> operands;
            operands.reserve(mop.srcs.size());
            for (int src : mop.srcs) {
                if (src < 0)
                    operands.push_back(ext.at(-src - 1));
                else
                    operands.push_back(internal.at(src));
            }
            if (mop.op == ir::Op::GEP) {
                uint64_t base = operands.at(0).asPtr();
                int64_t index = operands.at(1).asInt();
                unsigned elem = mop.type.pointee().sizeBytes();
                internal.push_back(RuntimeValue::makePtr(
                    base + static_cast<uint64_t>(index) * elem));
            } else {
                if (inj_ &&
                    (mop.op == ir::Op::SDiv ||
                     mop.op == ir::Op::SRem) &&
                    operands.size() > 1 &&
                    operands[1].kind == RuntimeValue::Kind::Int)
                    inj_->checkDivisor(operands[1].i);
                internal.push_back(
                    ir::applyPureOp(mop.op, operands, mop.type));
            }
        }
        ctx.vals[node.id()] = {internal.back()};
        uint64_t id = emit(ctx, &node, deps);
        ctx.evs[node.id()] = id;
        if (inj_)
            inj_->corruptValue(id, ctx.vals[node.id()]);
        return;
      }
      case NodeKind::Load: {
        if (!guardOn(ctx, node)) {
            // Predicated off: fire for flow control, poison the output.
            ctx.vals[node.id()] = {zeroOf(node.irType())};
            uint64_t id = emit(ctx, &node, deps);
            ctx.evs[node.id()] = id;
            if (inj_)
                inj_->corruptValue(id, ctx.vals[node.id()]);
            return;
        }
        uint64_t addr = valueOf(ctx, node.input(0)).asPtr();
        unsigned words = node.accessWords();
        RuntimeValue v;
        const ir::Type &t = node.irType();
        if (inj_) {
            unsigned span = t.isTensor() ? t.tensorElems() * 4
                            : t.isFloat() ? 4
                                          : t.sizeBytes();
            inj_->checkAccess(addr, span, mem_);
        }
        if (t.isTensor()) {
            std::vector<float> data(t.tensorElems());
            for (unsigned k = 0; k < t.tensorElems(); ++k)
                data[k] = mem_.loadFloat(addr + k * 4);
            v = RuntimeValue::makeTensor(t.rows(), t.cols(),
                                         std::move(data));
        } else if (t.isFloat()) {
            v = RuntimeValue::makeFloat(mem_.loadFloat(addr));
        } else {
            v = RuntimeValue::makeInt(mem_.loadInt(addr, t.sizeBytes()));
        }
        ctx.vals[node.id()] = {std::move(v)};
        if (record_) {
            // Memory-ordering (RAW) edges follow the data deps and are
            // flagged memory-only: the conflict observer needs to know
            // which orderings only exist because of the memory system.
            // A store that is already a data dep stays a data dep; a
            // store read through several words is listed once per word.
            const size_t data = deps.size();
            for (unsigned w = 0; w < words; ++w) {
                uint64_t s = wordStore_[(addr >> 2) + w];
                if (s != kNoId32 &&
                    std::find(deps.begin(), deps.begin() + data, s) ==
                        deps.begin() + data)
                    deps.push_back(s);
            }
            uint32_t id =
                ddg_.append(ctx.inv, nodeId(ctx, node), kEvLoad, deps,
                            /*dedupe=*/false, data, addr,
                            static_cast<uint16_t>(words));
            ctx.evs[node.id()] = id;
            if (inj_)
                inj_->corruptValue(id, ctx.vals[node.id()]);
            muir_assert(reads_.size() + words < kNoId32,
                        "DDG: reads exceed the 32-bit id space");
            for (unsigned w = 0; w < words; ++w) {
                uint64_t word = (addr >> 2) + w;
                reads_.push_back({id, wordRead_[word]});
                wordRead_[word] = static_cast<uint32_t>(reads_.size() - 1);
            }
        }
        return;
      }
      case NodeKind::Store: {
        if (!guardOn(ctx, node)) {
            ctx.evs[node.id()] = emit(ctx, &node, deps);
            ctx.vals[node.id()] = {RuntimeValue::makeInt(0)};
            return;
        }
        RuntimeValue value = valueOf(ctx, node.input(0));
        uint64_t addr = valueOf(ctx, node.input(1)).asPtr();
        unsigned words = node.accessWords();
        const ir::Type &t = node.input(0).node->outputType(
            node.input(0).out);
        // The bytes the store writes, which for a tensor need not be
        // the accessWords() its record entry covers.
        const unsigned span =
            value.kind == RuntimeValue::Kind::Tensor
                ? static_cast<unsigned>(value.tensor->size() * 4)
            : value.kind == RuntimeValue::Kind::Float ? 4
                                                      : t.sizeBytes();
        if (inj_)
            inj_->checkAccess(addr, span, mem_);
        if (value.kind == RuntimeValue::Kind::Tensor) {
            for (size_t k = 0; k < value.tensor->size(); ++k)
                mem_.storeFloat(addr + k * 4, (*value.tensor)[k]);
        } else if (value.kind == RuntimeValue::Kind::Float) {
            mem_.storeFloat(addr, static_cast<float>(value.f));
        } else {
            mem_.storeInt(addr, t.sizeBytes(), value.i);
        }
        if (record_) {
            // Memory-only edges follow the data deps: per word, WAW on
            // its last store, then WAR on each read since, oldest first.
            const size_t data = deps.size();
            for (unsigned w = 0; w < words; ++w) {
                uint64_t word = (addr >> 2) + w;
                if (wordStore_[word] != kNoId32)
                    deps.push_back(wordStore_[word]);
                size_t oldest = deps.size();
                for (uint32_t r = wordRead_[word]; r != kNoId32;
                     r = reads_[r].prev)
                    deps.push_back(reads_[r].event);
                std::reverse(deps.begin() + oldest, deps.end());
            }
            uint32_t id =
                ddg_.append(ctx.inv, nodeId(ctx, node), kEvStore, deps,
                            /*dedupe=*/true, data, addr,
                            static_cast<uint16_t>(words));
            ctx.evs[node.id()] = id;
            ctx.tail.push_back(id);
            for (unsigned w = 0; w < words; ++w) {
                wordStore_[(addr >> 2) + w] = id;
                wordRead_[(addr >> 2) + w] = kNoId32;
            }
            for (uint64_t w = addr >> 2; w * 4 < addr + span; ++w)
                written_[w >> 6] |= uint64_t(1) << (w & 63);
        }
        ctx.vals[node.id()] = {RuntimeValue::makeInt(0)};
        return;
      }
      case NodeKind::ChildCall: {
        unsigned outs = node.numOutputs();
        if (!guardOn(ctx, node)) {
            std::vector<RuntimeValue> zeros;
            for (unsigned k = 0; k < outs; ++k)
                zeros.push_back(zeroOf(node.outputType(k)));
            ctx.vals[node.id()] = std::move(zeros);
            ctx.evs[node.id()] = emit(ctx, &node, deps);
            return;
        }
        // Dispatch event first so the child's entry can depend on it.
        // The task-queue slot it waits for is compileDdg's to derive.
        uint64_t dispatch = emit(ctx, &node, deps, kEvDispatch);
        std::vector<RuntimeValue> args;
        args.reserve(node.numInputs());
        for (const auto &ref : node.inputs())
            args.push_back(valueOf(ctx, ref));
        InvocationResult child = invoke(*node.callee(), args, dispatch);

        if (node.isSpawn()) {
            ctx.vals[node.id()] = {RuntimeValue::makeInt(1)};
            ctx.evs[node.id()] = dispatch;
            ctx.outstanding.push_back(child.completionEvent);
            for (uint64_t e : child.outstanding)
                ctx.outstanding.push_back(e);
        } else {
            std::vector<RuntimeValue> outs_vals;
            if (node.callee()->liveOuts().empty()) {
                outs_vals.push_back(RuntimeValue::makeInt(1));
                ctx.evs[node.id()] = child.completionEvent;
            } else {
                outs_vals = child.liveOutValues;
                // Consumers key off the call node's single event slot;
                // use the completion so all outputs are ready. (Finer
                // per-output events cost little accuracy here because
                // live-outs complete together at loop exit.)
                ctx.evs[node.id()] = child.completionEvent;
            }
            ctx.vals[node.id()] = std::move(outs_vals);
            ctx.tail.push_back(child.completionEvent);
            for (uint64_t e : child.outstanding)
                ctx.outstanding.push_back(e);
        }
        return;
      }
      case NodeKind::SyncNode: {
        for (uint64_t e : ctx.outstanding)
            deps.push_back(e);
        ctx.outstanding.clear();
        ctx.vals[node.id()] = {RuntimeValue::makeInt(1)};
        uint64_t id = emit(ctx, &node, deps);
        ctx.evs[node.id()] = id;
        ctx.tail.push_back(id);
        return;
      }
      case NodeKind::LiveOut: {
        ctx.vals[node.id()] = {valueOf(ctx, node.input(0))};
        ctx.evs[node.id()] = emit(ctx, &node, deps);
        return;
      }
      default:
        muir_panic("evalNode: unexpected kind %s on %s",
                   nodeKindName(node.kind()), node.name().c_str());
    }
}

} // namespace muir::sim
