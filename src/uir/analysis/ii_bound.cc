#include "uir/analysis/ii_bound.hh"

#include <algorithm>
#include <set>
#include <vector>

#include "uir/analysis/footprint.hh"
#include "uir/analysis/value_range.hh"
#include "uir/delay_model.hh"

namespace muir::uir::analysis
{

namespace
{

uint64_t
satAdd(uint64_t a, uint64_t b)
{
    uint64_t out;
    return __builtin_add_overflow(a, b, &out) ? UINT64_MAX : out;
}

uint64_t
satMul(uint64_t a, uint64_t b)
{
    uint64_t out;
    return __builtin_mul_overflow(a, b, &out) ? UINT64_MAX : out;
}

bool
isNonEvent(const Node *n)
{
    // Constants and resolved global addresses emit no dynamic event;
    // chains through them schedule from cycle 0.
    return n->kind() == NodeKind::ConstNode ||
           n->kind() == NodeKind::GlobalAddr;
}

struct Builder
{
    const Accelerator &accel;
    const ValueRangeAnalysis &vr;
    const FootprintAnalysis &fp;
    std::map<const Task *, TaskBound> done;
    std::set<const Task *> inProgress;

    /** Guaranteed event latency of one firing of n (hit-path memory
     *  access; full child span for awaited calls). */
    uint64_t nodeWeight(const Node *n)
    {
        uint64_t w = nodeLatency(*n);
        switch (n->kind()) {
          case NodeKind::Load:
          case NodeKind::Store:
            // Predicated-off firings skip the access entirely.
            if (!n->guard().valid()) {
                const Structure *s =
                    accel.findStructureForSpace(n->memSpace());
                if (s != nullptr) {
                    unsigned wide = std::max(1u, s->wideWords());
                    unsigned beats =
                        (std::max(1u, n->accessWords()) + wide - 1) /
                        wide;
                    w += uint64_t(s->latency()) + beats - 1;
                }
            }
            break;
          case NodeKind::ChildCall:
            // Awaited calls resolve to the child's completion event.
            if (!n->guard().valid() && !n->isSpawn() &&
                n->callee() != nullptr &&
                !inProgress.count(n->callee()))
                w = satAdd(w, bound(*n->callee()).spanLb);
            break;
          default:
            break;
        }
        return w;
    }

    const TaskBound &bound(const Task &task)
    {
        auto it = done.find(&task);
        if (it != done.end())
            return it->second;
        inProgress.insert(&task);
        TaskBound b = compute(task);
        inProgress.erase(&task);
        return done.emplace(&task, std::move(b)).first->second;
    }

    TaskBound compute(const Task &task);
};

TaskBound
Builder::compute(const Task &task)
{
    TaskBound b;
    const Node *lc = task.loopControl();
    const TaskRangeFacts &tf = vr.of(task);

    // ---- Sync spawn attribution (sound only in the simple shape:
    // one sync whose outputs feed no other side-effecting node, so
    // program order fixes which spawns it joins). ----
    const Node *sole_sync = nullptr;
    bool sync_simple = false;
    {
        unsigned syncs = 0;
        for (const auto &n : task.nodes())
            if (n->kind() == NodeKind::SyncNode) {
                ++syncs;
                sole_sync = n.get();
            }
        if (syncs == 1) {
            sync_simple = true;
            for (const Node *user : sole_sync->users())
                if (user->kind() == NodeKind::Load ||
                    user->kind() == NodeKind::Store ||
                    user->kind() == NodeKind::ChildCall ||
                    user->kind() == NodeKind::SyncNode)
                    sync_simple = false;
        }
    }

    // ---- Longest weighted paths over the forward dataflow. ----
    // ungated: finish-time bound from cycle 0 (any chain).
    // gated:   finish-time bound relative to the dispatch finish
    //          (chains rooted at LiveIn or LoopControl, whose first
    //          events depend on the dispatch).
    // rec:     longest chain from a carried-value latch (LoopControl
    //          output >= 1), bounding the loop recurrence.
    std::map<const Node *, uint64_t> ungated, gated, rec;
    for (const Node *n : task.topoOrder()) {
        if (isNonEvent(n))
            continue;
        uint64_t w = nodeWeight(n);
        uint64_t u = 0;
        bool has_g = false;
        uint64_t g = 0;
        bool has_r = false;
        uint64_t r = 0;
        auto absorb = [&](const Node::PortRef &ref) {
            if (isNonEvent(ref.node))
                return;
            auto itu = ungated.find(ref.node);
            if (itu != ungated.end())
                u = std::max(u, itu->second);
            auto itg = gated.find(ref.node);
            if (itg != gated.end()) {
                has_g = true;
                g = std::max(g, itg->second);
            }
            auto itr = rec.find(ref.node);
            if (itr != rec.end()) {
                has_r = true;
                r = std::max(r, itr->second);
            }
            if (ref.node == lc && ref.out >= 1)
                has_r = true; // Chain starts at a carried latch.
        };
        if (n->kind() == NodeKind::LoopControl) {
            // First-iteration seed deps: begin/end/step and carried
            // inits only — the runtime seed has no guard edge.
            unsigned limit = n->numForwardInputs();
            for (unsigned i = 0; i < limit; ++i)
                absorb(n->input(i));
            has_g = true; // Seed deps include the dispatch event.
        } else {
            n->forEachForwardDep(absorb);
        }
        if (n->kind() == NodeKind::LiveIn)
            has_g = true; // LiveIn events depend on the dispatch.
        if (n == sole_sync && sync_simple) {
            // The sync joins every unguarded spawn that precedes it
            // in program (id) order.
            for (const Node *call : task.childCalls()) {
                if (!call->isSpawn() || call->guard().valid() ||
                    call->callee() == nullptr ||
                    call->id() >= n->id() ||
                    inProgress.count(call->callee()))
                    continue;
                uint64_t child = bound(*call->callee()).spanLb;
                auto itu = ungated.find(call);
                if (itu != ungated.end())
                    u = std::max(u, satAdd(itu->second, child));
                auto itg = gated.find(call);
                if (itg != gated.end()) {
                    has_g = true;
                    g = std::max(g, satAdd(itg->second, child));
                }
            }
        }
        ungated[n] = satAdd(u, w);
        if (has_g)
            gated[n] = satAdd(g, w);
        if (has_r && n != lc)
            rec[n] = satAdd(r, w);
    }

    // ---- II components. ----
    if (lc != nullptr) {
        b.iiControl = lc->ctrlStages();
        for (unsigned k = 0; k < lc->numCarried(); ++k) {
            const Node *producer =
                lc->input(3 + lc->numCarried() + k).node;
            auto itr = rec.find(producer);
            if (itr != rec.end())
                b.iiRecurrence = std::max(b.iiRecurrence, itr->second);
        }
    }
    unsigned loads = 0, stores = 0;
    for (const auto &n : task.nodes()) {
        if (isNonEvent(n.get()) || n->kind() == NodeKind::LiveIn)
            continue;
        b.iiNode = std::max<uint64_t>(b.iiNode,
                                      nodeInitiationInterval(*n));
        if (n->guard().valid())
            continue;
        if (n->kind() == NodeKind::Load)
            ++loads;
        else if (n->kind() == NodeKind::Store)
            ++stores;
    }
    b.iiJunction =
        std::max<uint64_t>(loads / std::max(1u,
                                            task.junctionReadPorts()),
                           stores /
                               std::max(1u, task.junctionWritePorts()));
    for (const auto &s : accel.structures()) {
        uint64_t beats = fp.iterationBeats(task, *s);
        uint64_t ports = uint64_t(std::max(1u, s->banks())) *
                         std::max(1u, s->portsPerBank());
        b.iiBank = std::max(b.iiBank, beats / ports);
    }
    // Child-queue backpressure. Sound only when the measured trip
    // count is statically exact and every invocation of the callee
    // comes from this task's sequential loop (so queue-window chains
    // stay within one invocation's events).
    if (lc != nullptr && tf.tripExact && tf.trip >= 2) {
        for (const Node *call : task.childCalls()) {
            const Task *c = call->callee();
            if (c == nullptr || c == &task || call->isSpawn() ||
                call->guard().valid() || inProgress.count(c))
                continue;
            bool sole_caller = true;
            for (const auto &other : accel.tasks())
                for (const Node *oc : other->childCalls())
                    if (oc != call && oc->callee() == c)
                        sole_caller = false;
            if (!sole_caller)
                continue;
            uint64_t chains = (tf.trip - 1) / c->queueWindow();
            uint64_t q = satMul(chains, bound(*c).spanLb) /
                         (tf.trip - 1);
            b.iiQueue = std::max(b.iiQueue, q);
        }
    }

    b.iiLb = 1;
    b.iiBinding = "trivial";
    if (lc != nullptr) {
        struct
        {
            const char *name;
            uint64_t value;
        } comps[] = {
            {"control", b.iiControl},   {"recurrence", b.iiRecurrence},
            {"node-ii", b.iiNode},      {"junction", b.iiJunction},
            {"bank", b.iiBank},         {"queue", b.iiQueue},
        };
        for (const auto &c : comps)
            if (c.value > b.iiLb) {
                b.iiLb = c.value;
                b.iiBinding = c.name;
            }
    }

    // ---- Invocation span and whole-run path bounds. ----
    uint64_t span = 0;
    for (const auto &n : task.nodes()) {
        bool tail = false;
        switch (n->kind()) {
          case NodeKind::Store:
          case NodeKind::ChildCall:
            // Guarded-off stores/calls are not awaited.
            tail = !n->guard().valid() &&
                   !(n->kind() == NodeKind::ChildCall && n->isSpawn());
            break;
          case NodeKind::SyncNode:
          case NodeKind::LiveOut:
            tail = true;
            break;
          default:
            break;
        }
        if (!tail)
            continue;
        auto itg = gated.find(n.get());
        if (itg != gated.end())
            span = std::max(span, itg->second);
    }
    if (lc != nullptr) {
        uint64_t ctrl = lc->ctrlStages();
        if (tf.tripExact)
            span = std::max(span, satMul(tf.trip + 1, ctrl));
        else
            span = std::max(span, ctrl);
        if (tf.tripExact && tf.trip >= 1) {
            uint64_t core = std::max({b.iiRecurrence, b.iiNode,
                                      b.iiJunction, b.iiBank});
            span = std::max(span, satMul(tf.trip - 1, core));
            if (tf.trip >= 2 && b.iiQueue > 0)
                span = std::max(span, satMul(b.iiQueue, tf.trip - 1));
        }
    }
    b.spanLb = span;
    uint64_t path = span;
    for (const auto &[n, depth] : ungated)
        path = std::max(path, depth);
    b.pathLb = path;
    return b;
}

} // namespace

std::unique_ptr<IiBoundAnalysis>
IiBoundAnalysis::run(const Accelerator &accel, AnalysisManager &am)
{
    Builder builder{accel, am.get<ValueRangeAnalysis>(),
                    am.get<FootprintAnalysis>(), {}, {}};
    for (const auto &task : accel.tasks())
        builder.bound(*task);
    auto result = std::make_unique<IiBoundAnalysis>();
    result->perTask_ = std::move(builder.done);
    return result;
}

const TaskBound &
IiBoundAnalysis::of(const Task &task) const
{
    auto it = perTask_.find(&task);
    muir_assert(it != perTask_.end(),
                "ii-bound: task %s not in analyzed design",
                task.name().c_str());
    return it->second;
}

} // namespace muir::uir::analysis
