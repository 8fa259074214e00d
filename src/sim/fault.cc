#include "sim/fault.hh"

#include <algorithm>
#include <cstring>
#include <iterator>
#include <sstream>

#include "sim/compiled_ddg.hh"
#include "sim/profile.hh"
#include "sim/simulator.hh"
#include "support/json.hh"
#include "support/logging.hh"
#include "support/parallel.hh"
#include "support/strings.hh"
#include "uir/accelerator.hh"

namespace muir::sim
{

using ir::RuntimeValue;

// ------------------------------------------------------------- taxonomy

const char *
faultKindName(FaultKind kind)
{
    switch (kind) {
      case FaultKind::TokenDrop: return "tokendrop";
      case FaultKind::TokenDup: return "tokendup";
      case FaultKind::StuckValid: return "stuckvalid";
      case FaultKind::DataFlip: return "dataflip";
      case FaultKind::MemFlip: return "memflip";
      case FaultKind::DramTimeout: return "dramtimeout";
      case FaultKind::LostSpawn: return "lostspawn";
      case FaultKind::LostSync: return "lostsync";
      case FaultKind::Mix: return "mix";
      case FaultKind::kCount: break;
    }
    return "?";
}

const char *
outcomeName(Outcome outcome)
{
    switch (outcome) {
      case Outcome::Masked: return "masked";
      case Outcome::SDC: return "sdc";
      case Outcome::Detected: return "detected";
      case Outcome::Hang: return "hang";
      case Outcome::kCount: break;
    }
    return "?";
}

namespace
{

/** Most DramTimeout attempts a plan may ask for (the backoff doubles). */
constexpr unsigned kMaxDramAttempts = 16;

std::string
validKindNames()
{
    std::string out;
    for (unsigned k = 0; k < unsigned(FaultKind::kCount); ++k) {
        if (k)
            out += ", ";
        out += faultKindName(static_cast<FaultKind>(k));
    }
    return out;
}

} // namespace

bool
parseFaultSpec(const std::string &text, FaultSpec &out, std::string *error)
{
    auto fail = [&](const std::string &msg) {
        if (error)
            *error = msg;
        return false;
    };
    FaultSpec spec;
    auto segs = split(text, ':');
    if (segs.empty() || segs[0].empty())
        return fail("empty fault spec");

    std::string head = segs[0];
    auto at = head.find('@');
    std::string kind_s = head.substr(0, at);
    bool found = false;
    for (unsigned k = 0; k < unsigned(FaultKind::kCount); ++k) {
        if (kind_s == faultKindName(static_cast<FaultKind>(k))) {
            spec.kind = static_cast<FaultKind>(k);
            found = true;
            break;
        }
    }
    if (!found)
        return fail("unknown fault kind '" + kind_s +
                    "' (valid: " + validKindNames() + ")");
    if (at != std::string::npos &&
        !parseU64(head.substr(at + 1), spec.site))
        return fail("bad site '" + head.substr(at + 1) +
                    "' (want a decimal number)");

    for (size_t i = 1; i < segs.size(); ++i) {
        auto eq = segs[i].find('=');
        if (eq == std::string::npos)
            return fail("bad option '" + segs[i] + "' (want key=value)");
        std::string key = segs[i].substr(0, eq);
        uint64_t v = 0;
        if (!parseU64(segs[i].substr(eq + 1), v) || v > ~0u)
            return fail("bad value in '" + segs[i] + "'");
        if (key == "bit")
            spec.bit = static_cast<unsigned>(v);
        else if (key == "edge")
            spec.edge = static_cast<unsigned>(v);
        else if (key == "attempts" && v <= kMaxDramAttempts)
            spec.attempts = static_cast<unsigned>(v);
        else if (key == "attempts")
            return fail(fmt("attempts %llu exceeds %u",
                            static_cast<unsigned long long>(v),
                            kMaxDramAttempts));
        else
            return fail("unknown option '" + key +
                        "' (valid: bit, edge, attempts)");
    }
    out = spec;
    return true;
}

std::string
renderFaultSpec(const FaultSpec &spec)
{
    std::string out = faultKindName(spec.kind);
    if (spec.site != FaultSpec::kAutoSite)
        out += "@" + std::to_string(spec.site);
    if (spec.bit != FaultSpec::kAuto)
        out += ":bit=" + std::to_string(spec.bit);
    if (spec.edge != FaultSpec::kAuto)
        out += ":edge=" + std::to_string(spec.edge);
    if (spec.attempts != FaultSpec::kAuto)
        out += ":attempts=" + std::to_string(spec.attempts);
    return out;
}

// ----------------------------------------------- functional-layer hooks

void
flipBit(RuntimeValue &value, unsigned bit)
{
    using Kind = RuntimeValue::Kind;
    switch (value.kind) {
      case Kind::Int:
        value.i ^= int64_t(1) << (bit % 32);
        break;
      case Kind::Float: {
        // Flip in the 32-bit float representation the datapath carries.
        float f = static_cast<float>(value.f);
        uint32_t u;
        std::memcpy(&u, &f, 4);
        u ^= 1u << (bit % 32);
        std::memcpy(&f, &u, 4);
        value.f = f;
        break;
      }
      case Kind::Ptr:
        // Low address bits only: wild upper-bit flips would make every
        // pointer fault trivially detectable by the bus guard.
        value.ptr ^= uint64_t(1) << (bit % 20);
        break;
      case Kind::Tensor: {
        if (!value.tensor || value.tensor->empty())
            return;
        // Copy-on-write: the shared buffer may feed other consumers of
        // the same golden value in an aliasing-free world.
        auto copy =
            std::make_shared<std::vector<float>>(*value.tensor);
        size_t elem = (bit >> 5) % copy->size();
        uint32_t u;
        std::memcpy(&u, &(*copy)[elem], 4);
        u ^= 1u << (bit % 32);
        std::memcpy(&(*copy)[elem], &u, 4);
        value.tensor = std::move(copy);
        break;
      }
    }
}

void
FaultInjector::checkAccess(uint64_t addr, unsigned bytes,
                           const ir::MemoryImage &mem) const
{
    if (!mem.inRange(addr, bytes))
        throw FaultAbort{Outcome::Detected,
                         fmt("bus error: %u-byte access at 0x%llx outside"
                             " the %llu-byte data image",
                             bytes, static_cast<unsigned long long>(addr),
                             static_cast<unsigned long long>(
                                 mem.sizeBytes()))};
}

void
FaultInjector::checkDivisor(int64_t divisor) const
{
    if (divisor == 0)
        throw FaultAbort{Outcome::Detected, "divide trap: zero divisor"};
}

void
FaultInjector::checkFirings(uint64_t firings) const
{
    if (plan_.maxFirings && firings > plan_.maxFirings)
        throw FaultAbort{
            Outcome::Hang,
            fmt("runaway execution: %llu firings exceed the %llu budget",
                static_cast<unsigned long long>(firings),
                static_cast<unsigned long long>(plan_.maxFirings))};
}

void
FaultInjector::checkDepth(unsigned depth) const
{
    // Below the executor's own hard limit of 256, so injected runs
    // abort recoverably instead of tripping the assert.
    if (depth >= 200)
        throw FaultAbort{Outcome::Hang,
                         "runaway recursion: invocation depth reached "
                         "200"};
}

void
FaultInjector::checkLoopStep(int64_t step, const std::string &task) const
{
    if (step <= 0)
        throw FaultAbort{Outcome::Detected,
                         fmt("corrupted loop step %lld in task %s",
                             static_cast<long long>(step), task.c_str())};
}

// -------------------------------------------------------------- watchdog

HangDiagnosis
diagnoseHang(const CompiledDdg &cd, const std::vector<uint32_t> &pending,
             uint64_t processed)
{
    HangDiagnosis diag;
    diag.hung = true;
    diag.scheduled = processed;
    diag.total = cd.numEvents;
    const uint32_t n = cd.numEvents;
    const Record &rec = *cd.record;

    auto taskOf = [&](uint64_t id) {
        return cd.tasks[rec.invTask[rec.invocation[id]]].task->name();
    };
    auto nodeOf = [&](uint64_t id) -> std::string {
        const uir::Node *node = cd.node(static_cast<uint32_t>(id));
        return node ? node->name() : "<completion>";
    };
    auto edgeKind = [&](uint64_t id, uint64_t d) -> std::string {
        if (d == cd.queueSlotDep(id))
            return "queue";
        for (uint32_t k = rec.depStart[id]; k < rec.depStart[id + 1]; ++k)
            if (rec.deps[k] == d && rec.isMemDep(k))
                return "memory";
        if (rec.flags[id] & kEvEntry)
            return "spawn";
        return "data";
    };
    // First input of @p id (CompiledDdg::input order) still unfinished.
    auto firstPending = [&](uint64_t id) -> uint64_t {
        for (uint32_t k = 0, m = cd.numInputs(id); k < m; ++k)
            if (pending[cd.input(id, k)] != 0)
                return cd.input(id, k);
        return kNoEvent;
    };
    // The input of @p id whose dependents omit it: its token never
    // arrives.
    auto lostInput = [&](uint64_t id) -> uint64_t {
        for (uint32_t k = 0, m = cd.numInputs(id); k < m; ++k) {
            const uint32_t d = cd.input(id, k);
            bool arrives = false;
            cd.forEachDependent(d, [&](uint32_t c) { arrives |= c == id; });
            if (!arrives)
                return d;
        }
        return kNoEvent;
    };
    auto blockedOn = [&](uint64_t id, uint64_t dep,
                         bool starved) -> HangDiagnosis::BlockedEdge {
        HangDiagnosis::BlockedEdge be;
        be.event = id;
        be.task = taskOf(id);
        be.node = nodeOf(id);
        be.waitingOn = dep;
        be.tokenLost = starved;
        if (dep != kNoEvent) {
            be.depTask = taskOf(dep);
            be.depNode = nodeOf(dep);
            be.kind = edgeKind(id, dep);
        }
        return be;
    };

    constexpr size_t kMaxReported = 8;
    // Starved events first: every dependency completed, yet a token is
    // still missing — the signature of a lost token, and the root cause
    // everything else transitively waits on.
    for (uint64_t id = 0; id < n && diag.blocked.size() < kMaxReported;
         ++id) {
        if (pending[id] == 0 || firstPending(id) != kNoEvent)
            continue;
        diag.blocked.push_back(blockedOn(id, lostInput(id), true));
    }
    // Then a sample of transitively blocked waiters.
    for (uint64_t id = 0; id < n && diag.blocked.size() < kMaxReported;
         ++id) {
        if (pending[id] == 0)
            continue;
        uint64_t culprit = firstPending(id);
        if (culprit == kNoEvent)
            continue; // Starved: already reported above.
        diag.blocked.push_back(blockedOn(id, culprit, false));
    }

    // Wait chain: from the latest blocked event down to the root cause.
    // The DDG is a DAG (deps always reference earlier events), so the
    // walk terminates at a starved event — deadlock here is always
    // starvation, never a circular wait.
    uint64_t cur = kNoEvent;
    for (uint64_t id = n; id-- > 0;) {
        if (pending[id] > 0) {
            cur = id;
            break;
        }
    }
    for (; cur != kNoEvent; cur = firstPending(cur))
        diag.waitChain.push_back(cur);
    return diag;
}

std::string
HangDiagnosis::render() const
{
    std::ostringstream os;
    if (budgetExceeded)
        os << "watchdog: cycle budget exceeded (budget " << budget
           << "): " << scheduled << " of " << total
           << " events scheduled\n";
    else
        os << "watchdog: deadlock: ready queue drained with " << scheduled
           << " of " << total << " events scheduled\n";
    for (const auto &b : blocked) {
        os << "  " << (b.tokenLost ? "starved" : "blocked") << ": task '"
           << b.task << "' node '" << b.node << "' (event " << b.event
           << ")";
        if (b.waitingOn != kNoEvent) {
            os << " waiting on " << b.kind << " edge from task '"
               << b.depTask << "' node '" << b.depNode << "' (event "
               << b.waitingOn << ")";
            if (b.tokenLost)
                os << " -- producer finished but the token never "
                      "arrived";
        }
        os << "\n";
    }
    if (!waitChain.empty()) {
        os << "  wait chain: ";
        for (size_t i = 0; i < waitChain.size(); ++i) {
            if (i)
                os << " -> ";
            os << "e" << waitChain[i];
        }
        os << "\n";
    }
    return os.str();
}

// ------------------------------------------------ schedule-level faults

bool
isScheduleFault(FaultKind kind)
{
    return kind < FaultKind::Mix && kind != FaultKind::DataFlip &&
           kind != FaultKind::MemFlip;
}

namespace
{

/**
 * The index a schedule-level fault replays: a copy of the golden
 * index's timing half that shares the golden record until an edit
 * reaches the record, which then gets a private copy.
 */
struct FaultIndex
{
    CompiledDdg cd;
    std::shared_ptr<Record> owned;
    /** Per-event node ids when an event has a private node. */
    std::vector<uint32_t> nodeOf;

    Record &
    record()
    {
        if (!owned) {
            owned = std::make_shared<Record>(*cd.record);
            cd.record = owned;
        }
        return *owned;
    }
};

/** Remove @p e from @p p's record dependents: every occurrence, or
 *  one. */
void
eraseRecordDependent(Record &rec, uint32_t p, uint32_t e, bool every)
{
    auto [lo, hi] =
        std::equal_range(rec.dependents.begin() + rec.depdStart[p],
                         rec.dependents.begin() + rec.depdStart[p + 1], e);
    muir_assert(lo != hi, "scheduleFault: event %u feeds no %u", p, e);
    const auto erased = static_cast<uint32_t>(every ? hi - lo : 1);
    rec.dependents.erase(lo, lo + erased);
    for (uint32_t i = p + 1; i <= rec.numEvents; ++i)
        rec.depdStart[i] -= erased;
}

/** Remove @p e from @p p's window dependents, where it is once. */
void
eraseWindowDependent(CompiledDdg &cd, uint32_t p, uint32_t e)
{
    uint32_t first, last;
    muir_assert(cd.windowDependents(p, first, last),
                "scheduleFault: event %u is no window dep", p);
    const auto it = std::lower_bound(cd.windowDepd.begin() + first,
                                     cd.windowDepd.begin() + last, e);
    muir_assert(it != cd.windowDepd.begin() + last && *it == e,
                "scheduleFault: event %u feeds no %u", p, e);
    const auto at = static_cast<uint32_t>(it - cd.windowDepd.begin());
    cd.windowDepd.erase(it);
    for (uint32_t &start : cd.windowDepdStart)
        if (start > at)
            --start;
}

/** Remove record dep @p k of event @p e. */
void
eraseRecordInput(Record &rec, uint32_t e, uint32_t k)
{
    const uint32_t at = rec.depStart[e] + k;
    rec.deps.erase(rec.deps.begin() + at);
    for (uint32_t i = e + 1; i <= rec.numEvents; ++i)
        --rec.depStart[i];
    // The memory-only bits above the erased dep move down by one.
    std::vector<uint64_t> &bits = rec.memDepBits;
    const uint64_t keep = (uint64_t(1) << (at & 63)) - 1;
    const uint64_t low = bits[at >> 6] & keep;
    for (size_t j = at >> 6; j < bits.size(); ++j)
        bits[j] = bits[j] >> 1 |
                  (j + 1 < bits.size() ? bits[j + 1] << 63 : 0);
    bits[at >> 6] = (bits[at >> 6] & ~keep) | low;
}

/** Give event @p e a private copy of its node's timing: a node of its
 *  own in the timing half, named by a copy of the node-id column. */
CompiledNode &
privateNode(FaultIndex &fx, uint32_t e)
{
    CompiledDdg &cd = fx.cd;
    fx.nodeOf = cd.record->nodeOf;
    const uint32_t node = fx.nodeOf[e];
    muir_assert(node != kNoId32, "scheduleFault: event %u has no node", e);
    fx.nodeOf[e] = static_cast<uint32_t>(cd.nodeInfo.size());
    cd.nodeInfo.push_back(CompiledNode(cd.nodeInfo[node]));
    cd.nodes.push_back(cd.nodes[node]);
    return cd.nodeInfo.back();
}

} // namespace

FaultRun
scheduleFault(const CompiledDdg &golden, const FaultPlan &plan,
              RunContext &ctx)
{
    const uint64_t target =
        plan.kind == FaultKind::DramTimeout ? plan.missEvent : plan.event;
    muir_assert(ctx.watchdog && isScheduleFault(plan.kind) &&
                    target < golden.numEvents,
                "scheduleFault: needs a watchdog and a schedule-level plan");
    muir_assert(!ctx.log, "scheduleFault: takes no log; it would index "
                          "the edited copy, not the caller's index");
    const auto e = static_cast<uint32_t>(target);
    const auto p = static_cast<uint32_t>(plan.producer);
    FaultIndex fx{golden, nullptr, {}};
    CompiledDdg &cd = fx.cd;
    switch (plan.kind) {
      case FaultKind::StuckValid: {
        // Valid is stuck high: e no longer waits for p's token.
        muir_assert(plan.edge < cd.numInputs(e) &&
                        cd.input(e, plan.edge) == p,
                    "scheduleFault: input %u of event %u is not %u",
                    plan.edge, e, p);
        const Record &rec = *cd.record;
        if (rec.depStart[e] + plan.edge == rec.depStart[e + 1]) {
            cd.windowDep[e] = kNoId32;
            eraseWindowDependent(cd, p, e);
        } else {
            Record &own = fx.record();
            eraseRecordInput(own, e, plan.edge);
            eraseRecordDependent(own, p, e, /*every=*/false);
        }
        break;
      }
      case FaultKind::TokenDrop:
      case FaultKind::LostSpawn:
      case FaultKind::LostSync:
        // A window dep is never also a record dep.
        if (cd.windowDep[e] == p)
            eraseWindowDependent(cd, p, e);
        else
            eraseRecordDependent(fx.record(), p, e, /*every=*/true);
        break;
      case FaultKind::TokenDup:
        privateNode(fx, e).initInterval *= 2;
        break;
      default: {
        // DramTimeout: the port times out and the controller retries
        // with exponential backoff.
        CompiledNode &cn = privateNode(fx, e);
        const uint64_t window = cd.structs[cn.structure].missLatency + 32;
        const uint64_t slowed =
            cn.latency +
            window * ((uint64_t(1) << std::min(plan.attempts, 32u)) - 1);
        muir_assert(plan.attempts <= kMaxDramAttempts &&
                        slowed <= ~uint32_t(0),
                    "scheduleFault: %u DRAM attempts overflow the latency",
                    plan.attempts);
        cn.latency = static_cast<uint32_t>(slowed);
      }
    }

    // StuckValid's detector (did e start before p finished raising
    // valid?) reads the schedule back from a log of its own, one per
    // thread: its columns keep their capacity from run to run.
    thread_local ScheduleLog log;
    RunContext run = ctx;
    if (plan.kind == FaultKind::StuckValid)
        run.log = &log;
    FaultRun result{
        scheduleDdg(cd,
                    fx.nodeOf.empty()
                        ? std::span<const uint32_t>(cd.record->nodeOf)
                        : std::span<const uint32_t>(fx.nodeOf),
                    run),
        {}};

    // Detectors judge completed runs; a hung one is a Hang.
    if (ctx.watchdog->hang.tripped())
        return result;
    if (plan.kind == FaultKind::StuckValid) {
        if (log.start[e] < log.finish[p])
            result.detector = "handshake-causality";
    } else if (plan.kind == FaultKind::TokenDup) {
        result.detector = "token-conservation";
    } else if (plan.kind == FaultKind::DramTimeout &&
               plan.attempts > kMaxDramRetries) {
        result.detector = "dram-timeout";
    }
    return result;
}

// -------------------------------------------------------------- campaign

namespace
{

/** Deterministic enumeration of injectable sites in the golden run. */
struct SiteCatalog
{
    /** Any event with at least one input edge (TokenDrop). */
    std::vector<uint64_t> edgeEvents;
    /** Non-synthetic events with edges (TokenDup/StuckValid need a
     *  tile). */
    std::vector<uint64_t> nodeEdgeEvents;
    /** Value-producing events (DataFlip). */
    std::vector<uint64_t> valueEvents;
    /** Spawned entry events and, in step, the input ordinal of each
     *  one's dispatch dep (LostSpawn). */
    std::vector<uint64_t> spawnEvents;
    std::vector<unsigned> spawnEdges;
    /** Sync events with edges (LostSync). */
    std::vector<uint64_t> syncEvents;
    uint64_t memBase = 0;
    uint64_t memWords = 0;
    /** Events that missed to DRAM, in the golden run's processing
     *  order (indexed by DramTimeout's miss ordinal); empty when the
     *  catalog is built without the golden log. */
    std::vector<uint64_t> missEvents;
};

SiteCatalog
buildCatalog(const CompiledDdg &cd, const ir::MemoryImage &mem,
             const ScheduleLog *golden_log)
{
    SiteCatalog sites;
    auto kindOf = [&](uint32_t id) {
        return cd.node(id)->kind();
    };
    for (uint32_t id = 0; id < cd.numEvents; ++id) {
        const uint32_t inputs = cd.numInputs(id);
        if (inputs == 0)
            continue;
        sites.edgeEvents.push_back(id);
        if (cd.record->flags[id] & kEvCompletion)
            continue;
        sites.nodeEdgeEvents.push_back(id);
        switch (kindOf(id)) {
          case uir::NodeKind::Compute:
          case uir::NodeKind::Fused:
          case uir::NodeKind::Load:
            sites.valueEvents.push_back(id);
            break;
          case uir::NodeKind::SyncNode:
            sites.syncEvents.push_back(id);
            break;
          default:
            break;
        }
        if (cd.record->flags[id] & kEvEntry) {
            for (uint32_t k = 0; k < inputs; ++k) {
                uint32_t p = cd.input(id, k);
                if (!(cd.record->flags[p] & kEvCompletion) &&
                    kindOf(p) == uir::NodeKind::ChildCall) {
                    sites.spawnEvents.push_back(id);
                    sites.spawnEdges.push_back(k);
                    break;
                }
            }
        }
    }
    sites.memBase = ir::kHeapBase;
    sites.memWords = (mem.sizeBytes() - ir::kHeapBase) / 4;
    if (golden_log)
        for (uint32_t id : golden_log->order())
            if (eventCost(cd, *golden_log, id).dramBytes)
                sites.missEvents.push_back(id);
    return sites;
}

bool
resolvePlan(const FaultSpec &spec, const SiteCatalog &sites,
            const CompiledDdg &cd, SplitMix64 &rng, FaultPlan &plan,
            std::string &error)
{
    // Edge ordinals index an event's inputs (CompiledDdg::input).
    FaultKind kind = spec.kind;
    if (kind == FaultKind::Mix) {
        std::vector<FaultKind> avail;
        if (!sites.edgeEvents.empty())
            avail.push_back(FaultKind::TokenDrop);
        if (!sites.nodeEdgeEvents.empty()) {
            avail.push_back(FaultKind::TokenDup);
            avail.push_back(FaultKind::StuckValid);
        }
        if (!sites.valueEvents.empty())
            avail.push_back(FaultKind::DataFlip);
        if (sites.memWords)
            avail.push_back(FaultKind::MemFlip);
        if (!sites.missEvents.empty())
            avail.push_back(FaultKind::DramTimeout);
        if (!sites.spawnEvents.empty())
            avail.push_back(FaultKind::LostSpawn);
        if (!sites.syncEvents.empty())
            avail.push_back(FaultKind::LostSync);
        if (avail.empty()) {
            error = "design exposes no injectable sites";
            return false;
        }
        kind = avail[rng.below(avail.size())];
    }

    plan = FaultPlan{};
    plan.kind = kind;
    // A pinned site must be in the kind's pool (pools are ascending).
    auto pickEvent = [&](const std::vector<uint64_t> &pool,
                         const char *what) {
        if (spec.site != FaultSpec::kAutoSite) {
            if (!std::binary_search(pool.begin(), pool.end(), spec.site)) {
                error = fmt("event %llu is not a %s site (%u events)",
                            static_cast<unsigned long long>(spec.site),
                            what, cd.numEvents);
                return false;
            }
            plan.event = spec.site;
            return true;
        }
        if (pool.empty()) {
            error = std::string("design has no ") + what + " sites";
            return false;
        }
        plan.event = pool[rng.below(pool.size())];
        return true;
    };
    // An auto edge is drawn from the inputs that are completions when
    // @p completions asks for them and there are any, else from all.
    auto pickEdge = [&](bool completions = false) {
        const unsigned edges = cd.numInputs(plan.event);
        if (edges == 0) {
            error = "target event has no input edges";
            return false;
        }
        std::vector<unsigned> cands;
        for (unsigned k = 0; completions && k < edges; ++k)
            if (cd.record->flags[cd.input(plan.event, k)] & kEvCompletion)
                cands.push_back(k);
        plan.edge = spec.edge != FaultSpec::kAuto ? spec.edge
                    : cands.empty() ? static_cast<unsigned>(rng.below(edges))
                                    : cands[rng.below(cands.size())];
        if (plan.edge >= edges) {
            error = fmt("edge %u out of range (%u edges)", plan.edge,
                        edges);
            return false;
        }
        plan.producer = cd.input(plan.event, plan.edge);
        return true;
    };

    switch (kind) {
      case FaultKind::TokenDrop:
        return pickEvent(sites.edgeEvents, "handshake-edge") &&
               pickEdge();
      case FaultKind::TokenDup:
      case FaultKind::StuckValid:
        return pickEvent(sites.nodeEdgeEvents, "node-handshake") &&
               pickEdge();
      case FaultKind::DataFlip:
        if (!pickEvent(sites.valueEvents, "datapath-value"))
            return false;
        plan.bit = spec.bit != FaultSpec::kAuto
                       ? spec.bit
                       : static_cast<unsigned>(rng.below(256));
        return true;
      case FaultKind::MemFlip: {
        if (!sites.memWords) {
            error = "memory image has no data words";
            return false;
        }
        uint64_t word = spec.site != FaultSpec::kAutoSite
                            ? spec.site
                            : rng.below(sites.memWords);
        if (word >= sites.memWords) {
            error = fmt("word %llu out of range (%llu words)",
                        static_cast<unsigned long long>(word),
                        static_cast<unsigned long long>(sites.memWords));
            return false;
        }
        plan.addr = sites.memBase + word * 4;
        plan.bit = spec.bit != FaultSpec::kAuto
                       ? spec.bit % 32
                       : static_cast<unsigned>(rng.below(32));
        return true;
      }
      case FaultKind::DramTimeout:
        if (sites.missEvents.empty()) {
            error = "design has no DRAM misses to time out";
            return false;
        }
        plan.missOrdinal = spec.site != FaultSpec::kAutoSite
                               ? spec.site
                               : rng.below(sites.missEvents.size());
        if (plan.missOrdinal >= sites.missEvents.size()) {
            error = fmt("miss %llu out of range (%zu DRAM misses)",
                        static_cast<unsigned long long>(plan.missOrdinal),
                        sites.missEvents.size());
            return false;
        }
        plan.missEvent = sites.missEvents[plan.missOrdinal];
        plan.attempts = spec.attempts != FaultSpec::kAuto
                            ? spec.attempts
                            : static_cast<unsigned>(1 + rng.below(6));
        return true;
      case FaultKind::LostSpawn: {
        // An explicit edge draws an auto site from the entries that
        // have that input, then takes it range-checked.
        const bool edge_given = spec.edge != FaultSpec::kAuto;
        if (spec.site != FaultSpec::kAutoSite) {
            if (!pickEvent(sites.spawnEvents, "spawn-entry"))
                return false;
        } else {
            std::vector<uint64_t> with_edge;
            if (edge_given)
                std::copy_if(sites.spawnEvents.begin(),
                             sites.spawnEvents.end(),
                             std::back_inserter(with_edge),
                             [&](uint64_t e) {
                                 return spec.edge < cd.numInputs(e);
                             });
            const auto &pool = edge_given ? with_edge : sites.spawnEvents;
            if (pool.empty()) {
                error = edge_given
                            ? fmt("no spawned entry has an edge %u",
                                  spec.edge)
                            : "design has no spawn edges (no child tasks)";
                return false;
            }
            plan.event = pool[rng.below(pool.size())];
        }
        if (edge_given)
            return pickEdge();
        // The dispatch edge, not a loop hand-off the entry also waits on.
        const size_t i = std::lower_bound(sites.spawnEvents.begin(),
                                          sites.spawnEvents.end(),
                                          plan.event) -
                         sites.spawnEvents.begin();
        plan.edge = sites.spawnEdges[i];
        plan.producer = cd.input(plan.event, plan.edge);
        return true;
      }
      case FaultKind::LostSync:
        // Prefer completion-token edges: those are the spawn
        // completions the sync exists to collect.
        return pickEvent(sites.syncEvents, "sync") &&
               pickEdge(/*completions=*/true);
      case FaultKind::Mix:
      case FaultKind::kCount:
        break;
    }
    error = "unresolvable fault kind";
    return false;
}

bool
sameValue(const RuntimeValue &a, const RuntimeValue &b)
{
    using Kind = RuntimeValue::Kind;
    if (a.kind != b.kind)
        return false;
    switch (a.kind) {
      case Kind::Int:
        return a.i == b.i;
      case Kind::Float:
        return std::memcmp(&a.f, &b.f, sizeof a.f) == 0;
      case Kind::Ptr:
        return a.ptr == b.ptr;
      case Kind::Tensor:
        if (!a.tensor || !b.tensor)
            return a.tensor == b.tensor;
        if (a.tensor->size() != b.tensor->size())
            return false;
        return std::memcmp(a.tensor->data(), b.tensor->data(),
                           a.tensor->size() * sizeof(float)) == 0;
    }
    return false;
}

/** Byte-exact compare, ignoring [skip_addr, skip_addr + skip_len). */
bool
sameMemory(const std::vector<uint8_t> &a, const std::vector<uint8_t> &b,
           uint64_t skip_addr, unsigned skip_len)
{
    if (a.size() != b.size())
        return false;
    for (size_t i = 0; i < a.size(); ++i) {
        if (a[i] == b[i])
            continue;
        if (i >= skip_addr && i < skip_addr + skip_len)
            continue;
        return false;
    }
    return true;
}

} // namespace

std::string
CampaignResult::toJson(const std::string &label,
                       const std::string &spec_text, unsigned runs,
                       uint64_t seed) const
{
    std::ostringstream os;
    JsonWriter w(os);
    w.beginObject();
    w.field("schema", "muir.resilience.campaign.v1");
    w.field("workload", label);
    w.field("spec", spec_text);
    w.field("runs", static_cast<uint64_t>(runs));
    w.field("seed", seed);
    w.beginObject("golden");
    w.field("cycles", goldenCycles);
    w.field("firings", goldenFirings);
    w.end();
    w.beginObject("watchdog");
    w.field("max_cycles", maxCycles);
    w.end();
    w.beginObject("histogram");
    for (size_t o = 0; o < kNumOutcomes; ++o)
        w.field(outcomeName(static_cast<Outcome>(o)), histogram[o]);
    w.end();
    w.beginArray("by_kind");
    for (size_t k = 0; k < static_cast<size_t>(FaultKind::kCount); ++k) {
        uint64_t total = 0;
        for (uint64_t n : byKind[k])
            total += n;
        if (!total)
            continue;
        w.beginObject();
        w.field("kind", faultKindName(static_cast<FaultKind>(k)));
        for (size_t o = 0; o < kNumOutcomes; ++o)
            w.field(outcomeName(static_cast<Outcome>(o)), byKind[k][o]);
        w.end();
    }
    w.end();
    w.beginArray("injections");
    for (size_t i = 0; i < records.size(); ++i) {
        const InjectionRecord &r = records[i];
        w.beginObject();
        w.field("run", static_cast<uint64_t>(i));
        w.field("kind", faultKindName(r.plan.kind));
        if (r.plan.event != kNoEvent) {
            w.field("event", r.plan.event);
            w.field("edge", static_cast<uint64_t>(r.plan.edge));
        }
        if (r.plan.kind == FaultKind::MemFlip)
            w.field("addr", r.plan.addr);
        if (r.plan.kind == FaultKind::DataFlip ||
            r.plan.kind == FaultKind::MemFlip)
            w.field("bit", static_cast<uint64_t>(r.plan.bit));
        if (r.plan.kind == FaultKind::DramTimeout) {
            w.field("miss", r.plan.missOrdinal);
            w.field("attempts", static_cast<uint64_t>(r.plan.attempts));
        }
        w.field("outcome", outcomeName(r.outcome));
        w.field("cycles", r.cycles);
        if (!r.detail.empty())
            w.field("detail", r.detail);
        w.end();
    }
    w.end();
    w.end();
    os << "\n";
    return os.str();
}

CampaignResult
runCampaign(const uir::Accelerator &accel, const ir::Module &module,
            const std::function<void(ir::MemoryImage &)> &bind,
            const CampaignSpec &spec,
            const std::vector<ir::RuntimeValue> &args)
{
    CampaignResult out;

    // ---- Fault-free golden run, watchdog armed: a lint-clean graph
    // must never hang without a fault (cross-validation of μlint's
    // static D-checks). Its schedule log locates the DRAM misses;
    // only the kinds that can draw one keep it. ----
    ir::MemoryImage golden_mem(module);
    if (bind)
        bind(golden_mem);
    const bool want_log = spec.fault.kind == FaultKind::DramTimeout ||
                          spec.fault.kind == FaultKind::Mix;
    SimResult golden = simulate(accel, golden_mem, args,
                                {.log = want_log,
                                 .watchdog = true,
                                 .maxCycles = spec.maxCycles,
                                 .keepCompiled = true});
    if (golden.hang.tripped()) {
        out.error = "golden (fault-free) run tripped the watchdog:\n" +
                    golden.hang.render();
        return out;
    }
    const std::vector<RuntimeValue> &golden_outs = golden.outputs;
    const CompiledDdg &golden_ddg = *golden.compiled;
    out.goldenCycles = golden.cycles;
    out.goldenFirings = golden.firings;
    out.maxCycles =
        spec.maxCycles ? spec.maxCycles : golden.cycles * 8 + 4096;
    uint64_t max_firings = golden.firings * 8 + 65536;
    SiteCatalog sites =
        buildCatalog(golden_ddg, golden_mem, golden.log.get());

    const std::string spec_text = renderFaultSpec(spec.fault);

    // Resolve every run's plan serially up front. Resolution is cheap
    // (a few rng draws over the catalog) and keeping it out of the
    // pool means the fan-out below touches only per-run state: runs
    // behind a failed resolution never simulate, exactly as when the
    // loop was serial, so output is identical at any job count.
    std::vector<FaultPlan> plans;
    unsigned resolved = spec.runs;
    for (unsigned i = 0; i < spec.runs; ++i) {
        // Per-run deterministic stream: (seed, i) fully decides the
        // site, so re-running a campaign reproduces every injection.
        SplitMix64 rng(spec.seed * 0x9E3779B97F4A7C15ull +
                       uint64_t(i) * 2654435761ull + 1);
        FaultPlan plan;
        std::string site_error;
        if (!resolvePlan(spec.fault, sites, golden_ddg, rng, plan,
                         site_error)) {
            out.error =
                "cannot inject '" + spec_text + "': " + site_error;
            resolved = i;
            break;
        }
        plan.maxFirings = max_firings;
        plans.push_back(plan);
    }

    // Fan the injected runs across the pool. Everything shared here —
    // accel, module, golden outputs/memory/index, the plans — is
    // read-only; each run owns its watchdog, its MemoryImage and
    // executor (value faults only) and its record slot, which is the
    // whole re-entrancy contract of sim/run_context.hh.
    std::vector<InjectionRecord> records(resolved);
    parallelFor(resolved, spec.jobs, [&](size_t i) {
        const FaultPlan &plan = plans[i];
        InjectionRecord &rec = records[i];
        rec.plan = plan;
        if (isScheduleFault(plan.kind)) {
            // The golden index carries the run's functional result and
            // the edit only moves token arrivals: schedule, and judge
            // by the watchdog and the kind's detector alone.
            Watchdog watchdog{out.maxCycles, {}};
            RunContext ctx;
            ctx.watchdog = &watchdog;
            FaultRun run = scheduleFault(golden_ddg, plan, ctx);
            rec.cycles = run.timing.cycles;
            if (watchdog.hang.tripped()) {
                rec.outcome = Outcome::Hang;
                rec.detail = watchdog.hang.render();
            } else if (!run.detector.empty()) {
                rec.outcome = Outcome::Detected;
                rec.detail = std::move(run.detector);
            }
            return;
        }

        ir::MemoryImage mem(module);
        if (bind)
            bind(mem);
        if (plan.kind == FaultKind::MemFlip) {
            int64_t word = mem.loadInt(plan.addr, 4);
            mem.storeInt(plan.addr, 4,
                         word ^ (int64_t(1) << plan.bit));
        }
        SimResult r = simulate(
            accel, mem, args,
            {.fault = &plan, .watchdog = true, .maxCycles = out.maxCycles});
        rec.cycles = r.cycles;
        if (r.abort) {
            rec.outcome = r.abort->outcome;
            rec.detail = r.abort->detail;
        } else if (r.hang.tripped()) {
            rec.outcome = Outcome::Hang;
            rec.detail = r.hang.render();
        } else {
            bool outs_ok = r.outputs.size() == golden_outs.size();
            for (size_t k = 0; outs_ok && k < golden_outs.size(); ++k)
                outs_ok = sameValue(r.outputs[k], golden_outs[k]);
            // The injected word itself is excluded for MemFlip: only
            // propagation beyond the flipped cell is corruption.
            unsigned skip = plan.kind == FaultKind::MemFlip ? 4 : 0;
            bool mem_ok = sameMemory(golden_mem.bytes(), mem.bytes(),
                                     plan.addr, skip);
            if (!outs_ok || !mem_ok) {
                rec.outcome = Outcome::SDC;
                rec.detail = outs_ok
                                 ? "final memory differs from golden"
                                 : "live-out values differ from golden";
            }
        }
    });

    // Aggregate in index order — histograms are sums, but keeping the
    // record order canonical keeps the JSON canonical.
    out.records = std::move(records);
    for (const InjectionRecord &rec : out.records) {
        ++out.histogram[static_cast<size_t>(rec.outcome)];
        ++out.byKind[static_cast<size_t>(rec.plan.kind)]
                    [static_cast<size_t>(rec.outcome)];
    }
    if (resolved < spec.runs)
        return out;
    out.ok = true;
    return out;
}

} // namespace muir::sim
