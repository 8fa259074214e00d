/**
 * @file
 * μfit tests: spec parsing, bit flips, the bit-identical-when-disabled
 * contract across every baseline workload, watchdog behaviour on
 * hand-built token-loss deadlocks, per-kind outcome guarantees, and
 * campaign determinism + JSON schema validity.
 */
#include <gtest/gtest.h>

#include "sim/exec.hh"
#include "sim/fault.hh"
#include "sim/simulator.hh"
#include "support/json.hh"
#include "uir/accelerator.hh"
#include "workloads/driver.hh"

namespace muir::sim
{

namespace
{

/** Lower a workload's baseline and run one campaign against it. */
CampaignResult
campaignOn(const std::string &name, const std::string &spec_text,
           unsigned runs, uint64_t seed)
{
    workloads::Workload w = workloads::buildWorkload(name);
    auto accel = workloads::lowerBaseline(w);
    CampaignSpec spec;
    std::string error;
    EXPECT_TRUE(parseFaultSpec(spec_text, spec.fault, &error)) << error;
    spec.runs = runs;
    spec.seed = seed;
    return runCampaign(*accel, *w.module,
                       [&](ir::MemoryImage &m) { w.bind(m); }, spec);
}

uint64_t
countOf(const CampaignResult &r, Outcome o)
{
    return r.histogram[static_cast<size_t>(o)];
}

/** The compiled index of @p w's fault-free run on @p accel. */
std::shared_ptr<const CompiledDdg>
goldenIndex(const workloads::Workload &w, const uir::Accelerator &accel)
{
    ir::MemoryImage mem(*w.module);
    w.bind(mem);
    return simulate(accel, mem, {}, {.keepCompiled = true}).compiled;
}

} // namespace

// ---------------------------------------------------------- spec parsing

TEST(FaultSpec, ParsesKindsAndOptions)
{
    FaultSpec spec;
    std::string error;
    ASSERT_TRUE(parseFaultSpec("tokendrop", spec, &error)) << error;
    EXPECT_EQ(spec.kind, FaultKind::TokenDrop);
    EXPECT_EQ(spec.site, FaultSpec::kAutoSite);

    ASSERT_TRUE(parseFaultSpec("dataflip@17:bit=5", spec, &error));
    EXPECT_EQ(spec.kind, FaultKind::DataFlip);
    EXPECT_EQ(spec.site, 17u);
    EXPECT_EQ(spec.bit, 5u);

    ASSERT_TRUE(parseFaultSpec("dramtimeout:attempts=6", spec, &error));
    EXPECT_EQ(spec.kind, FaultKind::DramTimeout);
    EXPECT_EQ(spec.attempts, 6u);

    ASSERT_TRUE(parseFaultSpec("stuckvalid:edge=1", spec, &error));
    EXPECT_EQ(spec.edge, 1u);

    ASSERT_TRUE(parseFaultSpec("mix", spec, &error));
    EXPECT_EQ(spec.kind, FaultKind::Mix);
}

TEST(FaultSpec, RejectsJunkWithHelpfulError)
{
    FaultSpec spec;
    std::string error;
    EXPECT_FALSE(parseFaultSpec("nosuchfault", spec, &error));
    // The diagnostic lists the valid kinds.
    EXPECT_NE(error.find("tokendrop"), std::string::npos) << error;
    EXPECT_NE(error.find("memflip"), std::string::npos) << error;

    EXPECT_FALSE(parseFaultSpec("dataflip:bogus=1", spec, &error));
    EXPECT_FALSE(parseFaultSpec("dataflip:bit=notanumber", spec, &error));
    EXPECT_FALSE(parseFaultSpec("", spec, &error));
    EXPECT_FALSE(parseFaultSpec("dataflip@", spec, &error));
    // The backoff doubles per attempt; 16 is the most a spec may ask.
    EXPECT_FALSE(parseFaultSpec("dramtimeout:attempts=17", spec, &error));
    EXPECT_NE(error.find("attempts"), std::string::npos) << error;
    EXPECT_TRUE(parseFaultSpec("dramtimeout:attempts=16", spec, &error));
}

TEST(FaultSpec, RoundTripsThroughRender)
{
    FaultSpec spec;
    std::string error;
    ASSERT_TRUE(
        parseFaultSpec("memflip@42:bit=31", spec, &error));
    FaultSpec again;
    ASSERT_TRUE(parseFaultSpec(renderFaultSpec(spec), again, &error));
    EXPECT_EQ(again.kind, spec.kind);
    EXPECT_EQ(again.site, spec.site);
    EXPECT_EQ(again.bit, spec.bit);
}

// --------------------------------------------------------------- flipBit

TEST(FlipBit, PreservesKindAndFlipsOnce)
{
    ir::RuntimeValue v = ir::RuntimeValue::makeInt(12);
    flipBit(v, 3);
    EXPECT_EQ(v.kind, ir::RuntimeValue::Kind::Int);
    EXPECT_EQ(v.i, 12 ^ 8);
    flipBit(v, 3);
    EXPECT_EQ(v.i, 12);

    ir::RuntimeValue f = ir::RuntimeValue::makeFloat(1.0);
    flipBit(f, 0);
    EXPECT_EQ(f.kind, ir::RuntimeValue::Kind::Float);
    EXPECT_NE(f.f, 1.0);
    flipBit(f, 0);
    EXPECT_EQ(f.f, 1.0);

    ir::RuntimeValue p = ir::RuntimeValue::makePtr(0x1000);
    flipBit(p, 2);
    EXPECT_EQ(p.kind, ir::RuntimeValue::Kind::Ptr);
    EXPECT_EQ(p.ptr, 0x1000u ^ 4u);
}

TEST(FlipBit, TensorCopiesBeforeCorrupting)
{
    ir::RuntimeValue t =
        ir::RuntimeValue::makeTensor(2, 2, {1.f, 2.f, 3.f, 4.f});
    ir::RuntimeValue alias = t; // shares the tensor buffer
    flipBit(t, 0);
    ASSERT_TRUE(t.tensor && alias.tensor);
    // Copy-on-write: the alias must keep the pristine data.
    EXPECT_EQ((*alias.tensor)[0], 1.f);
    EXPECT_NE((*t.tensor)[0], 1.f);
}

// ------------------------------------------------ bit-identity contract

/**
 * The μprof-style guard: arming the watchdog without a fault must
 * not change cycles, stats, firings, outputs, or final memory on any
 * baseline workload — and must never trip fault-free.
 */
TEST(FaultGuard, WatchdogArmedIsBitIdenticalOnAllBaselines)
{
    for (const std::string &name : workloads::workloadNames()) {
        workloads::Workload w = workloads::buildWorkload(name);
        auto accel = workloads::lowerBaseline(w);

        ir::MemoryImage plain_mem(*w.module);
        w.bind(plain_mem);
        SimResult plain = simulate(*accel, plain_mem);

        ir::MemoryImage armed_mem(*w.module);
        w.bind(armed_mem);
        SimOptions opts;
        opts.watchdog = true;
        SimResult armed = simulate(*accel, armed_mem, {}, opts);

        EXPECT_EQ(plain.cycles, armed.cycles) << name;
        EXPECT_EQ(plain.firings, armed.firings) << name;
        EXPECT_EQ(plain.stats.dump(), armed.stats.dump()) << name;
        EXPECT_EQ(plain_mem.bytes(), armed_mem.bytes()) << name;
        EXPECT_FALSE(armed.hang.tripped())
            << name << ": " << armed.hang.render();
    }
}

// -------------------------------------------------------------- watchdog

TEST(Watchdog, TripsOnPinnedTokenLossWithNamedDiagnosis)
{
    // Golden run to pick a concrete mid-graph edge to drop.
    workloads::Workload w = workloads::buildWorkload("saxpy");
    auto accel = workloads::lowerBaseline(w);
    CampaignSpec spec;
    std::string error;
    ASSERT_TRUE(parseFaultSpec("tokendrop", spec.fault, &error));
    spec.runs = 1;
    spec.seed = 7;
    CampaignResult r = runCampaign(
        *accel, *w.module, [&](ir::MemoryImage &m) { w.bind(m); }, spec);
    ASSERT_TRUE(r.ok) << r.error;
    ASSERT_EQ(r.records.size(), 1u);
    EXPECT_EQ(r.records[0].outcome, Outcome::Hang);

    // Replay the same plan directly and inspect the diagnosis.
    Watchdog watchdog{r.maxCycles, {}};
    RunContext ctx;
    ctx.watchdog = &watchdog;
    FaultRun run =
        scheduleFault(*goldenIndex(w, *accel), r.records[0].plan, ctx);
    EXPECT_TRUE(run.detector.empty()) << run.detector;
    const HangDiagnosis &diag = watchdog.hang;
    ASSERT_TRUE(diag.tripped());
    EXPECT_TRUE(diag.hung);
    ASSERT_FALSE(diag.blocked.empty());
    // The root cause names the blocked task, node, and dropped edge.
    const HangDiagnosis::BlockedEdge &root = diag.blocked.front();
    EXPECT_EQ(root.event, r.records[0].plan.event);
    EXPECT_TRUE(root.tokenLost);
    EXPECT_FALSE(root.task.empty());
    EXPECT_FALSE(root.node.empty());
    EXPECT_FALSE(root.kind.empty());
    std::string text = diag.render();
    EXPECT_NE(text.find("starved"), std::string::npos) << text;
    EXPECT_NE(text.find(root.task), std::string::npos) << text;
    EXPECT_NE(text.find("never arrived"), std::string::npos) << text;
}

TEST(Watchdog, DroppedWindowEdgeStarvesItsEvent)
{
    // A window dep (a queue slot or a loop hand-off) lives in the
    // index's timing half, not in the shared record. Dropping one
    // starves its event on that edge, a stuck-valid one never hangs,
    // and the golden index replays as before.
    for (const std::string name : {"conv", "msort"}) {
        workloads::Workload w = workloads::buildWorkload(name);
        auto accel = workloads::lowerBaseline(w);
        auto golden = goldenIndex(w, *accel);
        const CompiledDdg &cd = *golden;
        const uint64_t cycles = scheduleDdg(cd).cycles;
        uint32_t e = 0;
        while (e < cd.numEvents && cd.windowDep[e] == kNoId32)
            ++e;
        ASSERT_LT(e, cd.numEvents) << name;
        FaultPlan plan;
        plan.event = e;
        plan.producer = cd.windowDep[e];
        plan.edge = cd.numInputs(e) - 1;
        for (FaultKind kind : {FaultKind::TokenDrop, FaultKind::StuckValid}) {
            plan.kind = kind;
            Watchdog watchdog{cycles * 8 + 4096, {}};
            RunContext ctx;
            ctx.watchdog = &watchdog;
            scheduleFault(cd, plan, ctx);
            if (kind == FaultKind::StuckValid) {
                EXPECT_FALSE(watchdog.hang.tripped()) << name;
                continue;
            }
            ASSERT_TRUE(watchdog.hang.tripped()) << name;
            ASSERT_FALSE(watchdog.hang.blocked.empty()) << name;
            const HangDiagnosis::BlockedEdge &root =
                watchdog.hang.blocked.front();
            EXPECT_EQ(root.event, e) << name;
            EXPECT_EQ(root.waitingOn, plan.producer) << name;
            EXPECT_TRUE(root.tokenLost) << name;
        }
        EXPECT_EQ(scheduleDdg(cd).cycles, cycles) << name;
    }
}

TEST(Watchdog, CycleBudgetTripsAsBudgetExceeded)
{
    workloads::Workload w = workloads::buildWorkload("saxpy");
    auto accel = workloads::lowerBaseline(w);
    ir::MemoryImage mem(*w.module);
    w.bind(mem);
    SimOptions opts;
    opts.watchdog = true;
    opts.maxCycles = 1; // far below any real schedule
    SimResult sim = simulate(*accel, mem, {}, opts);
    EXPECT_TRUE(sim.hang.budgetExceeded);
    EXPECT_TRUE(sim.hang.tripped());
    EXPECT_NE(sim.hang.render().find("budget"),
              std::string::npos);
}

TEST(WatchdogDeath, ScheduleLevelFaultTakesNoObservers)
{
    // scheduleFault replays an edited copy of the index; a log of that
    // replay would not read against the index the caller holds.
    CampaignResult r = campaignOn("saxpy", "stuckvalid", 1, 5);
    ASSERT_TRUE(r.ok) << r.error;
    workloads::Workload w = workloads::buildWorkload("saxpy");
    auto accel = workloads::lowerBaseline(w);
    auto golden = goldenIndex(w, *accel);
    ScheduleLog log;
    Watchdog watchdog;
    RunContext ctx;
    ctx.log = &log;
    ctx.watchdog = &watchdog;
    EXPECT_DEATH(scheduleFault(*golden, r.records[0].plan, ctx),
                 "takes no log");
}

TEST(WatchdogDeath, SimulateRefusesScheduleLevelPlan)
{
    // A schedule-level fault only moves token arrivals; it runs as a
    // scheduleFault call on a compiled index, never through simulate.
    CampaignResult r = campaignOn("saxpy", "tokendrop", 1, 7);
    ASSERT_TRUE(r.ok) << r.error;
    workloads::Workload w = workloads::buildWorkload("saxpy");
    auto accel = workloads::lowerBaseline(w);
    ir::MemoryImage mem(*w.module);
    w.bind(mem);
    SimOptions opts;
    opts.fault = &r.records[0].plan;
    opts.watchdog = true;
    EXPECT_DEATH(simulate(*accel, mem, {}, opts), "value faults only");
}

TEST(Watchdog, GenerousBudgetDoesNotTrip)
{
    workloads::Workload w = workloads::buildWorkload("fib");
    auto accel = workloads::lowerBaseline(w);
    workloads::RunOptions opts;
    opts.watchdog = true;
    opts.maxCycles = 1ull << 40;
    workloads::RunResult run = workloads::runOn(w, *accel, opts);
    EXPECT_TRUE(run.check.empty()) << run.check;
    EXPECT_FALSE(run.hang.tripped());
}

// ----------------------------------------------------- outcome semantics

TEST(Campaign, TokenDropAlwaysHangs)
{
    CampaignResult r = campaignOn("saxpy", "tokendrop", 8, 3);
    ASSERT_TRUE(r.ok) << r.error;
    EXPECT_EQ(countOf(r, Outcome::Hang), 8u);
    for (const InjectionRecord &rec : r.records)
        EXPECT_NE(rec.detail.find("watchdog"), std::string::npos)
            << rec.detail;
}

TEST(Campaign, TokenDupTripsConservationChecker)
{
    CampaignResult r = campaignOn("saxpy", "tokendup", 8, 3);
    ASSERT_TRUE(r.ok) << r.error;
    EXPECT_EQ(countOf(r, Outcome::Detected), 8u);
    for (const InjectionRecord &rec : r.records)
        EXPECT_EQ(rec.detail, "token-conservation");
}

TEST(Campaign, StuckValidNeverHangsOrCorrupts)
{
    // Firing early can violate causality (Detected) or be harmless
    // (Masked) — but the consumer still gets its value, so no SDC and
    // no deadlock.
    CampaignResult r = campaignOn("saxpy", "stuckvalid", 12, 5);
    ASSERT_TRUE(r.ok) << r.error;
    EXPECT_EQ(countOf(r, Outcome::SDC), 0u);
    EXPECT_EQ(countOf(r, Outcome::Hang), 0u);
    EXPECT_EQ(countOf(r, Outcome::Masked) + countOf(r, Outcome::Detected),
              12u);
}

TEST(Campaign, LostSpawnHangsTaskParallelWorkload)
{
    CampaignResult r = campaignOn("fib", "lostspawn", 4, 2);
    ASSERT_TRUE(r.ok) << r.error;
    EXPECT_EQ(countOf(r, Outcome::Hang), 4u);
}

TEST(Campaign, DramTimeoutRetryBudgetSplitsOutcome)
{
    // gemm misses in the L1, so DRAM timeouts have sites to hit.
    // Within the retry budget the backoff only costs cycles (Masked);
    // past it the port checker raises a Detected timeout.
    CampaignResult over = campaignOn("gemm", "dramtimeout:attempts=6", 3, 9);
    ASSERT_TRUE(over.ok) << over.error;
    EXPECT_EQ(countOf(over, Outcome::Detected), 3u);
    for (const InjectionRecord &rec : over.records)
        EXPECT_EQ(rec.detail, "dram-timeout");

    CampaignResult under =
        campaignOn("gemm", "dramtimeout:attempts=1", 3, 9);
    ASSERT_TRUE(under.ok) << under.error;
    EXPECT_EQ(countOf(under, Outcome::Masked), 3u);
    // Retries are latency, not corruption: never SDC.
    EXPECT_EQ(countOf(under, Outcome::SDC), 0u);
}

TEST(Campaign, DataFlipProducesSdc)
{
    CampaignResult r = campaignOn("saxpy", "dataflip", 12, 4);
    ASSERT_TRUE(r.ok) << r.error;
    EXPECT_EQ(countOf(r, Outcome::Hang), 0u);
    // Flipping a live value must corrupt at least one run silently.
    EXPECT_GT(countOf(r, Outcome::SDC), 0u);
}

TEST(Campaign, MemFlipOnOutputWordIsSilent)
{
    CampaignResult r = campaignOn("saxpy", "memflip", 10, 6);
    ASSERT_TRUE(r.ok) << r.error;
    EXPECT_EQ(countOf(r, Outcome::Hang), 0u);
    uint64_t total = 0;
    for (uint64_t c : r.histogram)
        total += c;
    EXPECT_EQ(total, 10u);
}

TEST(Campaign, PointerFlipOutsideTheImageIsABusError)
{
    // A flipped pointer bit on a GEP sends its consumer's access
    // outside the data image. The bus guard must classify the run as
    // Detected before the executor touches any per-word memory state
    // with the wild address.
    workloads::Workload w = workloads::buildWorkload("saxpy");
    auto accel = workloads::lowerBaseline(w);
    ir::MemoryImage mem(*w.module);
    w.bind(mem);
    UirExecutor exec(*accel, mem);
    exec.run({});
    const Ddg &ddg = exec.ddg();
    // flipBit keeps pointer flips in the low 20 bits; bit 19 moves an
    // address by 512 KiB, past the end of saxpy's image.
    ASSERT_LT(mem.sizeBytes(), uint64_t(1) << 19);
    uint32_t gep = kNoId32;
    for (uint32_t id = 0; id < ddg.numEvents && gep == kNoId32; ++id) {
        if (ddg.nodeOf[id] == kNoId32)
            continue;
        const uir::Node &node =
            resolveNode(*accel, ddg.nodes[ddg.nodeOf[id]]);
        if (node.kind() == uir::NodeKind::Compute &&
            node.op() == ir::Op::GEP)
            gep = id;
    }
    ASSERT_NE(gep, kNoId32);

    CampaignResult r = campaignOn(
        "saxpy", "dataflip@" + std::to_string(gep) + ":bit=19", 1, 1);
    ASSERT_TRUE(r.ok) << r.error;
    ASSERT_EQ(r.records.size(), 1u);
    EXPECT_EQ(r.records[0].outcome, Outcome::Detected);
    EXPECT_NE(r.records[0].detail.find("bus error"), std::string::npos)
        << r.records[0].detail;
}

// --------------------------------------------------------------- campaign

TEST(Campaign, DeterministicAcrossRuns)
{
    CampaignResult a = campaignOn("saxpy", "mix", 10, 11);
    CampaignResult b = campaignOn("saxpy", "mix", 10, 11);
    ASSERT_TRUE(a.ok && b.ok) << a.error << b.error;
    EXPECT_EQ(a.histogram, b.histogram);
    ASSERT_EQ(a.records.size(), b.records.size());
    for (size_t i = 0; i < a.records.size(); ++i) {
        EXPECT_EQ(a.records[i].outcome, b.records[i].outcome) << i;
        EXPECT_EQ(a.records[i].cycles, b.records[i].cycles) << i;
        EXPECT_EQ(a.records[i].plan.event, b.records[i].plan.event) << i;
        EXPECT_EQ(a.records[i].detail, b.records[i].detail) << i;
    }
    EXPECT_EQ(a.toJson("saxpy", "mix", 10, 11),
              b.toJson("saxpy", "mix", 10, 11));

    // A different seed resolves different sites.
    CampaignResult c = campaignOn("saxpy", "mix", 10, 12);
    ASSERT_TRUE(c.ok);
    bool any_differs = false;
    for (size_t i = 0; i < c.records.size(); ++i)
        any_differs |= c.records[i].plan.event != a.records[i].plan.event ||
                       c.records[i].plan.kind != a.records[i].plan.kind;
    EXPECT_TRUE(any_differs);
}

TEST(Campaign, HistogramSumsToRunsAndKindsAreConsistent)
{
    CampaignResult r = campaignOn("gemm", "mix", 15, 21);
    ASSERT_TRUE(r.ok) << r.error;
    uint64_t total = 0;
    for (uint64_t c : r.histogram)
        total += c;
    EXPECT_EQ(total, 15u);
    EXPECT_EQ(r.records.size(), 15u);
    // by-kind rows partition the histogram.
    std::array<uint64_t, kNumOutcomes> from_kinds{};
    for (const auto &row : r.byKind)
        for (size_t o = 0; o < kNumOutcomes; ++o)
            from_kinds[o] += row[o];
    EXPECT_EQ(from_kinds, r.histogram);
}

TEST(Campaign, JsonValidatesAndCarriesSchema)
{
    CampaignResult r = campaignOn("fib", "mix", 6, 13);
    ASSERT_TRUE(r.ok) << r.error;
    std::string json = r.toJson("fib", "mix", 6, 13);
    std::string error;
    EXPECT_TRUE(jsonValidate(json, &error)) << error;
    EXPECT_NE(json.find("muir.resilience.campaign.v1"),
              std::string::npos);
    EXPECT_NE(json.find("\"histogram\""), std::string::npos);
    EXPECT_NE(json.find("\"injections\""), std::string::npos);
}

TEST(Campaign, PinnedSiteIsHonored)
{
    // Pin a site; every record must target that event.
    workloads::Workload w = workloads::buildWorkload("saxpy");
    auto accel = workloads::lowerBaseline(w);
    // First resolve any auto site to learn a valid event id.
    CampaignResult probe = campaignOn("saxpy", "tokendrop", 1, 1);
    ASSERT_TRUE(probe.ok) << probe.error;
    uint64_t event = probe.records[0].plan.event;

    CampaignSpec spec;
    std::string error;
    ASSERT_TRUE(parseFaultSpec(
        "tokendrop@" + std::to_string(event), spec.fault, &error));
    spec.runs = 3;
    spec.seed = 99;
    CampaignResult r = runCampaign(
        *accel, *w.module, [&](ir::MemoryImage &m) { w.bind(m); }, spec);
    ASSERT_TRUE(r.ok) << r.error;
    for (const InjectionRecord &rec : r.records)
        EXPECT_EQ(rec.plan.event, event);
}

TEST(Campaign, PinnedSiteOutsideItsKindsPoolIsRejected)
{
    // saxpy's event 12 is a completion (nothing to fire twice or early)
    // and event 1 a loop control, not a sync.
    for (const char *spec : {"tokendup@12", "stuckvalid@12", "lostsync@1"}) {
        CampaignResult r = campaignOn("saxpy", spec, 1, 1);
        EXPECT_FALSE(r.ok) << spec;
        EXPECT_NE(r.error.find("is not a"), std::string::npos) << r.error;
        EXPECT_TRUE(r.records.empty()) << spec;
    }
    // A miss ordinal past the golden run's misses times nothing out.
    CampaignResult far = campaignOn("gemm", "dramtimeout@999999999", 1, 1);
    EXPECT_FALSE(far.ok);
    EXPECT_NE(far.error.find("out of range"), std::string::npos)
        << far.error;

    // A pinned lostspawn draws from the spawned entry events and drops
    // the entry's dispatch. msort's entries may also wait on a loop
    // hand-off, so pin the entry with the most inputs.
    for (const char *name : {"fib", "msort"}) {
        workloads::Workload w = workloads::buildWorkload(name);
        auto accel = workloads::lowerBaseline(w);
        auto golden = goldenIndex(w, *accel);
        const CompiledDdg &cd = *golden;
        auto dispatch = [&](uint32_t p) {
            return !(cd.record->flags[p] & kEvCompletion) &&
                   cd.node(p)->kind() == uir::NodeKind::ChildCall;
        };
        uint32_t entry = kNoId32;
        for (uint32_t e = 0; e < cd.numEvents; ++e) {
            if ((cd.record->flags[e] & (kEvEntry | kEvCompletion)) !=
                    kEvEntry ||
                (entry != kNoId32 &&
                 cd.numInputs(e) <= cd.numInputs(entry)))
                continue;
            for (uint32_t k = 0; k < cd.numInputs(e); ++k)
                if (dispatch(cd.input(e, k)))
                    entry = e;
        }
        ASSERT_NE(entry, kNoId32) << name;
        if (std::string(name) == "msort") {
            EXPECT_GT(cd.numInputs(entry), 1u);
        }
        CampaignResult pinned =
            campaignOn(name, "lostspawn@" + std::to_string(entry), 8, 7);
        ASSERT_TRUE(pinned.ok) << name << ": " << pinned.error;
        for (const InjectionRecord &rec : pinned.records) {
            EXPECT_EQ(rec.plan.event, entry) << name;
            EXPECT_TRUE(dispatch(static_cast<uint32_t>(rec.plan.producer)))
                << name << ": edge " << rec.plan.edge;
            EXPECT_EQ(rec.outcome, Outcome::Hang) << name;
        }
    }
}

TEST(Campaign, ExplicitLostSpawnEdgeIsHonouredAtAutoSites)
{
    // An auto-site lostspawn with :edge= draws from the spawned entries
    // that have that input and drops exactly it.
    workloads::Workload w = workloads::buildWorkload("msort");
    auto accel = workloads::lowerBaseline(w);
    auto golden = goldenIndex(w, *accel);
    CampaignResult r = campaignOn("msort", "lostspawn:edge=1", 3, 7);
    ASSERT_TRUE(r.ok) << r.error;
    ASSERT_EQ(r.records.size(), 3u);
    for (const InjectionRecord &rec : r.records) {
        EXPECT_EQ(rec.plan.edge, 1u);
        EXPECT_TRUE(golden->record->flags[rec.plan.event] & kEvEntry);
        EXPECT_EQ(rec.plan.producer,
                  golden->input(static_cast<uint32_t>(rec.plan.event), 1));
    }
    // No spawned entry of fib has a hundredth input.
    CampaignResult none = campaignOn("fib", "lostspawn:edge=99", 1, 7);
    EXPECT_FALSE(none.ok);
    EXPECT_NE(none.error.find("no spawned entry has an edge 99"),
              std::string::npos)
        << none.error;
}

} // namespace muir::sim
