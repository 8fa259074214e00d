/**
 * @file
 * μlint tests: every check in the catalog fires on a deliberately
 * broken graph (with its stable ID visible in both renderers), the
 * race detector's static verdicts are cross-checked against the
 * simulator's dynamic conflict observer, the PassManager escalation
 * policy works, and every built-in workload baseline lints clean.
 */
#include <gtest/gtest.h>

#include "race_fixtures.hh"
#include "sim/conflict.hh"
#include "sim/exec.hh"
#include "uir/lint/lint.hh"
#include "uopt/pass.hh"
#include "workloads/driver.hh"
#include "workloads/workload.hh"

namespace muir
{

using uir::Accelerator;
using uir::Node;
using uir::NodeKind;
using uir::Structure;
using uir::StructureKind;
using uir::Task;
using uir::TaskKind;
using uir::lint::Diagnostic;
using uir::lint::Linter;
using uir::lint::Severity;

namespace
{

std::vector<Diagnostic>
lintAll(const Accelerator &accel)
{
    return Linter::standard().run(accel);
}

const Diagnostic *
findCheck(const std::vector<Diagnostic> &diags, const std::string &id)
{
    for (const Diagnostic &d : diags)
        if (d.check == id)
            return &d;
    return nullptr;
}

unsigned
countCheck(const std::vector<Diagnostic> &diags, const std::string &id)
{
    unsigned n = 0;
    for (const Diagnostic &d : diags)
        if (d.check == id)
            ++n;
    return n;
}

/** A minimal valid accelerator: root computing out = a + b. */
struct MicroGraph
{
    Accelerator accel{"micro", nullptr};
    Task *task;
    Node *a, *b, *sum, *out;

    MicroGraph()
    {
        accel.addStructure(StructureKind::Cache, "l1")->addSpace(0);
        task = accel.addTask(TaskKind::Root, "root", nullptr);
        accel.setRoot(task);
        a = task->addLiveIn(ir::Type::i32(), "a");
        b = task->addLiveIn(ir::Type::i32(), "b");
        sum = task->addCompute(ir::Op::Add, ir::Type::i32(), "sum");
        sum->addInput(a);
        sum->addInput(b);
        out = task->addLiveOut(ir::Type::i32(), "out");
        out->addInput(sum);
    }
};

/**
 * A tiled task hammering a scratchpad: 8 tiles x (2 loads + 1 store)
 * against banks x 1 ports.
 */
struct TiledGraph
{
    Accelerator accel{"tiled", nullptr};
    Structure *spad;
    Task *task;

    explicit TiledGraph(unsigned banks)
    {
        spad = accel.addStructure(StructureKind::Scratchpad, "spad");
        spad->addSpace(0);
        spad->setBanks(banks);
        spad->setPortsPerBank(1);
        task = accel.addTask(TaskKind::Root, "root", nullptr);
        accel.setRoot(task);
        task->setNumTiles(8);
        Node *a0 = task->addConstInt(ir::Type::i32(), 0);
        Node *a1 = task->addConstInt(ir::Type::i32(), 4);
        Node *a2 = task->addConstInt(ir::Type::i32(), 8);
        Node *l0 = task->addLoad(ir::Type::i32(), 0, "l0");
        l0->addInput(a0);
        Node *l1 = task->addLoad(ir::Type::i32(), 0, "l1");
        l1->addInput(a1);
        Node *s = task->addCompute(ir::Op::Add, ir::Type::i32(), "s");
        s->addInput(l0);
        s->addInput(l1);
        Node *st = task->addStore(0, "st");
        st->addInput(s);
        st->addInput(a2);
    }
};

struct NopPass : uopt::Pass
{
    std::string name() const override { return "nop"; }
    void run(Accelerator &) override {}
};

} // namespace

// ---------------------------------------------------------------------
// Catalog sanity.

TEST(Lint, StandardLinterCoversTheCatalog)
{
    Linter linter = Linter::standard();
    ASSERT_EQ(linter.checks().size(), 8u);
    EXPECT_STREQ(linter.checks()[0]->id(), "G001");
    EXPECT_STREQ(linter.checks()[1]->id(), "R001");
    EXPECT_STREQ(linter.checks()[2]->id(), "D001");
    EXPECT_STREQ(linter.checks()[3]->id(), "P001");
    EXPECT_STREQ(linter.checks()[4]->id(), "X001");
    EXPECT_STREQ(linter.checks()[5]->id(), "A001");
    EXPECT_STREQ(linter.checks()[6]->id(), "A002");
    EXPECT_STREQ(linter.checks()[7]->id(), "A003");
    for (const auto &c : linter.checks()) {
        EXPECT_NE(std::string(c->name()), "");
        EXPECT_NE(std::string(c->description()), "");
    }
}

TEST(Lint, CleanGraphHasNoDiagnostics)
{
    MicroGraph g;
    EXPECT_TRUE(lintAll(g.accel).empty());
}

// ---------------------------------------------------------------------
// Structural checks (G001/U001/U002/W001).

TEST(LintStructural, UnservedSpaceIsU001)
{
    Accelerator accel{"nospace", nullptr};
    Task *task = accel.addTask(TaskKind::Root, "root", nullptr);
    accel.setRoot(task);
    Node *addr = task->addConstInt(ir::Type::i32(), 0);
    Node *ld = task->addLoad(ir::Type::i32(), 7, "ld");
    ld->addInput(addr);
    Node *out = task->addLiveOut(ir::Type::i32(), "out");
    out->addInput(ld);

    auto diags = lintAll(accel);
    const Diagnostic *d = findCheck(diags, "U001");
    ASSERT_NE(d, nullptr);
    EXPECT_EQ(d->severity, Severity::Error);
    EXPECT_EQ(d->node, ld);
    EXPECT_NE(d->message.find("space 7"), std::string::npos);
    EXPECT_NE(d->fix.find("scratchpad or cache"), std::string::npos);
}

TEST(LintStructural, DoublyOwnedSpaceIsU002)
{
    MicroGraph g;
    g.accel.addStructure(StructureKind::Scratchpad, "s1")->addSpace(3);
    g.accel.addStructure(StructureKind::Scratchpad, "s2")->addSpace(3);

    auto diags = lintAll(g.accel);
    const Diagnostic *d = findCheck(diags, "U002");
    ASSERT_NE(d, nullptr);
    EXPECT_EQ(d->severity, Severity::Error);
    EXPECT_NE(d->message.find("owned by both"), std::string::npos);
}

TEST(LintStructural, CallWidthMismatchIsW001)
{
    MicroGraph g;
    Task *callee = g.accel.addTask(TaskKind::Func, "wide", g.task);
    Node *x = callee->addLiveIn(ir::Type::i64(), "x");
    Node *ret = callee->addLiveOut(ir::Type::i64(), "ret");
    ret->addInput(x);
    Node *call = g.task->addChildCall(callee, /*spawn=*/false, "call");
    call->addInput(g.sum); // 32-bit argument into a 64-bit live-in.

    auto diags = lintAll(g.accel);
    const Diagnostic *d = findCheck(diags, "W001");
    ASSERT_NE(d, nullptr);
    EXPECT_EQ(d->severity, Severity::Error);
    EXPECT_EQ(d->node, call);
    EXPECT_NE(d->message.find("64 bits"), std::string::npos);
}

TEST(LintStructural, VerifierErrorsSurfaceAsG001)
{
    MicroGraph g;
    Task *other = g.accel.addTask(TaskKind::Func, "other", g.task);
    Node *foreign = other->addConstInt(ir::Type::i32(), 1);
    Node *bad = g.task->addCompute(ir::Op::Add, ir::Type::i32(), "bad");
    bad->addInput(foreign);
    bad->addInput(foreign);

    auto diags = lintAll(g.accel);
    const Diagnostic *d = findCheck(diags, "G001");
    ASSERT_NE(d, nullptr);
    EXPECT_EQ(d->severity, Severity::Error);
    EXPECT_NE(d->message.find("cross-task"), std::string::npos);
}

TEST(LintStructural, CyclicDataflowIsG001NotACrash)
{
    MicroGraph g;
    Node *x = g.task->addCompute(ir::Op::Add, ir::Type::i32(), "x");
    x->addInput(g.sum);
    x->addInput(g.a);
    g.sum->rewireInput(0, x, 0); // sum <-> x combinational cycle.

    auto diags = lintAll(g.accel);
    const Diagnostic *d = findCheck(diags, "G001");
    ASSERT_NE(d, nullptr);
    EXPECT_NE(d->message.find("not a DAG"), std::string::npos);
}

TEST(LintStructural, ErrorsSuppressBehaviouralChecks)
{
    // The broken graph also contains a dead node; behavioural checks
    // must not run (they assume a well-formed graph).
    Accelerator accel{"broken", nullptr};
    Task *task = accel.addTask(TaskKind::Root, "root", nullptr);
    accel.setRoot(task);
    Node *addr = task->addConstInt(ir::Type::i32(), 0);
    Node *ld = task->addLoad(ir::Type::i32(), 9, "ld");
    ld->addInput(addr);
    Node *dead = task->addCompute(ir::Op::Add, ir::Type::i32(), "dead");
    dead->addInput(ld);
    dead->addInput(ld);

    auto diags = lintAll(accel);
    EXPECT_NE(findCheck(diags, "U001"), nullptr);
    EXPECT_EQ(findCheck(diags, "X001"), nullptr);
}

// ---------------------------------------------------------------------
// R001 race.mem — static verdicts, then dynamic confirmation.

TEST(LintRace, ParallelStoresToOneSlotRace)
{
    SpawnKernel k(8, /*same_slot=*/true);
    auto accel = k.lower();

    auto diags = lintAll(*accel);
    const Diagnostic *d = findCheck(diags, "R001");
    ASSERT_NE(d, nullptr) << uir::lint::renderText(diags);
    EXPECT_EQ(d->severity, Severity::Warning);
    EXPECT_EQ(d->fix, "insert sync");
    EXPECT_NE(d->message.find("may race"), std::string::npos);
    EXPECT_NE(d->message.find("across loop iterations"),
              std::string::npos);
}

TEST(LintRace, IterationPrivateStoresAreClean)
{
    SpawnKernel k(8, /*same_slot=*/false);
    auto accel = k.lower();

    auto diags = lintAll(*accel);
    EXPECT_EQ(findCheck(diags, "R001"), nullptr)
        << uir::lint::renderText(diags);
}

TEST(LintRace, ConflictObserverConfirmsStaticRace)
{
    SpawnKernel k(8, /*same_slot=*/true);
    auto accel = k.lower();
    ASSERT_NE(findCheck(lintAll(*accel), "R001"), nullptr);

    // The dynamic side: replay the graph and look for overlapping
    // accesses ordered only by the memory system.
    ir::MemoryImage mem(k.m);
    k.bind(mem);
    sim::UirExecutor exec(*accel, mem);
    exec.run({});
    auto conflicts =
        sim::findConflicts(sim::compileDdg(*accel, exec.takeDdg()));
    ASSERT_FALSE(conflicts.empty());
    for (const auto &c : conflicts) {
        ASSERT_NE(c.firstNode, nullptr);
        ASSERT_NE(c.secondNode, nullptr);
        EXPECT_TRUE(c.firstNode->kind() == NodeKind::Store ||
                    c.secondNode->kind() == NodeKind::Store);
    }
}

TEST(LintRace, ConflictObserverAgreesBaselineIsClean)
{
    SpawnKernel k(8, /*same_slot=*/false);
    auto accel = k.lower();
    EXPECT_EQ(findCheck(lintAll(*accel), "R001"), nullptr);

    ir::MemoryImage mem(k.m);
    k.bind(mem);
    sim::UirExecutor exec(*accel, mem);
    exec.run({});
    EXPECT_TRUE(
        sim::findConflicts(sim::compileDdg(*accel, exec.takeDdg())).empty());
}

// ---------------------------------------------------------------------
// D001/D002/D003 — spawn-graph deadlock and liveness.

TEST(LintDeadlock, AwaitedCallCycleIsD001)
{
    Accelerator accel{"cyc", nullptr};
    Task *root = accel.addTask(TaskKind::Root, "root", nullptr);
    accel.setRoot(root);
    Task *a = accel.addTask(TaskKind::Func, "A", root);
    Task *b = accel.addTask(TaskKind::Func, "B", a);
    root->addChildCall(a, /*spawn=*/false, "call_a");
    a->addChildCall(b, /*spawn=*/false, "call_b");
    b->addChildCall(a, /*spawn=*/false, "call_back");

    auto diags = lintAll(accel);
    const Diagnostic *d = findCheck(diags, "D001");
    ASSERT_NE(d, nullptr) << uir::lint::renderText(diags);
    EXPECT_EQ(d->severity, Severity::Warning);
    EXPECT_NE(d->message.find("task-call cycle"), std::string::npos);
    EXPECT_EQ(countCheck(diags, "D001"), 1u); // Cycle reported once.
}

TEST(LintDeadlock, UnjoinedSpawnIsD002)
{
    Accelerator accel{"leak", nullptr};
    Task *root = accel.addTask(TaskKind::Root, "root", nullptr);
    accel.setRoot(root);
    Task *f = accel.addTask(TaskKind::Func, "F", root);
    Node *c = f->addConstInt(ir::Type::i32(), 1);
    Node *out = f->addLiveOut(ir::Type::i32(), "out");
    out->addInput(c);
    Node *spawn = root->addChildCall(f, /*spawn=*/true, "sp");

    auto diags = lintAll(accel);
    const Diagnostic *d = findCheck(diags, "D002");
    ASSERT_NE(d, nullptr) << uir::lint::renderText(diags);
    EXPECT_EQ(d->severity, Severity::Warning);
    EXPECT_EQ(d->node, spawn);
    EXPECT_EQ(d->fix, "insert sync");
}

TEST(LintDeadlock, SyncedSpawnIsNotD002)
{
    Accelerator accel{"joined", nullptr};
    Task *root = accel.addTask(TaskKind::Root, "root", nullptr);
    accel.setRoot(root);
    Task *f = accel.addTask(TaskKind::Func, "F", root);
    Node *c = f->addConstInt(ir::Type::i32(), 1);
    Node *out = f->addLiveOut(ir::Type::i32(), "out");
    out->addInput(c);
    Node *spawn = root->addChildCall(f, /*spawn=*/true, "sp");
    Node *sync = root->addNode(NodeKind::SyncNode, "sync");
    sync->setIrType(ir::Type::i1());
    sync->addInput(spawn);

    EXPECT_EQ(findCheck(lintAll(accel), "D002"), nullptr);
}

TEST(LintDeadlock, SpawnRecursionIsD003)
{
    Accelerator accel{"rec", nullptr};
    Task *root = accel.addTask(TaskKind::Root, "root", nullptr);
    accel.setRoot(root);
    Task *a = accel.addTask(TaskKind::Func, "A", root);
    a->addChildCall(a, /*spawn=*/true, "self");
    Node *call = root->addChildCall(a, /*spawn=*/false, "call");
    Node *sync = root->addNode(NodeKind::SyncNode, "sync");
    sync->setIrType(ir::Type::i1());
    sync->addInput(call);

    auto diags = lintAll(accel);
    const Diagnostic *d = findCheck(diags, "D003");
    ASSERT_NE(d, nullptr) << uir::lint::renderText(diags);
    EXPECT_EQ(d->severity, Severity::Warning);
    EXPECT_NE(d->message.find("spawn chain"), std::string::npos);
    EXPECT_EQ(d->fix.rfind("queue:", 0), 0u) << d->fix;
}

// ---------------------------------------------------------------------
// P001 port.pressure.

TEST(LintPorts, TiledTaskOverwhelmsSingleBank)
{
    TiledGraph g(/*banks=*/1);
    auto diags = lintAll(g.accel);
    const Diagnostic *d = findCheck(diags, "P001");
    ASSERT_NE(d, nullptr) << uir::lint::renderText(diags);
    EXPECT_EQ(d->severity, Severity::Warning);
    EXPECT_EQ(d->structure, g.spad);
    EXPECT_EQ(d->fix, "bank:8"); // 8 tiles x 3 ports vs 1-port spad.
}

TEST(LintPorts, BankingRestoresBalance)
{
    TiledGraph g(/*banks=*/8);
    EXPECT_TRUE(lintAll(g.accel).empty())
        << uir::lint::renderText(lintAll(g.accel));
}

// ---------------------------------------------------------------------
// X001 dead.node.

TEST(LintDead, OrphanComputeIsWarning)
{
    MicroGraph g;
    Node *dead = g.task->addCompute(ir::Op::Mul, ir::Type::i32(), "m");
    dead->addInput(g.a);
    dead->addInput(g.b);

    auto diags = lintAll(g.accel);
    const Diagnostic *d = findCheck(diags, "X001");
    ASSERT_NE(d, nullptr);
    EXPECT_EQ(d->severity, Severity::Warning);
    EXPECT_EQ(d->node, dead);
    EXPECT_EQ(d->fix, "remove the dead node");
}

TEST(LintDead, UnusedLiveInIsOnlyANote)
{
    MicroGraph g;
    Node *unused = g.task->addLiveIn(ir::Type::i32(), "unused");

    auto diags = lintAll(g.accel);
    const Diagnostic *d = findCheck(diags, "X001");
    ASSERT_NE(d, nullptr);
    EXPECT_EQ(d->severity, Severity::Note);
    EXPECT_EQ(d->node, unused);
}

// ---------------------------------------------------------------------
// Renderers: stable IDs in text and JSON.

TEST(LintRender, TextCarriesSeverityIdLocusAndFix)
{
    TiledGraph g(/*banks=*/1);
    std::string text = uir::lint::renderText(lintAll(g.accel));
    EXPECT_NE(text.find("warning [P001] structure spad"),
              std::string::npos)
        << text;
    EXPECT_NE(text.find("(fix: bank:8)"), std::string::npos) << text;
}

TEST(LintRender, JsonCarriesTheSameDiagnostics)
{
    TiledGraph g(/*banks=*/1);
    std::string json = uir::lint::renderJson(lintAll(g.accel));
    EXPECT_NE(json.find("\"check\": \"P001\""), std::string::npos)
        << json;
    EXPECT_NE(json.find("\"severity\": \"warning\""), std::string::npos);
    EXPECT_NE(json.find("\"structure\": \"spad\""), std::string::npos);
    EXPECT_NE(json.find("\"fix\": \"bank:8\""), std::string::npos);
}

TEST(LintRender, JsonEscapesControlCharacters)
{
    std::vector<Diagnostic> diags(1);
    diags[0].severity = Severity::Note;
    diags[0].check = "T000";
    diags[0].message = "a \"quoted\"\nline";
    std::string json = uir::lint::renderJson(diags);
    EXPECT_NE(json.find("a \\\"quoted\\\"\\nline"), std::string::npos)
        << json;
}

// ---------------------------------------------------------------------
// PassManager escalation policy.

TEST(PassManagerLint, ErrorAfterPassPanics)
{
    Accelerator accel{"bad", nullptr};
    Task *task = accel.addTask(TaskKind::Root, "root", nullptr);
    accel.setRoot(task);
    Node *addr = task->addConstInt(ir::Type::i32(), 0);
    Node *ld = task->addLoad(ir::Type::i32(), 9, "ld");
    ld->addInput(addr);

    uopt::PassManager pm;
    pm.add(std::make_unique<NopPass>());
    EXPECT_DEATH(pm.run(accel), "graph invalid after pass nop");
}

TEST(PassManagerLint, WarningsAreRecordedButNotFatal)
{
    MicroGraph g;
    Node *dead = g.task->addCompute(ir::Op::Mul, ir::Type::i32(), "m");
    dead->addInput(g.a);
    dead->addInput(g.b);

    uopt::PassManager pm;
    pm.add(std::make_unique<NopPass>());
    pm.run(g.accel); // Warning < default Error threshold: no panic.
    EXPECT_NE(findCheck(pm.lastDiagnostics(), "X001"), nullptr);
}

TEST(PassManagerLint, FailSeverityEscalatesWarnings)
{
    MicroGraph g;
    Node *dead = g.task->addCompute(ir::Op::Mul, ir::Type::i32(), "m");
    dead->addInput(g.a);
    dead->addInput(g.b);

    uopt::PassManager pm;
    pm.add(std::make_unique<NopPass>());
    pm.setFailSeverity(Severity::Warning);
    EXPECT_DEATH(pm.run(g.accel), "graph invalid after pass nop");
}

TEST(PassManagerLint, DisablingLintSkipsTheGate)
{
    Accelerator accel{"bad", nullptr};
    Task *task = accel.addTask(TaskKind::Root, "root", nullptr);
    accel.setRoot(task);
    Node *addr = task->addConstInt(ir::Type::i32(), 0);
    Node *ld = task->addLoad(ir::Type::i32(), 9, "ld");
    ld->addInput(addr);

    uopt::PassManager pm;
    pm.add(std::make_unique<NopPass>());
    pm.setLintEnabled(false);
    pm.run(accel); // No lint, no panic.
    EXPECT_TRUE(pm.lastDiagnostics().empty());
}

// ---------------------------------------------------------------------
// Acceptance: every built-in workload baseline lints clean.

TEST(LintBaselines, EveryWorkloadBaselineIsClean)
{
    for (const std::string &name : workloads::workloadNames()) {
        workloads::Workload w = workloads::buildWorkload(name);
        auto accel = workloads::lowerBaseline(w);
        auto diags = lintAll(*accel);
        EXPECT_TRUE(diags.empty())
            << name << ":\n" << uir::lint::renderText(diags);
    }
}

} // namespace muir
