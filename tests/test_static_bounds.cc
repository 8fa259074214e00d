/**
 * @file
 * μbound soundness gate: the static throughput bounds must hold
 * against the discrete-event simulator on every gate cell — all
 * built-in workloads under both the untransformed baseline and the
 * suite's standard μopt pipeline — and must keep holding on seeded
 * latency-perturbed variants of representative designs (the same
 * deterministic variants the μscope bench gate can inject).
 *
 * Two claims are checked per design:
 *   - whole-run: DesignBound::cycleLb <= simulated total cycles;
 *   - per-task: for every simulated invocation of a loop task with
 *     T >= 2 iterations, iiLb * (T - 1) <= the invocation's event
 *     span (max finish - min start over its logged node events). A
 *     loop-control node fires once per iteration plus once to exit,
 *     so an invocation with L loop-control events measures T = L - 1.
 */
#include <algorithm>
#include <map>

#include <gtest/gtest.h>

#include "gate/bench_gate.hh"
#include "uir/analysis/bound_report.hh"
#include "uir/analysis/ii_bound.hh"
#include "uopt/pass.hh"
#include "uopt/pipeline.hh"
#include "workloads/driver.hh"

namespace muir
{

using uir::Accelerator;
using uir::Task;
using uir::analysis::AnalysisManager;
using uir::analysis::BoundReportAnalysis;
using uir::analysis::IiBoundAnalysis;

namespace
{

/** Per-invocation aggregates from the schedule log. */
struct InvocationSpan
{
    const Task *task = nullptr;
    uint64_t minStart = UINT64_MAX;
    uint64_t maxFinish = 0;
    uint64_t lcEvents = 0;
};

/** @return the number of invocations actually measured. */
uint64_t
checkIiSoundness(const IiBoundAnalysis &ii, const sim::CompiledDdg &cd,
                 const sim::ScheduleLog &log, const std::string &label)
{
    uint64_t measured = 0;
    std::map<uint32_t, InvocationSpan> invs;
    for (uint32_t e = 0; e < cd.numEvents; ++e) {
        if (cd.nodeOf[e] == sim::kNoId32)
            continue; // Completion marker.
        const uir::Node *node = cd.nodes[cd.nodeOf[e]];
        InvocationSpan &v = invs[cd.invocation[e]];
        v.task = node->parent();
        v.minStart = std::min(v.minStart, log.start[e]);
        v.maxFinish = std::max(v.maxFinish, log.finish[e]);
        if (v.task != nullptr && node == v.task->loopControl())
            ++v.lcEvents;
    }
    for (const auto &[id, v] : invs) {
        if (v.task == nullptr || !v.task->isLoop() || v.lcEvents < 3)
            continue; // Need >= 2 iterations to measure an interval.
        uint64_t iterations = v.lcEvents - 1;
        uint64_t span = v.maxFinish - v.minStart;
        const uir::analysis::TaskBound &b = ii.of(*v.task);
        ++measured;
        EXPECT_LE(b.iiLb * (iterations - 1), span)
            << label << ": task " << v.task->name() << " invocation "
            << id << " ran " << iterations << " iterations in " << span
            << " cycles, below the static ii_lb " << b.iiLb;
        EXPECT_LE(b.iiRecurrence * (iterations - 1), span) << label;
        EXPECT_LE(b.iiControl * (iterations - 1), span) << label;
    }
    return measured;
}

/** Build one gate cell's design: lower, then run its pipeline. */
std::unique_ptr<Accelerator>
buildCell(const workloads::Workload &w, const std::string &passes)
{
    auto accel = workloads::lowerBaseline(w);
    if (!passes.empty()) {
        uopt::PassManager pm;
        std::string error;
        EXPECT_TRUE(uopt::buildPipeline(pm, passes, &error)) << error;
        pm.run(*accel);
    }
    return accel;
}

/**
 * Static bounds vs one simulated run of an already-built design.
 * @return the number of loop invocations the II check measured.
 */
uint64_t
checkDesign(const workloads::Workload &w, Accelerator &accel,
            const std::string &label)
{
    AnalysisManager am(accel);
    const uir::analysis::DesignBound &bound =
        am.get<BoundReportAnalysis>().design();
    const IiBoundAnalysis &ii = am.get<IiBoundAnalysis>();

    workloads::RunResult run = workloads::runOn(w, accel, {.log = true});
    EXPECT_TRUE(run.check.empty()) << label << ": " << run.check;

    EXPECT_GT(bound.cycleLb, 0u) << label;
    EXPECT_LE(bound.cycleLb, run.cycles)
        << label << ": static cycle bound (" << bound.bottleneckKind
        << " " << bound.bottleneckName << ") exceeds simulation";
    return checkIiSoundness(ii, *run.compiled, *run.log, label);
}

} // namespace

// ---------------------------------------------------------------------
// The full gate matrix: every workload x {baseline, standard pipeline}.

TEST(StaticBounds, SoundOnEveryGateCell)
{
    uint64_t cells = 0;
    uint64_t measured = 0;
    for (const gate::GateConfig &cell : gate::standardConfigs()) {
        SCOPED_TRACE(cell.workload + "/" + cell.config);
        workloads::Workload w = workloads::buildWorkload(cell.workload);
        auto accel = buildCell(w, cell.passes);
        measured += checkDesign(w, *accel,
                                cell.workload + "/" + cell.config);
        ++cells;
    }
    // The matrix covers every workload twice, and the II claim must
    // not pass vacuously: plenty of loop invocations get measured.
    EXPECT_EQ(cells, 2 * workloads::workloadNames().size());
    EXPECT_GT(measured, 100u);
}

// ---------------------------------------------------------------------
// Property test: bounds stay sound on latency-perturbed variants.
// Perturbations only ever slow a structure down, and the analyses
// read the perturbed latencies, so soundness must be preserved on
// every seeded variant the bench gate can produce.

TEST(StaticBounds, SoundOnSeededPerturbations)
{
    const char *names[] = {"saxpy", "fib", "gemm", "dense8", "relu_t"};
    for (const char *name : names) {
        workloads::Workload w = workloads::buildWorkload(name);
        for (uint64_t seed = 1; seed <= 32; ++seed) {
            auto accel = workloads::lowerBaseline(w);
            gate::Perturbation perturb;
            perturb.seed = seed;
            gate::perturbDesign(*accel, perturb,
                                std::string(name) + "/baseline");
            checkDesign(w, *accel,
                        std::string(name) + "/seed" +
                            std::to_string(seed));
        }
    }
}

// ---------------------------------------------------------------------
// The analyses are read-only: analyzing a design, then simulating it,
// must give the same cycles as simulating it fresh.

TEST(StaticBounds, AnalysisLeavesSimulationBitIdentical)
{
    for (const char *name : {"saxpy", "fib", "relu"}) {
        workloads::Workload w = workloads::buildWorkload(name);
        auto fresh = workloads::lowerBaseline(w);
        workloads::RunResult ref = workloads::runOn(w, *fresh);

        auto analyzed = workloads::lowerBaseline(w);
        AnalysisManager am(*analyzed);
        am.get<BoundReportAnalysis>();
        workloads::RunResult after = workloads::runOn(w, *analyzed);

        EXPECT_EQ(ref.cycles, after.cycles) << name;
        EXPECT_EQ(ref.firings, after.firings) << name;
    }
}

} // namespace muir
