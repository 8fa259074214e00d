/**
 * @file
 * Framework microbenchmarks (google-benchmark): throughput of the
 * toolchain itself — IR construction, Stage 1+2 lowering, μopt pass
 * application, functional execution, compiling a recorded DDG into
 * its replay index, and cycle-level scheduling.
 * These gate the "playground" claim of §5: the loop from idea to
 * measured accelerator must be seconds, not hours.
 */
#include <benchmark/benchmark.h>

#include <algorithm>
#include <chrono>

#include "common.hh"
#include "frontend/lower.hh"
#include "rtl/chisel.hh"
#include "rtl/firrtl.hh"
#include "sim/compiled_ddg.hh"
#include "sim/exec.hh"
#include "sim/timing.hh"
#include "support/logging.hh"
#include "support/metrics.hh"
#include "uopt/passes.hh"
#include "workloads/driver.hh"
#include "workloads/workload.hh"

namespace
{

using namespace muir;

void
BM_BuildWorkloadIr(benchmark::State &state)
{
    setVerbose(false);
    for (auto _ : state) {
        auto w = workloads::buildWorkload("gemm");
        benchmark::DoNotOptimize(w.module->numInsts());
    }
}
BENCHMARK(BM_BuildWorkloadIr);

void
BM_LowerToUir(benchmark::State &state)
{
    setVerbose(false);
    auto w = workloads::buildWorkload("gemm");
    for (auto _ : state) {
        auto accel = workloads::lowerBaseline(w);
        benchmark::DoNotOptimize(accel->numNodes());
    }
}
BENCHMARK(BM_LowerToUir);

void
BM_OpFusionPass(benchmark::State &state)
{
    setVerbose(false);
    auto w = workloads::buildWorkload("rgb2yuv");
    for (auto _ : state) {
        state.PauseTiming();
        auto accel = workloads::lowerBaseline(w);
        state.ResumeTiming();
        uopt::OpFusionPass pass;
        pass.run(*accel);
        benchmark::DoNotOptimize(accel->numNodes());
    }
}
BENCHMARK(BM_OpFusionPass);

void
BM_FunctionalExecution(benchmark::State &state)
{
    setVerbose(false);
    auto w = workloads::buildWorkload("gemm");
    auto accel = workloads::lowerBaseline(w);
    for (auto _ : state) {
        ir::MemoryImage mem(*w.module);
        w.bind(mem);
        sim::UirExecutor exec(*accel, mem, /*record_ddg=*/false);
        auto outs = exec.run();
        benchmark::DoNotOptimize(outs.size());
    }
    state.SetItemsProcessed(state.iterations() * 24 * 24 * 24);
}
BENCHMARK(BM_FunctionalExecution);

void
BM_CycleSimulation(benchmark::State &state)
{
    setVerbose(false);
    auto w = workloads::buildWorkload("gemm");
    auto accel = workloads::lowerBaseline(w);
    ir::MemoryImage mem(*w.module);
    w.bind(mem);
    sim::UirExecutor exec(*accel, mem);
    exec.run({});
    for (auto _ : state) {
        auto timing =
            sim::scheduleDdg(sim::compileDdg(*accel, exec.ddg()));
        benchmark::DoNotOptimize(timing.cycles);
    }
    state.SetItemsProcessed(state.iterations() *
                            exec.ddg().numEvents);
}
BENCHMARK(BM_CycleSimulation);

void
BM_CompileDdg(benchmark::State &state)
{
    setVerbose(false);
    auto w = workloads::buildWorkload("gemm");
    auto accel = workloads::lowerBaseline(w);
    ir::MemoryImage mem(*w.module);
    w.bind(mem);
    sim::UirExecutor exec(*accel, mem);
    exec.run({});
    for (auto _ : state) {
        auto compiled = sim::compileDdg(*accel, exec.ddg());
        benchmark::DoNotOptimize(compiled.numEvents);
    }
    state.SetItemsProcessed(state.iterations() *
                            exec.ddg().numEvents);
}
BENCHMARK(BM_CompileDdg);

void
BM_CycleSimulationCompiled(benchmark::State &state)
{
    setVerbose(false);
    auto w = workloads::buildWorkload("gemm");
    auto accel = workloads::lowerBaseline(w);
    ir::MemoryImage mem(*w.module);
    w.bind(mem);
    sim::UirExecutor exec(*accel, mem);
    exec.run({});
    auto compiled = sim::compileDdg(*accel, exec.ddg());
    for (auto _ : state) {
        auto timing = sim::scheduleDdg(compiled);
        benchmark::DoNotOptimize(timing.cycles);
    }
    state.SetItemsProcessed(state.iterations() * compiled.numEvents);
}
BENCHMARK(BM_CycleSimulationCompiled);

void
BM_ChiselEmission(benchmark::State &state)
{
    setVerbose(false);
    auto w = workloads::buildWorkload("gemm");
    auto accel = workloads::lowerBaseline(w);
    for (auto _ : state) {
        std::string text = rtl::emitChisel(*accel);
        benchmark::DoNotOptimize(text.size());
    }
}
BENCHMARK(BM_ChiselEmission);

void
BM_FirrtlElaboration(benchmark::State &state)
{
    setVerbose(false);
    auto w = workloads::buildWorkload("gemm");
    auto accel = workloads::lowerBaseline(w);
    for (auto _ : state) {
        auto circuit = rtl::lowerToFirrtl(*accel);
        benchmark::DoNotOptimize(circuit.numNodes());
    }
}
BENCHMARK(BM_FirrtlElaboration);

/**
 * Machine-readable replay-throughput rows on the largest recorded
 * graph (gemm). `compile_and_replay` times a copy of the record, a
 * compileDdg and a scheduleDdg per run and reports the record's
 * bytes/event; `compiled_replay` times a scheduleDdg of one shared
 * index and reports the index's bytes/event. Emitted as
 * BENCH_framework_microbench.json so layout changes are visible in
 * regression diffs independently of the perf gate.
 */
void
writeSchedulerThroughput()
{
    using Clock = std::chrono::steady_clock;
    setVerbose(false);
    auto w = workloads::buildWorkload("gemm");
    auto accel = workloads::lowerBaseline(w);
    ir::MemoryImage mem(*w.module);
    w.bind(mem);
    sim::UirExecutor exec(*accel, mem);
    exec.run({});
    const sim::Ddg &ddg = exec.ddg();
    auto compiled = sim::compileDdg(*accel, ddg);
    const double events = double(ddg.numEvents);

    // Best-of-N wall seconds: the minimum is the least-noisy estimator
    // for a CPU-bound loop on a shared CI box.
    auto best_seconds = [](const std::function<void()> &fn) {
        double best = 1e30;
        for (unsigned rep = 0; rep < 5; ++rep) {
            auto t0 = Clock::now();
            fn();
            std::chrono::duration<double> dt = Clock::now() - t0;
            best = std::min(best, dt.count());
        }
        return best;
    };
    double compile_s = best_seconds(
        [&] { benchmark::DoNotOptimize(
                  sim::scheduleDdg(sim::compileDdg(*accel, ddg))
                      .cycles); });
    double compiled_s = best_seconds(
        [&] { benchmark::DoNotOptimize(
                  sim::scheduleDdg(compiled).cycles); });

    // Peak ready-queue depth, from the scheduler's own µmeter gauge.
    // Metered separately from the timed runs so the throughput numbers
    // stay free of instrumentation cost; the schedule itself is
    // bit-identical either way.
    uint64_t queue_peak = 0;
    {
        metrics::Registry registry;
        metrics::ScopedSink sink(&registry);
        sim::scheduleDdg(compiled);
        queue_peak =
            registry.snapshot().gauge("sim.ready_queue_peak");
    }

    bench::BenchJson out("framework_microbench");
    out.add("compile_and_replay", "gemm",
            {{"events_per_sec", events / compile_s},
             {"bytes_per_event", double(sim::ddgBytes(ddg)) / events},
             {"ready_queue_peak", double(queue_peak)}});
    out.add("compiled_replay", "gemm",
            {{"events_per_sec", events / compiled_s},
             {"bytes_per_event", double(compiled.bytes()) / events},
             {"ready_queue_peak", double(queue_peak)}});
    std::printf("wrote %s\n", out.write().c_str());
}

} // namespace

int
main(int argc, char **argv)
{
    benchmark::Initialize(&argc, argv);
    if (benchmark::ReportUnrecognizedArguments(argc, argv))
        return 1;
    benchmark::RunSpecifiedBenchmarks();
    benchmark::Shutdown();
    writeSchedulerThroughput();
    return 0;
}
