/**
 * @file
 * Ablation sweeps over the microarchitecture parameters DESIGN.md
 * calls out, isolating each knob the μopt passes turn:
 *
 *   (a) task-queue depth (Pass 1's parameter) on a nested loop nest;
 *   (b) loop-control pipeline stages (what Pass 5's re-timing buys);
 *   (c) L1 capacity across a working-set sweep (the §6.4 fits-or-not
 *       effect);
 *   (d) junction read ports (§3.4's time-multiplexing width).
 */
#include <optional>

#include "common.hh"

using namespace muir;
using namespace muir::bench;

namespace
{

/**
 * Runs the points of one sweep over parameters the executor does not
 * read: the first point executes and records, and every later one
 * retargets that record (sim::retarget refuses a point whose dataflow
 * differs).
 */
class TimingSweep
{
  public:
    workloads::RunResult
    run(workloads::Workload w, std::unique_ptr<uir::Accelerator> accel)
    {
        workloads::RunOptions options;
        sim::CompiledDdg index;
        if (first_) {
            index = sim::retarget(*first_->compiled, *accel);
            options.compiled = &index;
        } else {
            options.keepCompiled = true;
        }
        workloads::RunResult run = workloads::runOn(w, *accel, options);
        muir_assert(run.check.empty(), "ablation broke %s: %s",
                    w.name.c_str(), run.check.c_str());
        if (!first_)
            first_ = Point{std::move(w), std::move(accel), run.compiled};
        return run;
    }

  private:
    /** The recording point; its accelerator's nodes name its module's
     *  globals, so both stay alive with the record. */
    struct Point
    {
        workloads::Workload w;
        std::unique_ptr<uir::Accelerator> accel;
        std::shared_ptr<const sim::CompiledDdg> compiled;
    };
    std::optional<Point> first_;
};

/** gemm's cycles after @p tweak, as a point of @p sweep. */
uint64_t
gemmCyclesWith(const std::function<void(uir::Accelerator &)> &tweak,
               TimingSweep &sweep)
{
    auto w = workloads::buildWorkload("gemm");
    auto accel = workloads::lowerBaseline(w);
    tweak(*accel);
    return sweep.run(std::move(w), std::move(accel)).cycles;
}

} // namespace

int
main()
{
    QuietLogs quiet;

    // (a) Queue depth sweep.
    {
        AsciiTable t({"queue depth", "gemm cycles"});
        TimingSweep sweep;
        for (unsigned depth : {1u, 2u, 4u, 8u, 16u}) {
            uint64_t cycles = gemmCyclesWith(
                [&](uir::Accelerator &a) {
                    for (const auto &task : a.tasks())
                        task->setQueueDepth(depth);
                },
                sweep);
            t.addRow({fmt("%u", depth),
                      fmt("%llu", (unsigned long long)cycles)});
        }
        std::printf("%s", t.render("Ablation (a): task-queue depth — "
                                   "deeper queues overlap nested-loop "
                                   "invocations until work-bound")
                              .c_str());
    }

    // (b) Loop-control stages sweep. The stages are a node attribute,
    // part of the dataflow key, so every point is a sweep of its own
    // and records.
    {
        AsciiTable t({"ctrl stages", "gemm cycles"});
        for (unsigned stages : {1u, 2u, 3u, 5u, 8u}) {
            TimingSweep own;
            uint64_t cycles = gemmCyclesWith(
                [&](uir::Accelerator &a) {
                    for (const auto &task : a.tasks())
                        if (task->isLoop())
                            task->loopControl()->setCtrlStages(stages);
                },
                own);
            t.addRow({fmt("%u", stages),
                      fmt("%llu", (unsigned long long)cycles)});
        }
        std::printf("%s",
                    t.render("Ablation (b): loop-control pipeline "
                             "stages — the recurrence Pass 5 re-times")
                        .c_str());
    }

    // (c) Cache-capacity sweep against a fixed working set.
    {
        AsciiTable t({"L1 KB", "2mm cycles", "misses"});
        TimingSweep sweep;
        for (unsigned kb : {1u, 2u, 4u, 16u, 64u}) {
            auto w = workloads::buildWorkload("2mm");
            frontend::LowerOptions opts;
            opts.cacheSizeKb = kb;
            auto accel =
                frontend::lowerToUir(*w.module, w.kernel, opts);
            auto run = sweep.run(std::move(w), std::move(accel));
            t.addRow({fmt("%u", kb),
                      fmt("%llu", (unsigned long long)run.cycles),
                      fmt("%llu", (unsigned long long)run.stats.get(
                                      "cache.misses"))});
        }
        std::printf("%s",
                    t.render("Ablation (c): L1 capacity vs working set "
                             "(2MM ~2.3KB live) — misses collapse once "
                             "the set fits")
                        .c_str());
    }

    // (d) Junction read-port sweep on the memory-heavy FFT.
    {
        AsciiTable t({"read ports", "fft cycles"});
        TimingSweep sweep;
        for (unsigned ports : {1u, 2u, 4u, 8u}) {
            auto w = workloads::buildWorkload("fft");
            auto accel = workloads::lowerBaseline(w);
            // Make iterations fast enough to stress the junction.
            uopt::PassManager pm;
            pm.add(std::make_unique<uopt::TaskQueuingPass>());
            pm.add(std::make_unique<uopt::OpFusionPass>());
            pm.add(std::make_unique<uopt::BankingPass>(4));
            pm.run(*accel);
            for (const auto &task : accel->tasks())
                task->setJunctionPorts(ports, std::max(1u, ports / 2));
            auto run = sweep.run(std::move(w), std::move(accel));
            t.addRow({fmt("%u", ports),
                      fmt("%llu", (unsigned long long)run.cycles)});
        }
        std::printf("%s",
                    t.render("Ablation (d): junction ports — §3.4's "
                             "time-multiplexing width on FFT")
                        .c_str());
    }
    return 0;
}
