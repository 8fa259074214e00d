/**
 * @file
 * Retarget against re-record over serve_sweep's design grid: the seven
 * programs µserve's sweep caches, twelve timing variants each (queue
 * depth × bank count, × tile count on Cilk). Per design point it times
 * what a design-cache miss without a record costs (execute, record,
 * compile) against what a miss of a known dataflow costs (retarget the
 * first variant's record), and it sizes the index each way: one shared
 * record plus a timing half per design, against a whole index per
 * design.
 *
 * Every retargeted index must share the first variant's record and
 * replay to the re-recorded index's cycles; the binary exits non-zero
 * otherwise. Results go to BENCH_retarget.json: one "rerecord" and one
 * "retarget" row per design point and one "summary" row per program.
 * Wall times are the best of kReps on this host.
 */
#include "common.hh"

#include <algorithm>

#include "sim/exec.hh"
#include "sim/timing.hh"
#include "uir/serialize.hh"
#include "uopt/pipeline.hh"

using namespace muir;
using namespace muir::bench;

namespace
{

constexpr int kReps = 3;

/** serve_sweep's twelve timing variants of @p w. */
std::vector<std::string>
sweepVariants(const workloads::Workload &w)
{
    std::vector<std::string> out;
    for (unsigned q : {2u, 4u, 8u}) {
        if (w.suite == workloads::Suite::Cilk) {
            for (unsigned t : {2u, 4u})
                for (unsigned b : {2u, 4u})
                    out.push_back(fmt("queue:%u,tile:%u,bank:%u,fusion", q,
                                      t, b));
        } else {
            for (unsigned b : {1u, 2u, 4u, 8u})
                out.push_back(
                    fmt("queue:%u,localize,bank:%u,fusion", q, b));
        }
    }
    return out;
}

std::unique_ptr<uir::Accelerator>
lowered(const workloads::Workload &w, const std::string &passes)
{
    auto accel = workloads::lowerBaseline(w);
    uopt::PassManager pm;
    std::string error;
    if (!uopt::buildPipeline(pm, passes, &error))
        muir_fatal("retarget: %s", error.c_str());
    pm.run(*accel);
    return accel;
}

/** Execute, record and compile @p w on @p accel; the record keeps
 *  @p key, as µserve's first miss of a dataflow does. */
sim::CompiledDdg
rerecord(const workloads::Workload &w, const uir::Accelerator &accel,
         const std::string &key)
{
    ir::MemoryImage mem(*w.module);
    w.bind(mem);
    sim::UirExecutor exec(accel, mem, /*record_ddg=*/true);
    exec.run({});
    return sim::compileDdg(accel, exec.takeDdg(), key);
}

/** Best wall time of kReps calls of @p fn, in ms; keeps the last
 *  result in @p out. */
template <typename Fn>
double
bestMs(sim::CompiledDdg &out, Fn &&fn)
{
    double best = 1e300;
    for (int rep = 0; rep < kReps; ++rep) {
        auto t0 = std::chrono::steady_clock::now();
        out = fn();
        std::chrono::duration<double, std::milli> wall =
            std::chrono::steady_clock::now() - t0;
        best = std::min(best, wall.count());
    }
    return best;
}

double
median(std::vector<double> v)
{
    std::sort(v.begin(), v.end());
    return v.empty() ? 0.0 : v[v.size() / 2];
}

} // namespace

int
main()
{
    QuietLogs quiet;
    AsciiTable table({"Program", "events", "record MiB", "half B/ev",
                      "12 designs MiB", "rerecord ms", "retarget ms"});
    BenchJson json("retarget");
    for (const std::string name :
         {"2mm", "3mm", "covar", "conv", "fft", "stencil", "msort"}) {
        WallClockGuard::RunScope scope(name);
        workloads::Workload w = workloads::buildWorkload(name);
        const std::vector<std::string> variants = sweepVariants(w);
        std::vector<std::unique_ptr<uir::Accelerator>> accels;
        for (const std::string &passes : variants)
            accels.push_back(lowered(w, passes));
        const std::string key = uir::dataflowKey(*accels.front());
        const sim::CompiledDdg from = rerecord(w, *accels.front(), key);

        std::vector<double> record_ms, retarget_ms;
        size_t cache_bytes = from.record->bytes();
        size_t max_half = 0;
        for (size_t v = 0; v < variants.size(); ++v) {
            const uir::Accelerator &accel = *accels[v];
            sim::CompiledDdg direct;
            record_ms.push_back(
                bestMs(direct, [&] { return rerecord(w, accel, key); }));
            sim::CompiledDdg moved;
            retarget_ms.push_back(bestMs(
                moved, [&] { return sim::retarget(from, accel); }));

            const uint64_t direct_cycles = sim::scheduleDdg(direct).cycles;
            const uint64_t moved_cycles = sim::scheduleDdg(moved).cycles;
            const bool shared = moved.record == from.record;
            if (!shared || moved_cycles != direct_cycles)
                muir_fatal("retarget: %s %s: shared record %d, cycles "
                           "%llu against %llu re-recorded",
                           name.c_str(), variants[v].c_str(), int(shared),
                           (unsigned long long)moved_cycles,
                           (unsigned long long)direct_cycles);
            json.add("rerecord:" + variants[v], name,
                     {{"cycles", double(direct_cycles)},
                      {"wall_ms", record_ms.back()},
                      {"bytes", double(direct.bytes())}});
            json.add("retarget:" + variants[v], name,
                     {{"cycles", double(moved_cycles)},
                      {"wall_ms", retarget_ms.back()},
                      {"shared_record", shared ? 1.0 : 0.0},
                      {"half_bytes", double(moved.halfBytes())}});
            cache_bytes += moved.halfBytes();
            max_half = std::max(max_half, moved.halfBytes());
        }

        const double events = from.numEvents;
        const double mib = 1024.0 * 1024.0;
        json.add("summary", name,
                 {{"events", events},
                  {"record_bytes", double(from.record->bytes())},
                  {"max_half_bytes", double(max_half)},
                  {"half_bytes_per_event", double(max_half) / events},
                  {"cache_bytes_12_designs", double(cache_bytes)},
                  {"rerecord_ms_median", median(record_ms)},
                  {"retarget_ms_median", median(retarget_ms)}});
        table.addRow({name, fmt("%.0f", events),
                      fmt("%.2f", from.record->bytes() / mib),
                      fmt("%.2f", double(max_half) / events),
                      fmt("%.2f", cache_bytes / mib),
                      fmt("%.3f", median(record_ms)),
                      fmt("%.3f", median(retarget_ms))});
    }
    std::printf("%s", table
                          .render("Retarget vs re-record over serve_sweep's "
                                  "grid (12 variants per program; wall "
                                  "times best of 3, medians over the "
                                  "variants)")
                          .c_str());
    std::printf("wrote %s\n", json.write().c_str());
    return 0;
}
