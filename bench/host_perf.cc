/**
 * @file
 * μmeter host-perf survey: per-workload simulator throughput. For
 * every built-in workload this runs the untransformed baseline with a
 * μmeter sink bound and reports the simulated cycles, the events the
 * scheduler retired, and how fast it retired them. Wall-dependent
 * columns are reported rather than asserted: they vary by machine.
 */
#include "common.hh"

#include "support/metrics.hh"

using namespace muir;

int
main()
{
    bench::QuietLogs quiet;
    bench::BenchJson out("host_perf");

    AsciiTable table({"workload", "cycles", "events", "firings",
                      "schedule ms", "Mev/s"});
    for (const std::string &name : workloads::workloadNames()) {
        // Clean-room per workload: a fresh registry per design keeps
        // each row's sim.* totals scoped to that one simulation.
        metrics::Registry registry;
        metrics::ScopedSink bind(&registry);
        bench::Design d = bench::makeDesign(name);
        metrics::SimSummary sim =
            metrics::summarizeSim(registry.snapshot());

        table.addRow(
            {name, fmt("%llu", (unsigned long long)d.run.cycles),
             fmt("%llu", (unsigned long long)sim.events),
             fmt("%llu", (unsigned long long)sim.firings),
             fmt("%.3f", sim.scheduleWallMs),
             fmt("%.2f", sim.eventsPerSec / 1e6)});
        out.add("baseline", name,
                {{"cycles", double(d.run.cycles)},
                 {"events", double(sim.events)},
                 {"node_firings", double(sim.firings)},
                 {"schedule_wall_ms", sim.scheduleWallMs},
                 {"events_per_sec", sim.eventsPerSec}});
    }

    std::printf("%s", table
                          .render("Host-perf survey: simulator "
                                  "throughput (baseline configs)")
                          .c_str());
    std::printf("note: wall-dependent columns (schedule ms, Mev/s) "
                "vary by machine.\n");
    std::string path = out.write();
    std::printf("wrote %s\n", path.c_str());
    return 0;
}
