/**
 * @file
 * Figure 12 — concurrency tiling (§6.2): execution time of the Cilk
 * accelerators as the number of execution tiles per task grows
 * (1/2/4/8 T, baseline = 1 T = 1.0). The paper reports 1.5-6x, with
 * SAXPY saturating early (memory bound) and STENCIL / IMAGE-SCALE /
 * FIB / M-SORT scaling to 4-8 tiles.
 */
#include "common.hh"

using namespace muir;
using namespace muir::bench;

int
main()
{
    QuietLogs quiet;
    AsciiTable table({"Bench", "1T cyc", "2T", "4T", "8T"});
    BenchJson json("fig12_task_tiling");
    for (const std::string name :
         {"stencil", "saxpy", "img_scale", "fib", "msort"}) {
        Design base = makeDesign(name, [](uopt::PassManager &pm) {
            pm.add(std::make_unique<uopt::TaskQueuingPass>());
        });
        json.add("1T", base);
        std::vector<std::string> row{
            name, fmt("%llu", (unsigned long long)base.run.cycles)};
        // Tiling changes only timing: every tile count replays the
        // 1T design's record.
        for (unsigned tiles : {2u, 4u, 8u}) {
            Design d = makeDesign(
                name,
                [&](uopt::PassManager &pm) {
                    pm.add(std::make_unique<uopt::TaskQueuingPass>());
                    pm.add(std::make_unique<uopt::ExecutionTilingPass>(
                        tiles));
                },
                &base);
            json.add(fmt("%uT", tiles), d);
            row.push_back(ratio(double(d.run.cycles) /
                                double(base.run.cycles)));
        }
        table.addRow(row);
    }
    std::printf("%s",
                table
                    .render("Figure 12: execution tiling, normalized "
                            "exe vs 1 tile (lower is better — paper: "
                            "down to ~0.17 at 8T; SAXPY flattens "
                            "early)")
                    .c_str());
    std::printf("wrote %s\n", json.write().c_str());
    return 0;
}
