/**
 * @file
 * Figure 16 — L1 cache banking (§6.4): 1/2/4 banks on the shared L1,
 * normalized to 1 bank. The paper: GEMM and FFT benefit from parallel
 * access; 2MM/3MM see no benefit (conflict-free mapping); SAXPY and
 * CONV read streaming matrices and gain little; COVAR is
 * compute-bound.
 */
#include "common.hh"

using namespace muir;
using namespace muir::bench;

int
main()
{
    QuietLogs quiet;
    AsciiTable table({"Bench", "1B cyc", "2B", "4B", "4B misses"});
    BenchJson json("fig16_cache_banking");
    // Banking is measured on the pipelined design (passes 1+5
    // applied): only a fast iteration rate generates enough parallel
    // accesses for bank-level parallelism to matter.
    auto piped = [](uopt::PassManager &pm) {
        pm.add(std::make_unique<uopt::TaskQueuingPass>());
        pm.add(std::make_unique<uopt::OpFusionPass>());
    };
    for (const std::string name :
         {"gemm", "fft", "2mm", "3mm", "saxpy", "conv"}) {
        Design base = makeDesign(name, piped);
        json.add("1B", base);
        std::vector<std::string> row{
            name, fmt("%llu", (unsigned long long)base.run.cycles)};
        uint64_t misses4 = 0;
        // Banking changes only timing: every bank count replays the
        // 1B design's record.
        for (unsigned banks : {2u, 4u}) {
            Design d = makeDesign(
                name,
                [&](uopt::PassManager &pm) {
                    piped(pm);
                    pm.add(std::make_unique<uopt::BankingPass>(
                        banks, /*bank_scratchpads=*/false,
                        /*bank_caches=*/true));
                },
                &base);
            json.add(fmt("%uB", banks), d);
            row.push_back(
                ratio(double(d.run.cycles) / double(base.run.cycles)));
            if (banks == 4)
                misses4 = d.run.stats.get("cache.misses");
        }
        row.push_back(fmt("%llu", (unsigned long long)misses4));
        table.addRow(row);
    }
    std::printf("%s",
                table
                    .render("Figure 16: L1 cache banking 1-4 banks "
                            "(normalized exe, 1 bank = 1 — paper: "
                            "GEMM/FFT gain, 2MM/3MM flat)")
                    .c_str());
    std::printf("wrote %s\n", json.write().c_str());
    return 0;
}
