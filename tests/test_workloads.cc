/**
 * @file
 * Workload-suite tests, parameterized over all 21 benchmarks:
 * (1) the compiler-IR interpreter reproduces each workload's
 *     independently computed golden outputs;
 * (2) the lowered baseline μIR accelerator computes identical results
 *     (functional equivalence through Stage 1+2 lowering);
 * (3) the cycle-level simulation produces sane, nonzero timing.
 */
#include <gtest/gtest.h>

#include "frontend/lower.hh"
#include "ir/interp.hh"
#include "ir/verifier.hh"
#include "sim/simulator.hh"
#include "support/strings.hh"
#include "uir/verifier.hh"
#include "workloads/workload.hh"

namespace muir::workloads
{

class WorkloadTest : public ::testing::TestWithParam<std::string>
{
};

TEST_P(WorkloadTest, InterpreterMatchesGolden)
{
    Workload w = buildWorkload(GetParam());
    ASSERT_TRUE(ir::verify(*w.module).empty())
        << join(ir::verify(*w.module), "\n");
    ir::Interpreter interp(*w.module);
    w.bind(interp.memory());
    interp.run(*w.module->function(w.kernel), {});
    EXPECT_EQ(w.check(interp.memory()), "");
}

TEST_P(WorkloadTest, BaselineUirMatchesGolden)
{
    Workload w = buildWorkload(GetParam());
    auto accel = frontend::lowerToUir(*w.module, w.kernel);
    ASSERT_TRUE(uir::verify(*accel).empty())
        << join(uir::verify(*accel), "\n");
    ir::MemoryImage mem(*w.module);
    w.bind(mem);
    sim::UirExecutor(*accel, mem, /*record_ddg=*/false).run();
    EXPECT_EQ(w.check(mem), "");
}

TEST_P(WorkloadTest, TimingIsSane)
{
    Workload w = buildWorkload(GetParam());
    auto accel = frontend::lowerToUir(*w.module, w.kernel);
    ir::MemoryImage mem(*w.module);
    w.bind(mem);
    auto result = sim::simulate(*accel, mem);
    EXPECT_EQ(w.check(mem), "");
    EXPECT_GT(result.cycles, 10u);
    EXPECT_GT(result.firings, 10u);
    // Cycles bounded by fully-serial execution of every firing at the
    // worst unit latency plus a miss each.
    EXPECT_LT(result.cycles, result.firings * 120u);
}

INSTANTIATE_TEST_SUITE_P(AllWorkloads, WorkloadTest,
                         ::testing::ValuesIn(workloadNames()),
                         [](const auto &info) {
                             std::string n = info.param;
                             for (auto &c : n)
                                 if (c == '-')
                                     c = '_';
                             return n;
                         });

TEST(Workloads, RegistryIsComplete)
{
    EXPECT_EQ(workloadNames().size(), 21u);
    for (const auto &name : workloadNames()) {
        Workload w = buildWorkload(name);
        EXPECT_EQ(w.name, name);
        EXPECT_NE(w.module, nullptr);
        EXPECT_NE(w.module->function(w.kernel), nullptr);
        EXPECT_FALSE(w.floatExpected.empty() && w.intExpected.empty())
            << name << " has no golden outputs";
    }
}

TEST(Workloads, SuitesMatchTable2Grouping)
{
    EXPECT_EQ(buildWorkload("gemm").suite, Suite::Polybench);
    EXPECT_EQ(buildWorkload("fib").suite, Suite::Cilk);
    EXPECT_EQ(buildWorkload("dense8").suite, Suite::Tensorflow);
    EXPECT_EQ(buildWorkload("relu_t").suite, Suite::InHouse);
    EXPECT_TRUE(buildWorkload("gemm").usesFp);
    EXPECT_TRUE(buildWorkload("saxpy").usesSpawn);
    EXPECT_TRUE(buildWorkload("2mm_t").usesTensor);
    EXPECT_FALSE(buildWorkload("rgb2yuv").usesFp);
}

} // namespace muir::workloads
