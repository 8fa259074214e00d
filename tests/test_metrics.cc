/**
 * @file
 * μmeter registry tests. The guarded contracts:
 *
 *  1. Registry mechanics — counters, max-gauges, timers, and the
 *     fixed-bucket histograms merge correctly across threads.
 *  2. Pure observer — with no sink installed, every baseline workload
 *     under both gate configs is bit-identical (cycles / firings /
 *     StatSet dump) to a run with a sink bound.
 *  3. The `muir.hostperf.v1` emitter produces valid JSON with a
 *     byte-stable key structure whether or not any instrument fired.
 *
 * The MetricsThreaded suite is the TSan target (see ci.yml): it
 * exercises concurrent shard creation, counter merge, and the worker
 * pool's recording path under real contention.
 */
#include <gtest/gtest.h>

#include <atomic>
#include <thread>
#include <vector>

#include "gate/bench_gate.hh"
#include "support/json.hh"
#include "support/metrics.hh"
#include "support/parallel.hh"
#include "uopt/pipeline.hh"
#include "workloads/driver.hh"
#include "workloads/workload.hh"

namespace muir::metrics
{

TEST(Metrics, CounterAndGaugeSingleThread)
{
    Registry r;
    r.add("a");
    r.add("a", 41);
    r.add("b", 7);
    r.gaugeMax("g", 3);
    r.gaugeMax("g", 11);
    r.gaugeMax("g", 5);
    Snapshot s = r.snapshot();
    EXPECT_EQ(s.counter("a"), 42u);
    EXPECT_EQ(s.counter("b"), 7u);
    EXPECT_EQ(s.counter("absent"), 0u);
    EXPECT_EQ(s.gauge("g"), 11u);
    EXPECT_EQ(s.gauge("absent"), 0u);
}

TEST(Metrics, HistogramBucketEdges)
{
    EXPECT_EQ(histogramBucket(0), 0u);
    EXPECT_EQ(histogramBucket(1), 1u);
    EXPECT_EQ(histogramBucket(2), 2u);
    EXPECT_EQ(histogramBucket(3), 2u);
    EXPECT_EQ(histogramBucket(4), 3u);
    EXPECT_EQ(histogramBucket(7), 3u);
    EXPECT_EQ(histogramBucket(8), 4u);
    EXPECT_EQ(histogramBucket(~uint64_t(0)), kHistogramBuckets - 1);
    // Bucket bounds partition the value space with no gaps.
    EXPECT_EQ(histogramBucketLow(0), 0u);
    EXPECT_EQ(histogramBucketHigh(0), 0u);
    for (unsigned b = 1; b + 1 < kHistogramBuckets; ++b) {
        EXPECT_EQ(histogramBucketLow(b), histogramBucketHigh(b - 1) + 1);
        EXPECT_EQ(histogramBucket(histogramBucketLow(b)), b);
        EXPECT_EQ(histogramBucket(histogramBucketHigh(b)), b);
    }
}

TEST(Metrics, HistogramObservePercentileAndMoments)
{
    HistogramData h;
    EXPECT_TRUE(h.empty());
    for (uint64_t v : {2u, 2u, 2u, 2u, 2u, 2u, 2u, 2u, 2u, 100u})
        h.observe(v);
    EXPECT_EQ(h.count, 10u);
    EXPECT_EQ(h.minValue, 2u);
    EXPECT_EQ(h.maxValue, 100u);
    // p50 sits in the [2, 3] bucket, reported as its upper bound; p100
    // is clamped to the true max rather than the bucket's upper bound.
    EXPECT_EQ(h.percentile(50.0), 3u);
    EXPECT_EQ(h.percentile(100.0), 100u);
    // Moments are exact (Welford), not bucket-quantized.
    EXPECT_DOUBLE_EQ(h.mean(), 11.8);
    EXPECT_NEAR(h.stddev(), 30.99, 0.01);

    HistogramData other;
    other.observe(1 << 20);
    h.merge(other);
    EXPECT_EQ(h.count, 11u);
    EXPECT_EQ(h.maxValue, uint64_t(1) << 20);
    EXPECT_EQ(h.percentile(100.0), uint64_t(1) << 20);
}

TEST(Metrics, TimerAccumulatesAndIsMonotone)
{
    Registry r;
    {
        ScopedSink bind(&r);
        ScopedTimer t("t.outer");
        ScopedTimer u("t.inner");
    }
    Snapshot s = r.snapshot();
    ASSERT_EQ(s.timers.count("t.outer"), 1u);
    EXPECT_EQ(s.timers.at("t.outer").calls, 1u);
    EXPECT_GE(s.timerMs("t.outer"), 0.0);
    // The outer scope strictly contains the inner one.
    EXPECT_GE(s.timerMs("t.outer"), s.timerMs("t.inner"));
    r.timerAdd("t.outer", 1.5);
    double before = r.snapshot().timerMs("t.outer");
    r.timerAdd("t.outer", 2.5);
    EXPECT_GE(r.snapshot().timerMs("t.outer"), before + 2.5);
}

TEST(Metrics, SinkInstallReturnsPreviousAndNullIsNoOp)
{
    EXPECT_EQ(sink(), nullptr);
    Registry r;
    Registry *prev = installSink(&r);
    EXPECT_EQ(prev, nullptr);
    EXPECT_EQ(sink(), &r);
    EXPECT_EQ(installSink(nullptr), &r);
    EXPECT_EQ(sink(), nullptr);
    {
        // With no sink a scoped timer records nothing, anywhere.
        ScopedTimer t("t.unbound");
    }
    EXPECT_TRUE(r.snapshot().timers.empty());
}

TEST(MetricsThreaded, CountersAndHistogramsMergeAcrossThreads)
{
    Registry r;
    constexpr unsigned kThreads = 8;
    constexpr unsigned kPerThread = 10000;
    std::vector<std::thread> threads;
    for (unsigned t = 0; t < kThreads; ++t)
        threads.emplace_back([&r, t] {
            for (unsigned i = 0; i < kPerThread; ++i) {
                r.add("shared");
                r.observe("depth", i % 17);
            }
            r.gaugeMax("peak", t + 1);
        });
    for (auto &t : threads)
        t.join();
    Snapshot s = r.snapshot();
    EXPECT_EQ(s.counter("shared"), uint64_t(kThreads) * kPerThread);
    EXPECT_EQ(s.gauge("peak"), uint64_t(kThreads));
    const HistogramData *h = s.histogram("depth");
    ASSERT_NE(h, nullptr);
    EXPECT_EQ(h->count, uint64_t(kThreads) * kPerThread);
    EXPECT_EQ(h->maxValue, 16u);
}

TEST(MetricsThreaded, SnapshotRacesRecordingSafely)
{
    Registry r;
    std::atomic<bool> stop{false};
    std::thread writer([&] {
        uint64_t i = 0;
        while (!stop.load(std::memory_order_relaxed))
            r.add("w", ++i % 3);
    });
    for (int k = 0; k < 200; ++k)
        (void)r.snapshot();
    stop.store(true);
    writer.join();
    (void)r.snapshot();
}

TEST(MetricsThreaded, ParallelForRecordsPoolUtilization)
{
    Registry r;
    ScopedSink bind(&r);
    std::atomic<uint64_t> sum{0};
    parallelFor(256, 4, [&](size_t i) { sum += i; });
    Snapshot s = r.snapshot();
    EXPECT_EQ(sum.load(), 256u * 255u / 2);
    EXPECT_GE(s.counter("pool.spawns"), 1u);
    EXPECT_EQ(s.counter("pool.items"), 256u);
    EXPECT_GE(s.gauge("pool.workers"), 1u);
    const HistogramData *claim = s.histogram("pool.claim_ns");
    ASSERT_NE(claim, nullptr);
    // One claim per item plus each worker's terminating claim.
    EXPECT_GE(claim->count, 256u);
}

namespace
{

workloads::RunResult
runConfig(const std::string &name, const std::string &passes)
{
    auto w = workloads::buildWorkload(name);
    auto accel = workloads::lowerBaseline(w);
    if (!passes.empty()) {
        uopt::PassManager pm;
        std::string error;
        EXPECT_TRUE(uopt::buildPipeline(pm, passes, &error)) << error;
        pm.run(*accel);
    }
    auto run = workloads::runOn(w, *accel);
    EXPECT_TRUE(run.check.empty()) << name << ": " << run.check;
    return run;
}

} // namespace

TEST(Metrics, OffIsBitIdenticalOnEveryGateCell)
{
    // The observational-guard contract, over the same matrix the bench
    // gate replays: every workload, baseline + standard pipeline.
    for (const auto &cell : gate::standardConfigs()) {
        SCOPED_TRACE(cell.workload + "/" + cell.config);
        ASSERT_EQ(metrics::sink(), nullptr);
        auto plain = runConfig(cell.workload, cell.passes);
        Registry r;
        ScopedSink bind(&r);
        auto metered = runConfig(cell.workload, cell.passes);
        EXPECT_EQ(plain.cycles, metered.cycles);
        EXPECT_EQ(plain.firings, metered.firings);
        EXPECT_EQ(plain.stats.dump(), metered.stats.dump());
    }
}

TEST(Metrics, ScheduleDdgPopulatesSimInstruments)
{
    Registry r;
    workloads::RunResult run;
    {
        ScopedSink bind(&r);
        run = runConfig("gemm", "");
    }
    Snapshot s = r.snapshot();
    EXPECT_EQ(s.counter("sim.runs"), 1u);
    EXPECT_EQ(s.counter("sim.cycles"), run.cycles);
    EXPECT_EQ(s.counter("sim.firings"), run.firings);
    EXPECT_GT(s.counter("sim.events"), 0u);
    EXPECT_GT(s.timerMs("sim.schedule"), 0.0);
    const HistogramData *depth = s.histogram("sim.ready_queue_depth");
    ASSERT_NE(depth, nullptr);
    EXPECT_EQ(depth->count, s.counter("sim.events"));
    EXPECT_EQ(s.gauge("sim.ready_queue_peak"), depth->maxValue);

    SimSummary sim = summarizeSim(s);
    EXPECT_EQ(sim.cycles, run.cycles);
    EXPECT_EQ(sim.firings, run.firings);
    EXPECT_EQ(sim.events, s.counter("sim.events"));
    EXPECT_GT(sim.eventsPerSec, 0.0);

    // The run recorded and compiled its own DDG; the report shows it.
    JsonValue perf;
    ASSERT_TRUE(jsonParse(hostPerfJson(s, "gemm"), &perf));
    const JsonValue *sim_obj = perf.get("sim");
    ASSERT_NE(sim_obj, nullptr);
    const JsonValue *compile_ms = sim_obj->get("compile_wall_ms");
    ASSERT_NE(compile_ms, nullptr);
    EXPECT_GT(compile_ms->asDouble(), 0.0);
}

namespace
{

/** Flatten a parsed JSON tree to its sorted key-path skeleton. */
void
collectKeyPaths(const JsonValue &v, const std::string &prefix,
                std::vector<std::string> &out)
{
    if (v.isObject())
        for (const auto &[k, m] : v.members) {
            out.push_back(prefix + k);
            collectKeyPaths(m, prefix + k + ".", out);
        }
    if (v.isArray())
        for (size_t i = 0; i < v.items.size(); ++i)
            collectKeyPaths(v.items[i],
                            prefix + std::to_string(i) + ".", out);
}

} // namespace

TEST(Metrics, HostPerfJsonIsValidWithAByteStableKeyStructure)
{
    // An untouched registry and a fully populated one must emit the
    // exact same key skeleton: consumers parse without presence checks.
    Registry empty;
    Registry full;
    {
        ScopedSink bind(&full);
        ScopedTimer compile("phase.compile");
        runConfig("saxpy", "");
        std::atomic<uint64_t> sum{0};
        parallelFor(8, 2, [&](size_t i) { sum += i; });
    }
    std::string empty_json = hostPerfJson(empty.snapshot(), "none");
    std::string full_json = hostPerfJson(full.snapshot(), "saxpy");
    std::string error;
    ASSERT_TRUE(jsonValidate(empty_json, &error)) << error;
    ASSERT_TRUE(jsonValidate(full_json, &error)) << error;
    JsonValue a, b;
    ASSERT_TRUE(jsonParse(empty_json, &a));
    ASSERT_TRUE(jsonParse(full_json, &b));
    ASSERT_NE(a.get("schema"), nullptr);
    EXPECT_EQ(a.get("schema")->asString(), "muir.hostperf.v1");
    std::vector<std::string> keys_a, keys_b;
    collectKeyPaths(a, "", keys_a);
    collectKeyPaths(b, "", keys_b);
    EXPECT_EQ(keys_a, keys_b);
    // And the text renderer accepts every advertised section.
    for (const auto &section : hostMetricsSectionNames())
        EXPECT_FALSE(
            renderHostMetricsText(full.snapshot(), section).empty())
            << section;
}

} // namespace muir::metrics
