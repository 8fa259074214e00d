/**
 * @file
 * μscope timeline tests. The two guarded contracts:
 *
 *  1. The sampler is a pure observer — with the timeline off, every
 *     baseline workload's cycles / firings / counters are
 *     bit-identical to a run with it on.
 *  2. Per-window stall binning is an exact partition — for every
 *     stall class, the per-window cycles sum to μprof's aggregate raw
 *     roll-up on every baseline workload.
 *
 * Plus geometry, JSON validity, and Chrome-trace byte-stability.
 */
#include <gtest/gtest.h>

#include "sim/profile.hh"
#include "sim/timeline.hh"
#include "support/json.hh"
#include "workloads/driver.hh"
#include "workloads/workload.hh"

namespace muir::sim
{

namespace
{

workloads::RunResult
runBaseline(const std::string &name, const workloads::RunOptions &opts)
{
    auto w = workloads::buildWorkload(name);
    auto accel = workloads::lowerBaseline(w);
    auto run = workloads::runOn(w, *accel, opts);
    EXPECT_TRUE(run.check.empty()) << name << ": " << run.check;
    return run;
}

} // namespace

TEST(Timeline, OffIsBitIdenticalOnEveryBaseline)
{
    for (const auto &name : workloads::workloadNames()) {
        SCOPED_TRACE(name);
        workloads::RunOptions off, on;
        on.timeline = true;
        auto plain = runBaseline(name, off);
        auto sampled = runBaseline(name, on);
        EXPECT_EQ(plain.cycles, sampled.cycles);
        EXPECT_EQ(plain.firings, sampled.firings);
        EXPECT_EQ(plain.stats.dump(), sampled.stats.dump());
        EXPECT_EQ(plain.timeline, nullptr);
        ASSERT_NE(sampled.timeline, nullptr);
    }
}

TEST(Timeline, WindowStallSumsEqualAggregateRawTotals)
{
    for (const auto &name : workloads::workloadNames()) {
        SCOPED_TRACE(name);
        workloads::RunOptions opts;
        opts.profile = true;
        opts.timeline = true;
        auto run = runBaseline(name, opts);
        ASSERT_NE(run.timeline, nullptr);
        ASSERT_NE(run.profile, nullptr);
        const Timeline &tl = *run.timeline;
        for (size_t c = 0; c < kNumStallClasses; ++c) {
            auto cls = static_cast<StallClass>(c);
            EXPECT_EQ(tl.classTotal(cls), run.profile->raw[cls])
                << "class " << stallClassName(cls);
        }
    }
}

TEST(Timeline, GeometryCoversTheRun)
{
    workloads::RunOptions opts;
    opts.timeline = true;
    auto run = runBaseline("gemm", opts);
    const Timeline &tl = *run.timeline;
    ASSERT_GT(tl.numWindows(), 0u);
    EXPECT_GE(tl.windowWidth, 1u);
    // Windows tile [0, cycles): the last window starts inside the run
    // and the windows together cover every cycle.
    EXPECT_LT(tl.windowStart(tl.numWindows() - 1), tl.cycles);
    EXPECT_GE(tl.numWindows() * tl.windowWidth, tl.cycles);
    EXPECT_EQ(tl.stalls.size(), tl.numWindows());
    EXPECT_EQ(tl.eventStarts.size(), tl.numWindows());
    EXPECT_EQ(tl.tileBusyCycles.size(), tl.numWindows());
    // Auto width targets ~kDefaultTimelineWindows windows.
    EXPECT_LE(tl.numWindows(), kDefaultTimelineWindows);
}

TEST(Timeline, WindowCountOverrideIsHonored)
{
    workloads::RunOptions opts;
    opts.timeline = true;
    opts.timelineWindows = 16;
    auto run = runBaseline("relu", opts);
    const Timeline &tl = *run.timeline;
    EXPECT_LE(tl.numWindows(), 16u);
    EXPECT_GE(tl.numWindows() * tl.windowWidth, tl.cycles);
    // Totals are invariant under the window geometry.
    workloads::RunOptions wide;
    wide.timeline = true;
    wide.profile = true;
    auto reference = runBaseline("relu", wide);
    for (size_t c = 0; c < kNumStallClasses; ++c) {
        auto cls = static_cast<StallClass>(c);
        EXPECT_EQ(tl.classTotal(cls),
                  reference.timeline->classTotal(cls));
    }
}

TEST(Timeline, StructureBeatsMatchAggregatePortActivity)
{
    workloads::RunOptions opts;
    opts.profile = true;
    opts.timeline = true;
    auto run = runBaseline("gemm", opts);
    const Timeline &tl = *run.timeline;
    ASSERT_FALSE(tl.structures.empty());
    for (const auto &[name, lane] : tl.structures) {
        SCOPED_TRACE(name);
        uint64_t binned = 0;
        for (uint64_t beats : lane.busyBeats)
            binned += beats;
        // The timeline has a lane for every structure; µprof only
        // records the ones the run touched. Untouched lanes are zero.
        auto it = run.profile->structures.find(name);
        if (it == run.profile->structures.end())
            EXPECT_EQ(binned, 0u);
        else
            EXPECT_EQ(binned, it->second.busyBeats);
    }
}

TEST(Timeline, JsonIsValid)
{
    workloads::RunOptions opts;
    opts.timeline = true;
    auto run = runBaseline("saxpy", opts);
    std::string error;
    EXPECT_TRUE(jsonValidate(timelineJson(*run.timeline), &error))
        << error;
    JsonValue parsed;
    ASSERT_TRUE(jsonParse(timelineJson(*run.timeline), &parsed, &error))
        << error;
    const JsonValue *schema = parsed.get("schema");
    ASSERT_NE(schema, nullptr);
    EXPECT_EQ(schema->asString(), "muir.timeline.v1");
    EXPECT_EQ(parsed.get("cycles")->asU64(), run.cycles);
}

TEST(Timeline, TrippedRunsLeaveUnprocessedEventsOut)
{
    // A run the watchdog stops halfway processed only part of its
    // record. An event that never ran has no ready time to measure
    // slack against and no start to count.
    for (const std::string name : {"saxpy", "gemm", "fib"}) {
        SCOPED_TRACE(name);
        workloads::RunOptions opts;
        opts.profile = true;
        opts.timeline = true;
        opts.watchdog = true;
        opts.maxCycles = runBaseline(name, {}).cycles / 2;
        auto run = runBaseline(name, opts);
        ASSERT_TRUE(run.verdict.hang.budgetExceeded);
        for (const auto &[bucket, count] : run.profile->slackHistogram)
            EXPECT_LE(bucket, 63u) << count << " edges";
        uint64_t starts = 0;
        for (uint64_t n : run.timeline->eventStarts)
            starts += n;
        // "events" counts the processed node firings (completions
        // excluded, as in the timeline).
        EXPECT_EQ(starts, run.stats.get("events"));
    }
}

TEST(Timeline, RenderedTablesAreNonEmpty)
{
    workloads::RunOptions opts;
    opts.timeline = true;
    auto run = runBaseline("fft", opts);
    std::string text = renderTimelineText(*run.timeline);
    EXPECT_NE(text.find("µscope timeline"), std::string::npos);
    EXPECT_NE(text.find("stall mix"), std::string::npos);
}

TEST(Timeline, ChromeTraceIsByteStableAcrossRuns)
{
    workloads::RunOptions opts;
    opts.profile = true;
    opts.trace = true;
    opts.timeline = true;
    // Keep the design alive: the replay index references its nodes,
    // and chromeTraceJson reads them when rendering slice tracks.
    auto w = workloads::buildWorkload("relu");
    auto accel = workloads::lowerBaseline(w);
    auto a = workloads::runOn(w, *accel, opts);
    auto b = workloads::runOn(w, *accel, opts);
    ASSERT_TRUE(a.check.empty()) << a.check;
    ASSERT_TRUE(b.check.empty()) << b.check;
    std::string ta = chromeTraceJson(*a.compiled, *a.log, a.timeline.get());
    std::string tb = chromeTraceJson(*b.compiled, *b.log, b.timeline.get());
    EXPECT_EQ(ta, tb);
    std::string error;
    EXPECT_TRUE(jsonValidate(ta, &error)) << error;
    // Counter samples for the µscope tracks made it into the stream.
    EXPECT_NE(ta.find("\"ph\":\"C\""), std::string::npos);
    EXPECT_NE(ta.find("stall mix"), std::string::npos);
}

} // namespace muir::sim
