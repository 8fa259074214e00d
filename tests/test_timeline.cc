/**
 * @file
 * μscope timeline tests. The guarded contract: per-window stall
 * binning is an exact partition — for every stall class, the
 * per-window cycles sum to μprof's aggregate raw roll-up on every
 * baseline workload. The log behind both must change no result, in a
 * direct run or a compiled replay.
 *
 * Plus geometry, JSON validity, and Chrome-trace byte-stability.
 */
#include <gtest/gtest.h>

#include "sim/compiled_ddg.hh"
#include "sim/profile.hh"
#include "sim/timeline.hh"
#include "support/json.hh"
#include "support/logging.hh"
#include "workloads/driver.hh"
#include "workloads/workload.hh"

#include "schedule_log_checks.hh"

namespace muir::sim
{

namespace
{

/** One logged baseline run, with the design its index reads. */
struct Logged
{
    workloads::Workload w;
    std::unique_ptr<uir::Accelerator> accel;
    workloads::RunResult run;

    explicit Logged(const std::string &name,
                    workloads::RunOptions opts = {.log = true})
        : w(workloads::buildWorkload(name)),
          accel(workloads::lowerBaseline(w))
    {
        run = workloads::runOn(w, *accel, opts);
        EXPECT_TRUE(run.check.empty()) << name << ": " << run.check;
    }

    ProfileResult
    profile() const
    {
        return buildProfile(*run.compiled, *run.log, run.cycles);
    }

    Timeline
    timeline(unsigned windows = 0) const
    {
        return buildTimeline(*run.compiled, *run.log, run.cycles, windows);
    }
};

} // namespace

TEST(Timeline, OffIsBitIdenticalOnEveryBaseline)
{
    // The log behind the timeline and the profile only records the
    // schedule: turning it on changes no cycle, firing or counter, in
    // a direct run or in a compiled replay, and both runs log the
    // same schedule.
    for (const std::string &name : workloads::workloadNames()) {
        SCOPED_TRACE(name);
        setVerbose(false);
        workloads::Workload w = workloads::buildWorkload(name);
        auto accel = workloads::lowerBaseline(w);
        workloads::RunResult plain =
            workloads::runOn(w, *accel, {.keepCompiled = true});
        ASSERT_TRUE(plain.compiled);
        const CompiledDdg *cd = plain.compiled.get();
        workloads::RunResult logged =
            workloads::runOn(w, *accel, {.log = true});
        workloads::RunResult replay =
            workloads::runOn(w, *accel, {.compiled = cd});
        workloads::RunResult replay_logged =
            workloads::runOn(w, *accel, {.log = true, .compiled = cd});
        for (const workloads::RunResult *r :
             {&plain, &logged, &replay, &replay_logged}) {
            EXPECT_TRUE(r->check.empty()) << r->check;
            EXPECT_EQ(r->cycles, plain.cycles);
            EXPECT_EQ(r->firings, plain.firings);
            EXPECT_EQ(r->stats.dump(), plain.stats.dump());
        }
        EXPECT_EQ(plain.log, nullptr);
        EXPECT_EQ(replay.log, nullptr);
        ASSERT_TRUE(logged.log && replay_logged.log);
        expectSameLog(*logged.log, *replay_logged.log, name);
    }
}

TEST(Timeline, WindowStallSumsEqualAggregateRawTotals)
{
    for (const auto &name : workloads::workloadNames()) {
        SCOPED_TRACE(name);
        Logged l(name);
        const Timeline tl = l.timeline();
        const ProfileResult p = l.profile();
        for (size_t c = 0; c < kNumStallClasses; ++c) {
            auto cls = static_cast<StallClass>(c);
            EXPECT_EQ(tl.classTotal(cls), p.raw[cls])
                << "class " << stallClassName(cls);
        }
    }
}

TEST(Timeline, GeometryCoversTheRun)
{
    const Timeline tl = Logged("gemm").timeline();
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
    Logged l("relu");
    const Timeline tl = l.timeline(16);
    EXPECT_LE(tl.numWindows(), 16u);
    EXPECT_GE(tl.numWindows() * tl.windowWidth, tl.cycles);
    // Totals are invariant under the window geometry.
    const Timeline reference = l.timeline();
    for (size_t c = 0; c < kNumStallClasses; ++c) {
        auto cls = static_cast<StallClass>(c);
        EXPECT_EQ(tl.classTotal(cls), reference.classTotal(cls));
    }
}

TEST(Timeline, StructureBeatsMatchAggregatePortActivity)
{
    Logged l("gemm");
    const Timeline tl = l.timeline();
    const ProfileResult p = l.profile();
    ASSERT_FALSE(tl.structures.empty());
    for (const auto &[name, lane] : tl.structures) {
        SCOPED_TRACE(name);
        uint64_t binned = 0;
        for (uint64_t beats : lane.busyBeats)
            binned += beats;
        // The timeline has a lane for every structure; µprof only
        // records the ones the run touched. Untouched lanes are zero.
        auto it = p.structures.find(name);
        if (it == p.structures.end())
            EXPECT_EQ(binned, 0u);
        else
            EXPECT_EQ(binned, it->second.busyBeats);
    }
}

TEST(Timeline, JsonIsValid)
{
    Logged l("saxpy");
    const std::string json = timelineJson(l.timeline());
    std::string error;
    EXPECT_TRUE(jsonValidate(json, &error)) << error;
    JsonValue parsed;
    ASSERT_TRUE(jsonParse(json, &parsed, &error)) << error;
    const JsonValue *schema = parsed.get("schema");
    ASSERT_NE(schema, nullptr);
    EXPECT_EQ(schema->asString(), "muir.timeline.v1");
    EXPECT_EQ(parsed.get("cycles")->asU64(), l.run.cycles);
}

TEST(Timeline, TrippedRunsLeaveUnprocessedEventsOut)
{
    // A run the watchdog stops halfway processed only part of its
    // record. An event that never ran has no ready time to measure
    // slack against and no start to count.
    for (const std::string name : {"saxpy", "gemm", "fib"}) {
        SCOPED_TRACE(name);
        const uint64_t half = Logged(name, {}).run.cycles / 2;
        Logged l(name, {.log = true, .watchdog = true, .maxCycles = half});
        ASSERT_TRUE(l.run.hang.budgetExceeded);
        const ProfileResult p = l.profile();
        for (const auto &[bucket, count] : p.slackHistogram)
            EXPECT_LE(bucket, 63u) << count << " edges";
        const Timeline tl = l.timeline();
        uint64_t starts = 0;
        for (uint64_t n : tl.eventStarts)
            starts += n;
        // "events" counts the processed node firings (completions
        // excluded, as in the timeline).
        EXPECT_EQ(starts, l.run.stats.get("events"));
    }
}

TEST(Timeline, RenderedTablesAreNonEmpty)
{
    std::string text = renderTimelineText(Logged("fft").timeline());
    EXPECT_NE(text.find("µscope timeline"), std::string::npos);
    EXPECT_NE(text.find("stall mix"), std::string::npos);
}

TEST(Timeline, ChromeTraceIsByteStableAcrossRuns)
{
    // Two runs of one design, each read against its own index.
    Logged a("relu");
    auto b = workloads::runOn(a.w, *a.accel, {.log = true});
    ASSERT_TRUE(b.check.empty()) << b.check;
    const Timeline tla = a.timeline();
    const Timeline tlb = buildTimeline(*b.compiled, *b.log, b.cycles);
    std::string ta = chromeTraceJson(*a.run.compiled, *a.run.log, &tla);
    std::string tb = chromeTraceJson(*b.compiled, *b.log, &tlb);
    EXPECT_EQ(ta, tb);
    std::string error;
    EXPECT_TRUE(jsonValidate(ta, &error)) << error;
    // Counter samples for the µscope tracks made it into the stream.
    EXPECT_NE(ta.find("\"ph\":\"C\""), std::string::npos);
    EXPECT_NE(ta.find("stall mix"), std::string::npos);
}

} // namespace muir::sim
