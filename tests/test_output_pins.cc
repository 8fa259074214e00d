/**
 * @file
 * Output pins: byte-level fingerprints of every observability surface
 * that post-processes a replay — the μprof profile JSON, the μscope
 * timeline JSON, the Perfetto trace JSON and the per-event trace CSV
 * (every processed event, completions included, in processing order)
 * on all 21 baselines, the μfit campaign JSON for every fault kind
 * and the mix on three designs and for a longer mix on all 21
 * baselines, the rendered hang
 * diagnosis of a pinned token loss, the dynamic conflict observer's
 * findings on the μlint race fixtures, and the cache counters of a
 * design whose accesses straddle cache lines.
 *
 * Each surface is hashed (FNV-1a, 64 bit) and compared against a
 * fixed table. A refactor of the DDG representation or of the replay
 * loop must leave every hash unchanged; a deliberate output change
 * re-captures the table from the failure messages, which print the
 * observed hash for every key.
 */
#include <gtest/gtest.h>

#include <cinttypes>
#include <cstdio>
#include <map>
#include <string>

#include "race_fixtures.hh"
#include "sim/compiled_ddg.hh"
#include "sim/conflict.hh"
#include "sim/exec.hh"
#include "sim/fault.hh"
#include "sim/profile.hh"
#include "sim/simulator.hh"
#include "sim/timeline.hh"
#include "support/logging.hh"
#include "support/strings.hh"
#include "workloads/driver.hh"

namespace muir
{

namespace
{

const std::map<std::string, uint64_t> &
pinnedHashes()
{
    static const std::map<std::string, uint64_t> pins = {
        {"2mm.csv", 0xcd217fb6916e8ca6ull},
        {"2mm.mix16", 0x444d59a10d034d01ull},
        {"2mm.profile", 0x53e2a3b92e49a835ull},
        {"2mm.timeline", 0x4f1b552ac31828e3ull},
        {"2mm.trace", 0xd2f23624b1d9ba9eull},
        {"2mm_t.csv", 0x44d2797195567606ull},
        {"2mm_t.mix16", 0x397ff8befafe82ebull},
        {"2mm_t.profile", 0xaf4ee53b3441997full},
        {"2mm_t.timeline", 0x893060642c537887ull},
        {"2mm_t.trace", 0x6a7e01d402393ca5ull},
        {"3mm.csv", 0xe48807de1f7444a2ull},
        {"3mm.mix16", 0xc5b83036baf2f6b0ull},
        {"3mm.profile", 0x1f7b6e8eb814a10eull},
        {"3mm.timeline", 0xc312a3a60de49595ull},
        {"3mm.trace", 0x16fd4648851646efull},
        {"conv.csv", 0xc11ff100cded1b4bull},
        {"conv.mix16", 0x0dc773615a7c6402ull},
        {"conv.profile", 0xb5d51903815fccf4ull},
        {"conv.timeline", 0xb39502efe14bf55full},
        {"conv.trace", 0x780bf57a1d5fb0bcull},
        {"conv_t.csv", 0xda8687d1e4bda8d7ull},
        {"conv_t.mix16", 0x8841dbbcbe58633eull},
        {"conv_t.profile", 0xe68fcec8ebe96628ull},
        {"conv_t.timeline", 0x82ff648114f0a0e3ull},
        {"conv_t.trace", 0x16b3968148ce83f4ull},
        {"covar.csv", 0xa85f3ad5f7592433ull},
        {"covar.mix16", 0x16760002ef14f3b7ull},
        {"covar.profile", 0x59ff55e1076b2008ull},
        {"covar.timeline", 0xe7c47d369da478e3ull},
        {"covar.trace", 0x1bf315fdca20c0dbull},
        {"dense16.csv", 0x42ca88476bc84b48ull},
        {"dense16.mix16", 0xf2f2ba09f62fbdcdull},
        {"dense16.profile", 0x0dce6d4e4421efc0ull},
        {"dense16.timeline", 0xbc7edef6466a0aeeull},
        {"dense16.trace", 0x0939050485c6e06eull},
        {"dense8.csv", 0x24ef2d968341a2b3ull},
        {"dense8.mix16", 0x167feacddbbf5fa3ull},
        {"dense8.profile", 0x20805f2e7db87888ull},
        {"dense8.timeline", 0x281694d789d03797ull},
        {"dense8.trace", 0x4d2fb2890fbfbba4ull},
        {"fft.csv", 0x2f417f9d3afa229cull},
        {"fft.mix16", 0xf5d225f287cada09ull},
        {"fft.profile", 0x4dfb5c6e10ba6956ull},
        {"fft.timeline", 0x0fa005078a8df20full},
        {"fft.trace", 0x99e3ed933143c6a7ull},
        {"fib.csv", 0x0ec5814d58983c9full},
        {"fib.dataflip", 0x6dd44f2fce2a4e71ull},
        {"fib.dramtimeout", 0x43d3745b3ef1b3d9ull},
        {"fib.lostspawn", 0x27807400b016b289ull},
        {"fib.lostsync", 0xe872335d5a848c4aull},
        {"fib.memflip", 0xa4e839061df67981ull},
        {"fib.mix", 0xd0893757957678e6ull},
        {"fib.mix16", 0x40fac204e83e785dull},
        {"fib.profile", 0x2ca2bf1608be76c0ull},
        {"fib.stuckvalid", 0x5175fca6d484070dull},
        {"fib.timeline", 0xa271fbb2b1795609ull},
        {"fib.tokendrop", 0x0bc593595cc17379ull},
        {"fib.tokendup", 0xc85432e584b300e0ull},
        {"fib.trace", 0x47d749662aad6a88ull},
        {"gemm.csv", 0x901d8567ef61493full},
        {"gemm.dataflip", 0x7cfb882df0d7ac76ull},
        {"gemm.dramtimeout", 0xbac89875308463ecull},
        {"gemm.lostspawn", 0xfe666881849812d7ull},
        {"gemm.lostsync", 0x1927ca67c0838937ull},
        {"gemm.memflip", 0xb4bf40d3f9b847b0ull},
        {"gemm.mix", 0x3455c217b4cb02f7ull},
        {"gemm.mix16", 0x257dc912da3b3614ull},
        {"gemm.profile", 0x65ba3e2c381cc1d4ull},
        {"gemm.stuckvalid", 0x7c5449aabb88aadeull},
        {"gemm.timeline", 0x8d2f73eae9cafc42ull},
        {"gemm.tokendrop", 0x6a166fb789c545cfull},
        {"gemm.tokendup", 0x45cf992370577ae3ull},
        {"gemm.trace", 0x682e0604d069a040ull},
        {"img_scale.csv", 0xc4701124dda32e1bull},
        {"img_scale.mix16", 0x82b9e43e3ce671a8ull},
        {"img_scale.profile", 0x9072280b671b00faull},
        {"img_scale.timeline", 0x22a5a65d20ea89f9ull},
        {"img_scale.trace", 0xac3531bdee396c9dull},
        {"msort.csv", 0x5eefb57a5cbb2e9aull},
        {"msort.mix16", 0xecdbed3913b685b3ull},
        {"msort.profile", 0x3651334ce7bdcc04ull},
        {"msort.timeline", 0x5a5e5613c8d920c6ull},
        {"msort.trace", 0x58700affc2e13529ull},
        {"race.private_slot.conflicts", 0xcbf29ce484222325ull},
        {"race.same_slot.conflicts", 0xed1290d8cb1784fbull},
        {"relu.csv", 0x4a7318dda9489d47ull},
        {"relu.mix16", 0x81358d7022e93ac8ull},
        {"relu.profile", 0x81c8c154ea8daaa2ull},
        {"relu.timeline", 0x2c7004a9aaaa3918ull},
        {"relu.trace", 0x17bdf369c928a75cull},
        {"relu_t.csv", 0x42d00d26df81b222ull},
        {"relu_t.mix16", 0xaee0affb0f7b3f79ull},
        {"relu_t.profile", 0x2da5a77069376ad7ull},
        {"relu_t.straddle", 0x80e790a3b6b0f8a7ull},
        {"relu_t.timeline", 0x99f0e746a6d78f65ull},
        {"relu_t.trace", 0x305d86b06cf582feull},
        {"rgb2yuv.csv", 0x19c7a6f0465fb9cdull},
        {"rgb2yuv.mix16", 0xd3a7f995522f9db5ull},
        {"rgb2yuv.profile", 0xd128e6c60be98df3ull},
        {"rgb2yuv.timeline", 0x92691069e7c1015cull},
        {"rgb2yuv.trace", 0xaf171e1a390219deull},
        {"saxpy.csv", 0x1f8ad6d54bd1f713ull},
        {"saxpy.dataflip", 0x367ee9a039843d6bull},
        {"saxpy.dramtimeout", 0xd4cb0c9484aab776ull},
        {"saxpy.lostspawn", 0x98b669ebac551df4ull},
        {"saxpy.lostsync", 0x1458d298043fcf12ull},
        {"saxpy.memflip", 0x27200e0e9472409aull},
        {"saxpy.mix", 0x24c575bfcf2b594cull},
        {"saxpy.mix16", 0x02cb35ed14830f25ull},
        {"saxpy.profile", 0xe18c3f0bbc9f365cull},
        {"saxpy.stuckvalid", 0x550fa17130927abbull},
        {"saxpy.timeline", 0x75b1718393a04c34ull},
        {"saxpy.tokendrop", 0x9d94128bf9dfd377ull},
        {"saxpy.tokendrop.diagnosis", 0x7669c2b630a73d1full},
        {"saxpy.tokendup", 0xd9f3115c9c03a453ull},
        {"saxpy.trace", 0xd15c7644a28cddf4ull},
        {"softm16.csv", 0x09a6e7c6b71257d4ull},
        {"softm16.mix16", 0x744f65dadb56e507ull},
        {"softm16.profile", 0x262a08eea5ff80a3ull},
        {"softm16.timeline", 0x1f57100f2b95f132ull},
        {"softm16.trace", 0xccf5321e67966541ull},
        {"softm8.csv", 0xc0fe765c64f3dd3cull},
        {"softm8.mix16", 0x66b50850a36a9fddull},
        {"softm8.profile", 0x7734e987f8d4b371ull},
        {"softm8.timeline", 0x3160e59072876d4cull},
        {"softm8.trace", 0xc152dc5161fe4a6eull},
        {"spmv.csv", 0x90561087c28d5c96ull},
        {"spmv.mix16", 0x9850b9809b9025d2ull},
        {"spmv.profile", 0x3449e5fb9c5af5d5ull},
        {"spmv.timeline", 0x6a8d531d41368e5cull},
        {"spmv.trace", 0x293e867718a8ccdaull},
        {"stencil.csv", 0x4fa247a18c32c3d6ull},
        {"stencil.mix16", 0x30d60aa7ea20de6dull},
        {"stencil.profile", 0x9543292ca77b2c86ull},
        {"stencil.timeline", 0x9a4124f73e1fe83aull},
        {"stencil.trace", 0x9ea8567c4d7b09fbull},
    };
    return pins;
}

void
expectPinned(const std::string &key, const std::string &text)
{
    uint64_t h = fnv1a64(text);
    char captured[96];
    std::snprintf(captured, sizeof captured,
                  "{\"%s\", 0x%016" PRIx64 "ull},", key.c_str(), h);
    auto it = pinnedHashes().find(key);
    if (it == pinnedHashes().end()) {
        ADD_FAILURE() << "no pin for " << key << "; observed "
                      << captured;
        return;
    }
    EXPECT_EQ(h, it->second) << "observed " << captured;
}

sim::CampaignResult
campaign(const workloads::Workload &w, const uir::Accelerator &accel,
         const std::string &spec_text, unsigned runs, uint64_t seed)
{
    sim::CampaignSpec spec;
    std::string error;
    EXPECT_TRUE(sim::parseFaultSpec(spec_text, spec.fault, &error))
        << error;
    spec.runs = runs;
    spec.seed = seed;
    spec.jobs = 2;
    return sim::runCampaign(accel, *w.module,
                            [&](ir::MemoryImage &m) { w.bind(m); },
                            spec);
}

} // namespace

TEST(OutputPins, ProfileTimelineAndTraceOnEveryBaseline)
{
    setVerbose(false);
    for (const std::string &name : workloads::workloadNames()) {
        workloads::Workload w = workloads::buildWorkload(name);
        auto accel = workloads::lowerBaseline(w);
        workloads::RunResult run =
            workloads::runOn(w, *accel, {.log = true});
        ASSERT_TRUE(run.check.empty()) << name << ": " << run.check;
        ASSERT_TRUE(run.log && run.compiled) << name;
        const sim::Timeline tl =
            sim::buildTimeline(*run.compiled, *run.log, run.cycles);
        expectPinned(name + ".profile",
                     sim::profileJson(sim::buildProfile(
                         *run.compiled, *run.log, run.cycles)));
        expectPinned(name + ".timeline", sim::timelineJson(tl));
        expectPinned(name + ".trace",
                     sim::chromeTraceJson(*run.compiled, *run.log, &tl));
        expectPinned(name + ".csv", sim::traceCsv(*run.compiled, *run.log));
    }
}

TEST(OutputPins, CampaignJsonPerFaultKind)
{
    setVerbose(false);
    for (const std::string name : {"saxpy", "fib", "gemm"}) {
        workloads::Workload w = workloads::buildWorkload(name);
        auto accel = workloads::lowerBaseline(w);
        for (const std::string kind :
             {"tokendrop", "tokendup", "stuckvalid", "lostspawn",
              "lostsync", "dramtimeout", "dataflip", "memflip", "mix"}) {
            sim::CampaignResult r = campaign(w, *accel, kind, 6, 11);
            expectPinned(name + "." + kind,
                         r.error + r.toJson(name, kind, 6, 11));
        }
    }
}

TEST(OutputPins, MixCampaignOnEveryBaseline)
{
    setVerbose(false);
    for (const std::string &name : workloads::workloadNames()) {
        workloads::Workload w = workloads::buildWorkload(name);
        auto accel = workloads::lowerBaseline(w);
        sim::CampaignResult r = campaign(w, *accel, "mix", 16, 11);
        expectPinned(name + ".mix16",
                     r.error + r.toJson(name, "mix", 16, 11));
    }
}

TEST(OutputPins, PinnedTokenLossHangDiagnosis)
{
    setVerbose(false);
    workloads::Workload w = workloads::buildWorkload("saxpy");
    auto accel = workloads::lowerBaseline(w);
    sim::CampaignResult r = campaign(w, *accel, "tokendrop", 1, 7);
    ASSERT_TRUE(r.ok) << r.error;
    ASSERT_EQ(r.records.size(), 1u);

    ir::MemoryImage mem(*w.module);
    w.bind(mem);
    sim::SimResult golden =
        sim::simulate(*accel, mem, {}, {.keepCompiled = true});
    sim::Watchdog watchdog{r.maxCycles, {}};
    sim::RunContext ctx;
    ctx.watchdog = &watchdog;
    sim::scheduleFault(*golden.compiled, r.records[0].plan, ctx);
    ASSERT_TRUE(watchdog.hang.tripped());
    expectPinned("saxpy.tokendrop.diagnosis", watchdog.hang.render());
}

TEST(OutputPins, ConflictsOnRaceFixtures)
{
    setVerbose(false);
    for (bool same_slot : {true, false}) {
        SpawnKernel k(8, same_slot);
        auto accel = k.lower();
        ir::MemoryImage mem(k.m);
        k.bind(mem);
        sim::UirExecutor exec(*accel, mem);
        exec.run({});
        std::string text;
        for (const sim::MemConflict &c :
             sim::findConflicts(sim::compileDdg(*accel, exec.takeDdg())))
            text += fmt("%llu %llu %s %s 0x%llx\n",
                        static_cast<unsigned long long>(c.first),
                        static_cast<unsigned long long>(c.second),
                        c.firstNode->name().c_str(),
                        c.secondNode->name().c_str(),
                        static_cast<unsigned long long>(c.addr));
        expectPinned(same_slot ? "race.same_slot.conflicts"
                               : "race.private_slot.conflicts",
                     text);
    }
}

TEST(OutputPins, LineStraddlingCacheAccesses)
{
    // relu_t streams 16-byte tensor loads through the L1. With 24-byte
    // lines one load in three straddles two lines, and the next load
    // hits only because the straddling load's second tag probe
    // allocated its line. (With lines shorter than the access every
    // load ends in a new line and misses whatever the second probe
    // does.)
    setVerbose(false);
    workloads::Workload w = workloads::buildWorkload("relu_t");
    auto accel = workloads::lowerBaseline(w);
    accel->structureByName("l1")->setLineBytes(24);
    workloads::RunResult run = workloads::runOn(w, *accel, {});
    ASSERT_TRUE(run.check.empty()) << run.check;
    expectPinned("relu_t.straddle",
                 fmt("cycles %llu cache.hits %llu cache.misses %llu\n",
                     static_cast<unsigned long long>(run.cycles),
                     static_cast<unsigned long long>(
                         run.stats.get("cache.hits")),
                     static_cast<unsigned long long>(
                         run.stats.get("cache.misses"))));
}

} // namespace muir
