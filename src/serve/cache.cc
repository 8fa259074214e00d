#include "serve/cache.hh"

#include <algorithm>
#include <utility>

#include "support/strings.hh"
#include "uir/lint/lint.hh"
#include "uir/serialize.hh"
#include "uopt/pass.hh"
#include "uopt/pipeline.hh"
#include "workloads/driver.hh"

namespace muir::serve
{

uint64_t
designKey(const RunRequest &req)
{
    // '\0' separators keep ("ab", "c") and ("a", "bc") distinct.
    std::string material;
    material.reserve(req.workload.size() + req.passes.size() +
                     req.graph.size() + 2);
    material += req.workload;
    material += '\0';
    material += req.passes;
    material += '\0';
    material += req.graph;
    return fnv1a64(material);
}

std::shared_ptr<const CompiledDesign>
DesignCache::compile(const RunRequest &req, trace::ActiveTrace *t,
                     uint64_t parent)
{
    auto design = std::make_shared<CompiledDesign>();
    auto fail = [&](const std::string &code, unsigned line,
                    const std::string &message) {
        design->error.code = code;
        design->error.line = line;
        design->error.message = message;
        design->accel.reset();
        return std::shared_ptr<const CompiledDesign>(design);
    };

    // buildWorkload is fatal on unknown names, so gate it here: an
    // unknown workload must be a structured reply, not a daemon exit.
    const auto &names = workloads::workloadNames();
    if (std::find(names.begin(), names.end(), req.workload) ==
        names.end())
        return fail(kErrUnknownWorkload, 0,
                    fmt("unknown workload '%s'", req.workload.c_str()));
    design->workload = workloads::buildWorkload(req.workload);

    if (req.graph.empty()) {
        trace::ScopedSpan span(t, "compile.lower", parent);
        design->accel = workloads::lowerBaseline(design->workload);
    } else {
        {
            trace::ScopedSpan span(t, "compile.parse", parent);
            auto parsed = uir::deserializeOrError(
                req.graph, design->workload.module.get());
            if (!parsed.ok()) {
                bool too_large = parsed.error.find("input too large") !=
                                 std::string::npos;
                return fail(too_large ? kErrTooLarge : kErrParse,
                            parsed.line, parsed.error);
            }
            design->accel = std::move(parsed.accel);
        }
        // A hostile graph can parse yet still violate invariants the
        // passes and scheduler assume; the standard lint gate turns
        // that into a structured reply instead of a downstream panic.
        trace::ScopedSpan span(t, "compile.lint", parent);
        auto diags = uir::lint::Linter::standard().run(*design->accel);
        if (uir::lint::countAtLeast(diags,
                                    uir::lint::Severity::Error) > 0)
            return fail(kErrLint, 0, uir::lint::renderText(diags));
    }

    if (!req.passes.empty()) {
        trace::ScopedSpan span(t, "compile.optimize", parent);
        uopt::PassManager pm;
        std::string perr;
        if (!uopt::buildPipeline(pm, req.passes, &perr))
            return fail(kErrPipeline, 0, perr);
        pm.run(*design->accel);
    }

    // Racing misses of one dataflow serialize on its record entry until
    // the first has recorded; the rest retarget what it recorded.
    std::string dataflow = uir::dataflowKey(*design->accel);
    std::shared_ptr<RecordEntry> tier =
        recordEntry(req.workload + '\0' + dataflow);
    std::unique_lock<std::mutex> record_lock(tier->recordMutex);
    if (std::shared_ptr<const sim::Record> record = tier->record) {
        record_lock.unlock();
        trace::ScopedSpan span(t, "compile.retarget", parent);
        {
            std::lock_guard<std::mutex> lock(mutex_);
            ++recordHits_;
        }
        design->compiled = std::make_shared<const sim::CompiledDdg>(
            sim::retarget(std::move(record), *design->accel, dataflow));
    } else {
        // One reference execution freezes the replay index the cached
        // design hands every replay (sim/compiled_ddg.hh): execution
        // is deterministic over the workload's fixed inputs, so the
        // record and the functional result it carries are the ones
        // every replay would produce, and no replay executes again.
        trace::ScopedSpan span(t, "compile.record", parent);
        ir::MemoryImage mem(*design->workload.module);
        design->workload.bind(mem);
        sim::UirExecutor exec(*design->accel, mem,
                              /*record_ddg=*/true);
        exec.run({});
        design->compiled = std::make_shared<const sim::CompiledDdg>(
            sim::compileDdg(*design->accel, exec.takeDdg(),
                            std::move(dataflow)));
        tier->record = design->compiled->record;
        record_lock.unlock();
    }

    // The design's OK reply: one replay with no cycle budget (the
    // watchdog only detects starvation). An OK reply is a function of
    // the design alone, so every request whose budget reaches these
    // cycles gets these bytes.
    trace::ScopedSpan span(t, "compile.replay", parent);
    workloads::RunOptions ro;
    ro.watchdog = true;
    ro.compiled = design->compiled.get();
    workloads::RunResult result =
        workloads::runOn(design->workload, *design->accel, ro);
    {
        std::lock_guard<std::mutex> lock(mutex_);
        ++replays_;
    }
    if (result.check.empty() && !result.hang.tripped()) {
        design->okReply = canonicalResult(result);
        design->cycles = result.cycles;
    }
    return design;
}

std::shared_ptr<DesignCache::RecordEntry>
DesignCache::recordEntry(const std::string &key)
{
    std::lock_guard<std::mutex> lock(mutex_);
    auto [it, fresh] = records_.try_emplace(key);
    if (!fresh)
        return it->second;
    std::shared_ptr<RecordEntry> entry = it->second =
        std::make_shared<RecordEntry>();
    recordFifo_.push_back(key);
    while (records_.size() > maxEntries_) {
        records_.erase(recordFifo_.front());
        recordFifo_.pop_front();
    }
    return entry;
}

std::shared_ptr<const CompiledDesign>
DesignCache::lookup(const RunRequest &req, trace::ActiveTrace *t,
                    uint64_t parent)
{
    uint64_t key = designKey(req);
    std::shared_ptr<Entry> entry;
    bool fresh = false;
    {
        std::lock_guard<std::mutex> lock(mutex_);
        auto it = entries_.find(key);
        if (it != entries_.end()) {
            ++hits_;
            entry = it->second;
        } else {
            ++misses_;
            fresh = true;
            entry = std::make_shared<Entry>();
            entries_.emplace(key, entry);
            fifo_.push_back(key);
            while (entries_.size() > maxEntries_) {
                entries_.erase(fifo_.front());
                fifo_.pop_front();
            }
        }
    }
    // Compile-once: racing requests for the same key serialize on the
    // entry mutex; the loser finds the design already built. Requests
    // for different keys compile concurrently.
    std::lock_guard<std::mutex> compile_lock(entry->compileMutex);
    // The race loser asked for a compile but found it done: that is a
    // hit from the trace's point of view (no compile work charged).
    if (t)
        t->attr(parent, "cache",
                fresh && !entry->design ? "miss" : "hit");
    if (!entry->design)
        entry->design = compile(req, t, parent);
    return entry->design;
}

uint64_t
DesignCache::hits() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    return hits_;
}

uint64_t
DesignCache::misses() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    return misses_;
}

uint64_t
DesignCache::recordHits() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    return recordHits_;
}

uint64_t
DesignCache::replays() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    return replays_;
}

size_t
DesignCache::size() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    return entries_.size();
}

} // namespace muir::serve
