#include "serve/cache.hh"

#include <algorithm>
#include <utility>

#include "uir/lint/lint.hh"
#include "uir/serialize.hh"
#include "uopt/pass.hh"
#include "uopt/pipeline.hh"
#include "workloads/driver.hh"

namespace muir::serve
{

uint64_t
fnv1a64(const std::string &bytes)
{
    uint64_t h = 0xCBF29CE484222325ull;
    for (unsigned char c : bytes) {
        h ^= c;
        h *= 0x100000001B3ull;
    }
    return h;
}

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

namespace
{

/** Null-safe RAII span over a raw ActiveTrace pointer. */
struct RawSpan
{
    trace::ActiveTrace *t;
    uint64_t id = 0;
    RawSpan(trace::ActiveTrace *t, const char *name, uint64_t parent)
        : t(t)
    {
        if (t)
            id = t->begin(name, parent);
    }
    ~RawSpan()
    {
        if (t)
            t->end(id);
    }
};

} // namespace

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
        RawSpan span(t, "compile.lower", parent);
        design->accel = workloads::lowerBaseline(design->workload);
    } else {
        {
            RawSpan span(t, "compile.parse", parent);
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
        RawSpan span(t, "compile.lint", parent);
        auto diags = uir::lint::Linter::standard().run(*design->accel);
        if (uir::lint::countAtLeast(diags,
                                    uir::lint::Severity::Error) > 0)
            return fail(kErrLint, 0, uir::lint::renderText(diags));
    }

    if (!req.passes.empty()) {
        RawSpan span(t, "compile.optimize", parent);
        uopt::PassManager pm;
        std::string perr;
        if (!uopt::buildPipeline(pm, req.passes, &perr))
            return fail(kErrPipeline, 0, perr);
        pm.run(*design->accel);
    }

    // Racing misses of one dataflow serialize on its record entry until
    // the first has recorded; the rest retarget what it recorded.
    std::shared_ptr<Entry> record = recordEntry(
        req.workload + '\0' + uir::dataflowKey(*design->accel));
    std::unique_lock<std::mutex> record_lock(record->compileMutex);
    if (std::shared_ptr<const CompiledDesign> base = record->design) {
        record_lock.unlock();
        RawSpan span(t, "compile.retarget", parent);
        {
            std::lock_guard<std::mutex> lock(mutex_);
            ++recordHits_;
        }
        design->compiled = std::make_shared<const sim::CompiledDdg>(
            sim::retarget(*base->compiled, *design->accel));
        return design;
    }
    {
        // One reference execution freezes the replay index the cached
        // design hands every replay (sim/compiled_ddg.hh): execution
        // is deterministic over the workload's fixed inputs, so the
        // record and the functional result it carries are the ones
        // every replay would produce, and no replay executes again.
        RawSpan span(t, "compile.record", parent);
        ir::MemoryImage mem(*design->workload.module);
        design->workload.bind(mem);
        sim::UirExecutor exec(*design->accel, mem,
                              /*record_ddg=*/true);
        exec.run({});
        design->compiled = std::make_shared<const sim::CompiledDdg>(
            sim::compileDdg(*design->accel, exec.takeDdg()));
    }
    record->design = design;
    return design;
}

std::shared_ptr<DesignCache::Entry>
DesignCache::recordEntry(const std::string &key)
{
    std::lock_guard<std::mutex> lock(mutex_);
    auto [it, fresh] = records_.try_emplace(key);
    if (!fresh)
        return it->second;
    std::shared_ptr<Entry> entry = it->second = std::make_shared<Entry>();
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

size_t
DesignCache::size() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    return entries_.size();
}

} // namespace muir::serve
