#include "sim/timing.hh"

#include <algorithm>
#include <chrono>
#include <memory>
#include <vector>

#include "sim/compiled_ddg.hh"
#include "sim/fault.hh"
#include "support/logging.hh"
#include "support/metrics.hh"

namespace muir::sim
{

namespace
{

/** Set-associative LRU tag array simulated over real addresses. */
class CacheTags
{
  public:
    CacheTags(const uir::Structure &s)
        : lineBytes_(s.lineBytes()), ways_(s.ways())
    {
        unsigned lines = std::max(1u, s.sizeKb() * 1024 / s.lineBytes());
        sets_ = std::max(1u, lines / std::max(1u, s.ways()));
        tags_.assign(sets_, {});
    }

    /** @return true on hit; updates LRU/allocates on miss. */
    bool
    access(uint64_t addr)
    {
        uint64_t line = addr / lineBytes_;
        auto &set = tags_[line % sets_];
        auto it = std::find(set.begin(), set.end(), line);
        if (it != set.end()) {
            set.erase(it);
            set.insert(set.begin(), line);
            return true;
        }
        set.insert(set.begin(), line);
        if (set.size() > ways_)
            set.pop_back();
        return false;
    }

  private:
    unsigned lineBytes_;
    unsigned ways_;
    unsigned sets_;
    std::vector<std::vector<uint64_t>> tags_;
};

/**
 * Claim the earliest-free port of a contiguous port-file range.
 * Ties keep the lowest port index (hardware fixed-priority pick among
 * idle ports), matching std::min_element over the old per-resource
 * vectors bit for bit.
 */
uint64_t
claimPort(uint64_t *ports, unsigned count, uint64_t ready, uint64_t busy)
{
    uint64_t *best = ports;
    for (unsigned i = 1; i < count; ++i)
        if (ports[i] < *best)
            best = ports + i;
    uint64_t start = std::max(ready, *best);
    *best = start + busy;
    return start;
}

/**
 * The ready queue: a monotone (radix/calendar) priority queue over
 * (ready-cycle, event-id).
 *
 * Every key pushed is >= the key last popped — a dependent's ready
 * time is the max of finish times of events at or after the current
 * cycle — which is exactly the precondition a radix heap needs.
 * Bucket b > 0 holds entries whose key first differs from the current
 * minimum at bit b-1; bucket membership is an intrusive singly-linked
 * list through a flat per-event `next_` array (an event is enqueued
 * at most once, when its last dependency resolves), so a push is O(1)
 * with no allocation. Entries at the current minimum key live in
 * `now_`, a binary min-heap on event id, which reproduces the
 * (ready, id) lexicographic pop order of the std::priority_queue this
 * replaces — that order is the round-robin arbitration model and is
 * part of the bit-exactness contract.
 *
 * When `now_` drains, advance() finds the lowest nonempty bucket —
 * which provably contains the global minimum — scans it for the new
 * minimum key, and redistributes: equal keys into `now_`, the rest
 * into strictly lower buckets (keys sharing a bucket agree on all
 * bits above it, so their XOR has a lower MSB). Each entry therefore
 * migrates at most 64 times, amortized O(1) per operation.
 */
class ReadyQueue
{
  public:
    ReadyQueue(const uint64_t *keys, uint32_t num_events)
        : keys_(keys), next_(num_events, kNoId32)
    {
        std::fill(std::begin(head_), std::end(head_), kNoId32);
    }

    bool empty() const { return size_ == 0; }
    size_t size() const { return size_; }

    void
    push(uint32_t id)
    {
        ++size_;
        uint64_t key = keys_[id];
        if (key == min_) {
            now_.push_back(id);
            std::push_heap(now_.begin(), now_.end(),
                           std::greater<uint32_t>());
            return;
        }
        unsigned b = 64 - __builtin_clzll(key ^ min_);
        next_[id] = head_[b];
        head_[b] = id;
    }

    /** Pop the (ready, id)-least entry; precondition: !empty(). */
    uint32_t
    pop()
    {
        if (now_.empty())
            advance();
        std::pop_heap(now_.begin(), now_.end(),
                      std::greater<uint32_t>());
        uint32_t id = now_.back();
        now_.pop_back();
        --size_;
        return id;
    }

  private:
    void
    advance()
    {
        unsigned b = 1;
        while (head_[b] == kNoId32)
            ++b;
        uint64_t new_min = ~uint64_t(0);
        for (uint32_t id = head_[b]; id != kNoId32; id = next_[id])
            new_min = std::min(new_min, keys_[id]);
        min_ = new_min;
        uint32_t id = head_[b];
        head_[b] = kNoId32;
        while (id != kNoId32) {
            uint32_t next = next_[id];
            uint64_t key = keys_[id];
            if (key == new_min) {
                now_.push_back(id);
            } else {
                unsigned nb = 64 - __builtin_clzll(key ^ new_min);
                next_[id] = head_[nb];
                head_[nb] = id;
            }
            id = next;
        }
        std::make_heap(now_.begin(), now_.end(),
                       std::greater<uint32_t>());
    }

    /** Ready times, owned by the scheduler; an entry's key is frozen
     *  by the time it is pushed (all producers have finished). */
    const uint64_t *keys_;
    uint64_t min_ = 0;
    size_t size_ = 0;
    std::vector<uint32_t> next_;
    uint32_t head_[65];
    /** Entries at the current minimum key, min-heap on id. */
    std::vector<uint32_t> now_;
};

/**
 * μmeter per-run scratch for the scheduler self-profile. Everything
 * accumulates locally and is flushed to the sink once per run, so the
 * hot loop never takes a registry lock.
 */
struct MeterState
{
    std::chrono::steady_clock::time_point t0;
    metrics::HistogramData queueDepth;
};

} // namespace

TimingResult
scheduleDdg(const CompiledDdg &cd, RunContext &ctx)
{
    ScheduleLog *log = ctx.log;
    Watchdog *watchdog = ctx.watchdog;
    const uint64_t budget = watchdog && watchdog->maxCycles
                                ? watchdog->maxCycles
                                : ~uint64_t(0);
    TimingResult result;
    const uint32_t n = cd.numEvents;
    if (log) {
        log->start.assign(n, 0);
        log->rank.assign(n, kNoId32);
        log->memRow.assign(n, kNoId32);
        log->mem.clear();
    }

    // μmeter self-profiling. With no sink installed, mstate stays
    // null, no clock is read, and the schedule is bit-identical to
    // the unmetered one — the same observational-guard contract the
    // schedule log honors.
    metrics::Registry *meter = metrics::sink();
    std::unique_ptr<MeterState> mstate;
    if (meter) {
        mstate = std::make_unique<MeterState>();
        mstate->t0 = std::chrono::steady_clock::now();
    }

    // Per-run mutable state: flat, indexed by the compiled ids.
    std::vector<uint32_t> pending(n, 0);
    for (uint32_t id = 0; id < n; ++id)
        pending[id] = cd.numInputs(id);

    std::vector<uint64_t> finish(n, 0);
    std::vector<uint64_t> readyAt(n, 0);

    // Structural resource state: one flat next-free-cycle file for the
    // in-order-initiation slots and one for every junction/bank port,
    // laid out by compileDdg; cache tags per compiled structure.
    std::vector<uint64_t> initFree(cd.initSlots, 0);
    std::vector<uint64_t> portFree(cd.portSlots, 0);
    std::vector<std::unique_ptr<CacheTags>> tags(cd.structs.size());
    for (size_t i = 0; i < cd.structs.size(); ++i)
        if (cd.structs[i].isCache)
            tags[i] = std::make_unique<CacheTags>(*cd.structs[i].s);
    uint64_t dramFree = 0;

    // Discrete-event processing in (ready-time, id) order: resources
    // arbitrate between requests in the order they become ready, the
    // way hardware round-robin arbitration would.
    ReadyQueue queue(readyAt.data(), n);
    for (uint32_t id = 0; id < n; ++id)
        if (pending[id] == 0)
            queue.push(id);

    // Stat accumulation stays in flat locals; the StatSet (a sorted
    // map, so insertion order never shows) is written once per run
    // with the same key-presence semantics the per-event incs had.
    uint64_t firings = 0;
    uint64_t mem_events = 0;
    uint64_t junction_wait = 0;
    uint64_t bank_wait = 0;
    uint64_t cache_hits = 0;
    uint64_t cache_misses = 0;
    uint64_t scratch_accesses = 0;
    std::vector<uint64_t> taskEvents(cd.tasks.size(), 0);
    std::vector<uint64_t> taskStall(cd.tasks.size(), 0);

    uint64_t processed = 0;
    bool budget_tripped = false;
    while (!queue.empty()) {
        uint32_t id = queue.pop();
        uint64_t ready = readyAt[id];
        if (ready > budget) {
            budget_tripped = true;
            break;
        }
        ++processed;
        if (mstate)
            mstate->queueDepth.observe(queue.size() + 1);

        const uint8_t fl = cd.flags[id];

        uint64_t end_time;
        uint64_t started = ready;
        if (fl & kEvCompletion) {
            end_time = ready;
        } else {
            const CompiledNode &cn = cd.nodeInfo[cd.nodeOf[id]];
            const uint32_t tile = cd.invTile[cd.invocation[id]];
            // In-order initiation per static node per tile.
            uint64_t &nf = initFree[cn.slotBase + tile];
            uint64_t start = std::max(ready, nf);

            uint64_t latency = cn.latency;

            if (fl & (kEvLoad | kEvStore)) {
                // Junction arbitration (task-side R/W ports, §3.4).
                const CompiledTask &ct = cd.tasks[cn.task];
                bool load = fl & kEvLoad;
                const uint64_t ii_start = start;
                start = claimPort(&portFree[ct.junctionSlot(tile, load)],
                                  load ? ct.readPorts : ct.writePorts,
                                  start, 1);
                ++mem_events;
                junction_wait += start - ii_start;

                // Structure access.
                const CompiledStruct &cs = cd.structs[cn.structure];
                const uint64_t addr = cd.addr[id];
                const unsigned words = cd.words[id];
                unsigned beats = cs.beats(words);
                const uint64_t junction_start = start;
                start = claimPort(&portFree[cs.bankSlot(addr)],
                                  cs.portsPerBank, start, beats);
                bank_wait += start - junction_start;

                uint64_t access = cs.latency + beats - 1;
                uint64_t refill = ScheduleLog::kNoRefill;
                CacheTags *tag = tags[cn.structure].get();
                if (tag) {
                    bool hit = tag->access(addr);
                    // A multi-word access that straddles a line probes
                    // the second line too.
                    uint64_t last = addr + words * 4 - 1;
                    if (words > 1 &&
                        last / cs.lineBytes != addr / cs.lineBytes)
                        hit &= tag->access(last);
                    if (hit) {
                        ++cache_hits;
                    } else {
                        ++cache_misses;
                        uint64_t xfer = cs.missXfer;
                        uint64_t dram_start =
                            std::max(start + access, dramFree);
                        dramFree = dram_start + xfer;
                        refill = dram_start;
                        access = (dram_start - start) + cs.missLatency;
                    }
                } else {
                    ++scratch_accesses;
                }
                latency += access;
                if (log) {
                    log->memRow[id] =
                        static_cast<uint32_t>(log->mem.size());
                    log->mem.push_back({ii_start, junction_start, refill});
                }
            }

            nf = start + cn.initInterval;
            end_time = start + latency;
            started = start;
            ++firings;
            // Per-task stall attribution: time spent waiting on
            // structural resources after operands were ready.
            ++taskEvents[cn.task];
            if (start > ready)
                taskStall[cn.task] += start - ready;
        }

        if (log) {
            log->start[id] = started;
            log->rank[id] = static_cast<uint32_t>(processed - 1);
        }
        finish[id] = end_time;
        result.cycles = std::max(result.cycles, end_time);
        for (uint32_t k = cd.depdStart[id]; k < cd.depdStart[id + 1];
             ++k) {
            uint32_t dep_id = cd.dependents[k];
            readyAt[dep_id] = std::max(readyAt[dep_id], end_time);
            if (--pending[dep_id] == 0)
                queue.push(dep_id);
        }
    }

    // Flush the per-run accumulators with the exact key-presence
    // semantics of the per-event incs they replace: a key exists iff
    // the event class occurred at least once (wait totals may be 0).
    if (firings)
        result.stats.inc("events", firings);
    if (mem_events) {
        result.stats.inc("junction.wait_cycles", junction_wait);
        result.stats.inc("bank.wait_cycles", bank_wait);
    }
    if (cache_hits)
        result.stats.inc("cache.hits", cache_hits);
    if (cache_misses)
        result.stats.inc("cache.misses", cache_misses);
    if (scratch_accesses)
        result.stats.inc("scratchpad.accesses", scratch_accesses);
    for (size_t t = 0; t < cd.tasks.size(); ++t) {
        if (taskStall[t])
            result.stats.inc(cd.tasks[t].statPrefix + "stall_cycles",
                             taskStall[t]);
        if (taskEvents[t])
            result.stats.inc(cd.tasks[t].statPrefix + "events",
                             taskEvents[t]);
    }
    // The log takes over the scheduler's own ready and finish columns.
    if (log) {
        log->ready = std::move(readyAt);
        log->finish = std::move(finish);
    }

    if (watchdog) {
        // Dynamic watchdog: the queue draining with events still
        // unscheduled is token starvation — the dynamic analogue of the
        // deadlocks μlint's D-checks rule out statically.
        if (budget_tripped) {
            HangDiagnosis &diag = watchdog->hang;
            diag.budgetExceeded = true;
            diag.scheduled = processed;
            diag.total = n;
            diag.budget = budget;
        } else if (processed < n) {
            watchdog->hang = diagnoseHang(cd, pending, processed);
        }
    } else {
        muir_assert(processed == n,
                    "timing: %llu of %lu events scheduled",
                    static_cast<unsigned long long>(processed),
                    static_cast<unsigned long>(n));
    }
    result.stats.set("invocations", cd.numInvocations);

    // Flush the μmeter scratch: one registry transaction per run.
    if (meter) {
        std::chrono::duration<double, std::milli> wall =
            std::chrono::steady_clock::now() - mstate->t0;
        meter->timerAdd("sim.schedule", wall.count());
        meter->add("sim.runs");
        meter->add("sim.events", processed);
        meter->add("sim.firings", firings);
        meter->add("sim.cycles", result.cycles);
        meter->add("sim.invocations", cd.numInvocations);
        meter->gaugeMax("sim.ready_queue_peak",
                        mstate->queueDepth.maxValue);
        meter->mergeHistogram("sim.ready_queue_depth",
                              mstate->queueDepth);
    }
    return result;
}

std::vector<uint32_t>
ScheduleLog::order() const
{
    std::vector<uint32_t> out(
        rank.size() - std::count(rank.begin(), rank.end(), kNoId32));
    for (uint32_t e = 0; e < rank.size(); ++e)
        if (processed(e))
            out[rank[e]] = e;
    return out;
}

} // namespace muir::sim
