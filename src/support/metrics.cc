#include "support/metrics.hh"

#include <atomic>
#include <sstream>
#include <thread>

#include "support/json.hh"
#include "support/strings.hh"
#include "support/table.hh"

namespace muir::metrics
{

unsigned
histogramBucket(uint64_t value)
{
    if (value == 0)
        return 0;
    unsigned log2 = 0;
    while (value >>= 1)
        ++log2;
    unsigned bucket = 1 + log2;
    return bucket < kHistogramBuckets ? bucket : kHistogramBuckets - 1;
}

uint64_t
histogramBucketLow(unsigned bucket)
{
    if (bucket == 0)
        return 0;
    return uint64_t(1) << (bucket - 1);
}

uint64_t
histogramBucketHigh(unsigned bucket)
{
    if (bucket == 0)
        return 0;
    if (bucket >= kHistogramBuckets - 1)
        return ~uint64_t(0);
    return (uint64_t(1) << bucket) - 1;
}

void
HistogramData::observe(uint64_t value)
{
    ++buckets[histogramBucket(value)];
    ++count;
    sum += value;
    minValue = std::min(minValue, value);
    maxValue = std::max(maxValue, value);
    moments.add(static_cast<double>(value));
}

void
HistogramData::merge(const HistogramData &other)
{
    if (other.count == 0)
        return;
    for (unsigned b = 0; b < kHistogramBuckets; ++b)
        buckets[b] += other.buckets[b];
    count += other.count;
    sum += other.sum;
    minValue = std::min(minValue, other.minValue);
    maxValue = std::max(maxValue, other.maxValue);
    moments.merge(other.moments);
}

std::map<uint64_t, uint64_t>
HistogramData::valueCounts() const
{
    std::map<uint64_t, uint64_t> out;
    for (unsigned b = 0; b < kHistogramBuckets; ++b) {
        if (buckets[b] == 0)
            continue;
        uint64_t rep = std::min(histogramBucketHigh(b), maxValue);
        out[rep] += buckets[b];
    }
    return out;
}

uint64_t
HistogramData::percentile(double pct) const
{
    return histogramPercentile(valueCounts(), pct);
}

uint64_t
Snapshot::counter(const std::string &name) const
{
    auto it = counters.find(name);
    return it == counters.end() ? 0 : it->second;
}

uint64_t
Snapshot::gauge(const std::string &name) const
{
    auto it = gauges.find(name);
    return it == gauges.end() ? 0 : it->second;
}

double
Snapshot::timerMs(const std::string &name) const
{
    auto it = timers.find(name);
    return it == timers.end() ? 0.0 : it->second.ms;
}

const HistogramData *
Snapshot::histogram(const std::string &name) const
{
    auto it = histograms.find(name);
    return it == histograms.end() ? nullptr : &it->second;
}

/**
 * One thread's private slice of a registry. Guarded by its own mutex:
 * the owning thread holds it for each record, snapshot() holds it
 * while merging — so records stay cheap (uncontended lock) and
 * snapshots see a consistent per-shard state.
 */
struct Registry::Shard
{
    std::mutex mutex;
    std::thread::id owner;
    std::map<std::string, uint64_t> counters;
    std::map<std::string, uint64_t> gauges;
    std::map<std::string, TimerStat> timers;
    std::map<std::string, HistogramData> histograms;
};

namespace
{

/** Process-unique registry ids key the thread-local shard cache. */
std::atomic<uint64_t> g_next_registry_id{1};

struct ThreadShardCache
{
    uint64_t registryId = 0;
    Registry::Shard *shard = nullptr;
};

thread_local ThreadShardCache t_shard_cache;

std::atomic<Registry *> g_sink{nullptr};

} // namespace

Registry::Registry() : id_(g_next_registry_id.fetch_add(1)) {}

Registry::~Registry() = default;

Registry::Shard &
Registry::localShard() const
{
    if (t_shard_cache.registryId == id_ && t_shard_cache.shard)
        return *t_shard_cache.shard;
    std::lock_guard<std::mutex> lock(mutex_);
    std::thread::id self = std::this_thread::get_id();
    // The cache misses when a thread first touches this registry or
    // after it recorded into a different registry; re-find our shard
    // rather than grow a new one per miss.
    for (const auto &shard : shards_)
        if (shard->owner == self) {
            t_shard_cache = {id_, shard.get()};
            return *shard;
        }
    shards_.push_back(std::make_unique<Shard>());
    shards_.back()->owner = self;
    t_shard_cache = {id_, shards_.back().get()};
    return *shards_.back();
}

void
Registry::add(const std::string &name, uint64_t delta)
{
    Shard &shard = localShard();
    std::lock_guard<std::mutex> lock(shard.mutex);
    shard.counters[name] += delta;
}

void
Registry::gaugeMax(const std::string &name, uint64_t value)
{
    Shard &shard = localShard();
    std::lock_guard<std::mutex> lock(shard.mutex);
    uint64_t &slot = shard.gauges[name];
    slot = std::max(slot, value);
}

void
Registry::timerAdd(const std::string &name, double ms, uint64_t calls)
{
    Shard &shard = localShard();
    std::lock_guard<std::mutex> lock(shard.mutex);
    TimerStat &t = shard.timers[name];
    t.calls += calls;
    t.ms += ms;
}

void
Registry::observe(const std::string &name, uint64_t value)
{
    Shard &shard = localShard();
    std::lock_guard<std::mutex> lock(shard.mutex);
    shard.histograms[name].observe(value);
}

void
Registry::mergeHistogram(const std::string &name,
                         const HistogramData &data)
{
    if (data.count == 0)
        return;
    Shard &shard = localShard();
    std::lock_guard<std::mutex> lock(shard.mutex);
    shard.histograms[name].merge(data);
}

Snapshot
Registry::snapshot() const
{
    // Shards are created-once and never removed before the registry
    // dies, so a pointer copy under the growth lock is enough; each
    // shard is then merged under its own mutex.
    std::vector<Shard *> shards;
    {
        std::lock_guard<std::mutex> lock(mutex_);
        shards.reserve(shards_.size());
        for (const auto &shard : shards_)
            shards.push_back(shard.get());
    }
    Snapshot snap;
    for (Shard *shard : shards) {
        std::lock_guard<std::mutex> lock(shard->mutex);
        for (const auto &[name, value] : shard->counters)
            snap.counters[name] += value;
        for (const auto &[name, value] : shard->gauges) {
            uint64_t &slot = snap.gauges[name];
            slot = std::max(slot, value);
        }
        for (const auto &[name, t] : shard->timers) {
            TimerStat &slot = snap.timers[name];
            slot.calls += t.calls;
            slot.ms += t.ms;
        }
        for (const auto &[name, h] : shard->histograms)
            snap.histograms[name].merge(h);
    }
    return snap;
}

Registry *
sink()
{
    return g_sink.load(std::memory_order_acquire);
}

Registry *
installSink(Registry *registry)
{
    return g_sink.exchange(registry, std::memory_order_acq_rel);
}

SimSummary
summarizeSim(const Snapshot &snapshot)
{
    SimSummary s;
    s.runs = snapshot.counter("sim.runs");
    s.events = snapshot.counter("sim.events");
    s.firings = snapshot.counter("sim.firings");
    s.cycles = snapshot.counter("sim.cycles");
    s.invocations = snapshot.counter("sim.invocations");
    s.compileWallMs = snapshot.timerMs("sim.compile_ddg");
    s.scheduleWallMs = snapshot.timerMs("sim.schedule");
    double wall_s = s.scheduleWallMs / 1000.0;
    if (wall_s > 0.0) {
        s.eventsPerSec = static_cast<double>(s.events) / wall_s;
        s.simCyclesPerWallSec = static_cast<double>(s.cycles) / wall_s;
    }
    return s;
}

const std::vector<std::string> &
hostMetricsSectionNames()
{
    static const std::vector<std::string> names = {"all", "phases",
                                                   "pool", "sim"};
    return names;
}

namespace
{

void
emitPercentiles(JsonWriter &jw, const HistogramData *hist)
{
    jw.field("count", hist ? hist->count : 0);
    jw.field("p50", hist ? hist->percentile(50.0) : 0);
    jw.field("p95", hist ? hist->percentile(95.0) : 0);
    jw.field("p99", hist ? hist->percentile(99.0) : 0);
    jw.field("max", hist && hist->count ? hist->maxValue : 0);
    jw.field("mean", hist ? hist->mean() : 0.0);
}

} // namespace

std::string
hostPerfJson(const Snapshot &snapshot, const std::string &workload)
{
    SimSummary sim = summarizeSim(snapshot);
    std::ostringstream os;
    JsonWriter jw(os, /*pretty=*/false);
    jw.beginObject();
    jw.field("schema", "muir.hostperf.v1");
    jw.field("workload", workload);

    jw.beginObject("phases");
    double compile_ms = snapshot.timerMs("phase.compile");
    double optimize_ms = snapshot.timerMs("phase.optimize");
    double simulate_ms = snapshot.timerMs("phase.simulate");
    jw.field("compile_ms", compile_ms);
    jw.field("optimize_ms", optimize_ms);
    jw.field("simulate_ms", simulate_ms);
    jw.field("total_ms", compile_ms + optimize_ms + simulate_ms);
    jw.end();

    jw.beginObject("sim");
    jw.field("runs", sim.runs);
    jw.field("events", sim.events);
    jw.field("node_firings", sim.firings);
    jw.field("cycles", sim.cycles);
    jw.field("invocations", sim.invocations);
    jw.field("compile_wall_ms", sim.compileWallMs);
    jw.field("schedule_wall_ms", sim.scheduleWallMs);
    jw.field("events_per_sec", sim.eventsPerSec);
    jw.field("sim_cycles_per_wall_sec", sim.simCyclesPerWallSec);
    jw.beginObject("ready_queue_depth");
    emitPercentiles(jw, snapshot.histogram("sim.ready_queue_depth"));
    jw.end();
    jw.end();

    jw.beginObject("pool");
    uint64_t busy_us = snapshot.counter("pool.busy_us");
    uint64_t idle_us = snapshot.counter("pool.idle_us");
    jw.field("workers", snapshot.gauge("pool.workers"));
    jw.field("spawns", snapshot.counter("pool.spawns"));
    jw.field("items", snapshot.counter("pool.items"));
    jw.field("busy_ms", static_cast<double>(busy_us) / 1000.0);
    jw.field("idle_ms", static_cast<double>(idle_us) / 1000.0);
    jw.field("utilization",
             busy_us + idle_us
                 ? static_cast<double>(busy_us) /
                       static_cast<double>(busy_us + idle_us)
                 : 0.0);
    jw.beginObject("claim_ns");
    emitPercentiles(jw, snapshot.histogram("pool.claim_ns"));
    jw.end();
    jw.end();

    jw.end();
    return os.str();
}

namespace
{

std::string
renderPhases(const Snapshot &snapshot)
{
    double compile_ms = snapshot.timerMs("phase.compile");
    double optimize_ms = snapshot.timerMs("phase.optimize");
    double simulate_ms = snapshot.timerMs("phase.simulate");
    AsciiTable t({"phase", "wall ms"});
    t.addRow({"compile", fmt("%.3f", compile_ms)});
    t.addRow({"optimize", fmt("%.3f", optimize_ms)});
    t.addRow({"simulate", fmt("%.3f", simulate_ms)});
    t.addSeparator();
    t.addRow({"total",
              fmt("%.3f", compile_ms + optimize_ms + simulate_ms)});
    return t.render("host phases");
}

std::string
renderSim(const Snapshot &snapshot)
{
    SimSummary sim = summarizeSim(snapshot);
    std::ostringstream os;
    AsciiTable t({"metric", "value"});
    t.addRow({"schedule runs", fmt("%llu",
                                   (unsigned long long)sim.runs)});
    t.addRow({"events", fmt("%llu", (unsigned long long)sim.events)});
    t.addRow({"node firings",
              fmt("%llu", (unsigned long long)sim.firings)});
    t.addRow({"sim cycles", fmt("%llu",
                                (unsigned long long)sim.cycles)});
    t.addRow({"invocations",
              fmt("%llu", (unsigned long long)sim.invocations)});
    t.addRow({"compile wall ms", fmt("%.3f", sim.compileWallMs)});
    t.addRow({"schedule wall ms", fmt("%.3f", sim.scheduleWallMs)});
    t.addRow({"events / sec", fmt("%.0f", sim.eventsPerSec)});
    t.addRow({"sim cycles / wall sec",
              fmt("%.0f", sim.simCyclesPerWallSec)});
    if (const HistogramData *depth =
            snapshot.histogram("sim.ready_queue_depth"))
        t.addRow({"ready-queue depth p50/p95/max",
                  fmt("%llu / %llu / %llu",
                      (unsigned long long)depth->percentile(50.0),
                      (unsigned long long)depth->percentile(95.0),
                      (unsigned long long)depth->maxValue)});
    os << t.render("simulator self-profile");
    return os.str();
}

std::string
renderPool(const Snapshot &snapshot)
{
    std::ostringstream os;
    uint64_t busy_us = snapshot.counter("pool.busy_us");
    uint64_t idle_us = snapshot.counter("pool.idle_us");
    AsciiTable t({"metric", "value"});
    t.addRow({"peak workers",
              fmt("%llu",
                  (unsigned long long)snapshot.gauge("pool.workers"))});
    t.addRow({"pool spawns",
              fmt("%llu",
                  (unsigned long long)snapshot.counter("pool.spawns"))});
    t.addRow({"items", fmt("%llu", (unsigned long long)snapshot.counter(
                                       "pool.items"))});
    t.addRow({"busy ms", fmt("%.3f", busy_us / 1000.0)});
    t.addRow({"idle ms", fmt("%.3f", idle_us / 1000.0)});
    t.addRow({"utilization",
              fmt("%5.1f%%",
                  busy_us + idle_us
                      ? 100.0 * static_cast<double>(busy_us) /
                            static_cast<double>(busy_us + idle_us)
                      : 0.0)});
    if (const HistogramData *claim =
            snapshot.histogram("pool.claim_ns"))
        t.addRow({"claim ns p50/p95/p99",
                  fmt("%llu / %llu / %llu",
                      (unsigned long long)claim->percentile(50.0),
                      (unsigned long long)claim->percentile(95.0),
                      (unsigned long long)claim->percentile(99.0))});
    os << t.render("worker pool");

    // Per-worker rows exist only for threaded runs; the table is
    // omitted when the pool never went wide.
    AsciiTable workers({"worker", "items", "busy ms", "idle ms"});
    bool any = false;
    for (unsigned k = 0; k < 256; ++k) {
        std::string prefix = "pool.worker." + std::to_string(k) + ".";
        if (!snapshot.counters.count(prefix + "items") &&
            !snapshot.counters.count(prefix + "busy_us"))
            break;
        any = true;
        workers.addRow(
            {std::to_string(k),
             fmt("%llu", (unsigned long long)snapshot.counter(
                             prefix + "items")),
             fmt("%.3f",
                 snapshot.counter(prefix + "busy_us") / 1000.0),
             fmt("%.3f",
                 snapshot.counter(prefix + "idle_us") / 1000.0)});
    }
    if (any)
        os << workers.render("per-worker utilization");
    return os.str();
}

} // namespace

std::string
renderHostMetricsText(const Snapshot &snapshot,
                      const std::string &section)
{
    std::ostringstream os;
    if (section == "all" || section == "phases")
        os << renderPhases(snapshot);
    if (section == "all" || section == "sim")
        os << renderSim(snapshot);
    if (section == "all" || section == "pool")
        os << renderPool(snapshot);
    return os.str();
}

} // namespace muir::metrics
