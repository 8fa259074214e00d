/**
 * @file
 * μmeter — the host-side performance metrics registry. Everything else
 * in the repo measures *simulated* time; this module measures the
 * simulator itself: how many events per wall-second `scheduleDdg`
 * retires, where muirc's wall-clock goes per phase, and how busy the
 * μrun worker pool keeps its threads.
 *
 * Design constraints, in priority order:
 *
 *  1. Zero observable effect when off. Producers fetch the process
 *     sink once (`metrics::sink()`); a null sink short-circuits every
 *     record call to a pointer test, and no producer takes a clock
 *     reading unless a sink is installed. Simulated cycles and StatSet
 *     contents are bit-identical either way — the same observational-
 *     guard contract μprof and μscope honor, guarded by test.
 *
 *  2. Thread-safe and low-contention. The registry shards per thread:
 *     each recording thread writes its own shard under its own mutex
 *     (uncontended in steady state), and `snapshot()` merges shards on
 *     demand. Gate cells and campaign items recording from a parallel
 *     fan-out never serialize against each other.
 *
 *  3. Deterministic schema. `hostPerfJson()` emits the
 *     `muir.hostperf.v1` section with a byte-stable key structure —
 *     values vary run to run, keys never do — so muir-diff and CI can
 *     parse it without per-machine special cases.
 *
 * Well-known instrument names (the contract between producers and the
 * report emitters):
 *
 *   timers      phase.compile / phase.optimize / phase.simulate
 *               sim.compile_ddg (wall time inside compileDdg)
 *               sim.schedule (wall time inside scheduleDdg)
 *   counters    sim.runs, sim.events, sim.firings, sim.cycles,
 *               sim.invocations,
 *               pool.spawns, pool.items, pool.busy_us, pool.idle_us,
 *               pool.worker.<k>.{items,busy_us,idle_us}
 *   gauges      sim.ready_queue_peak, pool.workers (merge = max)
 *   histograms  sim.ready_queue_depth, pool.claim_ns
 */
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "support/stats.hh"

namespace muir::metrics
{

/**
 * Histograms use a fixed power-of-two bucketing so recording is O(1),
 * merge is a 64-lane add, and the memory footprint is constant no
 * matter how wide the observed range is. Bucket 0 holds the value 0;
 * bucket b >= 1 holds [2^(b-1), 2^b - 1]; the top bucket absorbs
 * everything beyond 2^62.
 */
constexpr unsigned kHistogramBuckets = 64;

/** Bucket index for one observation. */
unsigned histogramBucket(uint64_t value);

/** Inclusive lower bound of a bucket. */
uint64_t histogramBucketLow(unsigned bucket);

/** Inclusive upper bound of a bucket (saturates for the top bucket). */
uint64_t histogramBucketHigh(unsigned bucket);

/**
 * One fixed-bucket histogram plus exact streaming moments. The bucket
 * array answers percentile queries (via the StatSet nearest-rank
 * helpers over a value→count expansion); the Welford accumulator keeps
 * mean/stddev exact rather than bucket-quantized.
 */
struct HistogramData
{
    uint64_t buckets[kHistogramBuckets] = {};
    uint64_t count = 0;
    uint64_t sum = 0;
    uint64_t minValue = ~uint64_t(0);
    uint64_t maxValue = 0;
    Welford moments;

    void observe(uint64_t value);
    void merge(const HistogramData &other);

    bool empty() const { return count == 0; }
    double mean() const { return moments.mean(); }
    double stddev() const { return moments.stddev(); }

    /**
     * Expand to the value→count map the StatSet percentile helpers
     * consume. Each bucket is represented by its upper bound (its
     * lower bound for bucket 0), clamped to the observed max so the
     * p100/max column never exceeds reality.
     */
    std::map<uint64_t, uint64_t> valueCounts() const;

    /** Nearest-rank percentile over the bucketized distribution. */
    uint64_t percentile(double pct) const;
};

/** Accumulated scoped-timer state: call count and total wall time. */
struct TimerStat
{
    uint64_t calls = 0;
    double ms = 0.0;
};

/** A merged, point-in-time view of every shard of a registry. */
struct Snapshot
{
    std::map<std::string, uint64_t> counters;
    std::map<std::string, uint64_t> gauges;
    std::map<std::string, TimerStat> timers;
    std::map<std::string, HistogramData> histograms;

    /** Read a counter; absent reads as 0. */
    uint64_t counter(const std::string &name) const;
    /** Read a gauge; absent reads as 0. */
    uint64_t gauge(const std::string &name) const;
    /** Accumulated timer milliseconds; absent reads as 0. */
    double timerMs(const std::string &name) const;
    /** Histogram by name; nullptr when absent. */
    const HistogramData *histogram(const std::string &name) const;
};

/**
 * The registry proper. All record paths are thread-safe; each thread
 * writes a private shard guarded by a shard-local mutex, so concurrent
 * recorders do not contend. `snapshot()` may run concurrently with
 * recording and sees a consistent per-shard prefix.
 */
class Registry
{
  public:
    Registry();
    ~Registry();
    Registry(const Registry &) = delete;
    Registry &operator=(const Registry &) = delete;

    /** Add to a monotonic counter. */
    void add(const std::string &name, uint64_t delta = 1);

    /** Raise a high-watermark gauge (merge across shards = max). */
    void gaugeMax(const std::string &name, uint64_t value);

    /** Accumulate wall time into a named timer. */
    void timerAdd(const std::string &name, double ms,
                  uint64_t calls = 1);

    /** Record one observation into a named histogram. */
    void observe(const std::string &name, uint64_t value);

    /** Fold a locally accumulated histogram in (one lock, not N). */
    void mergeHistogram(const std::string &name,
                        const HistogramData &data);

    /** Merge every shard into one consistent view. */
    Snapshot snapshot() const;

    /** Opaque per-thread slice; defined in metrics.cc. */
    struct Shard;

  private:
    Shard &localShard() const;

    mutable std::mutex mutex_; ///< guards shards_ growth
    mutable std::vector<std::unique_ptr<Shard>> shards_;
    const uint64_t id_; ///< process-unique, keys the thread-local cache
};

/**
 * @name Process-wide sink
 * Producers (scheduleDdg, the worker pool, gate cells) record into the
 * installed sink, if any. The sink pointer is an atomic: installation
 * is expected at tool startup / test scope, not per event. The caller
 * owns the registry and must keep it alive while installed.
 * @{
 */

/** The installed sink, or nullptr (the default: metrics off). */
Registry *sink();

/** Install @p registry (nullptr = disable); @return the previous sink. */
Registry *installSink(Registry *registry);

/** RAII sink installation for tool mains and test scopes. */
class ScopedSink
{
  public:
    explicit ScopedSink(Registry *registry)
        : previous_(installSink(registry))
    {
    }
    ~ScopedSink() { installSink(previous_); }
    ScopedSink(const ScopedSink &) = delete;
    ScopedSink &operator=(const ScopedSink &) = delete;

  private:
    Registry *previous_;
};

/**
 * Scoped wall-clock timer. Binds the sink at construction; a null
 * sink makes both ends of the scope no-ops (no clock read).
 */
class ScopedTimer
{
  public:
    explicit ScopedTimer(const char *name)
        : sink_(sink()), name_(name)
    {
        if (sink_)
            start_ = std::chrono::steady_clock::now();
    }
    ~ScopedTimer()
    {
        if (!sink_)
            return;
        std::chrono::duration<double, std::milli> elapsed =
            std::chrono::steady_clock::now() - start_;
        sink_->timerAdd(name_, elapsed.count());
    }
    ScopedTimer(const ScopedTimer &) = delete;
    ScopedTimer &operator=(const ScopedTimer &) = delete;

  private:
    Registry *sink_;
    const char *name_;
    std::chrono::steady_clock::time_point start_;
};

/** @} */

/** Derived per-run scheduler summary the reports and benches share. */
struct SimSummary
{
    uint64_t runs = 0;
    uint64_t events = 0;
    uint64_t firings = 0;
    uint64_t cycles = 0;
    uint64_t invocations = 0;
    double compileWallMs = 0.0;
    double scheduleWallMs = 0.0;
    double eventsPerSec = 0.0;
    double simCyclesPerWallSec = 0.0;
};

/** Compute the sim.* summary from a snapshot. */
SimSummary summarizeSim(const Snapshot &snapshot);

/**
 * @name Reports
 * @{
 */

/** Section names `muirc --host-metrics` accepts (first is "all"). */
const std::vector<std::string> &hostMetricsSectionNames();

/**
 * The `muir.hostperf.v1` JSON object (no trailing newline). The key
 * structure is identical for every run — absent instruments emit as
 * zeros — so consumers can rely on the schema byte-for-byte.
 */
std::string hostPerfJson(const Snapshot &snapshot,
                         const std::string &workload);

/** ASCII tables for one section ("all", "phases", "pool", "sim"). */
std::string renderHostMetricsText(const Snapshot &snapshot,
                                  const std::string &section);

/** @} */

} // namespace muir::metrics
