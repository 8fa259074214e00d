/**
 * @file
 * Shared harness helpers for the per-table/per-figure benchmark
 * binaries. Each binary builds the relevant workloads, applies the
 * pass stack under study, simulates, and prints the paper's rows with
 * the expected qualitative shape alongside.
 */
#pragma once

#include <chrono>
#include <condition_variable>
#include <cstdlib>
#include <fstream>
#include <functional>
#include <memory>
#include <mutex>
#include <sstream>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "cost/cost_model.hh"
#include "sim/compiled_ddg.hh"
#include "support/json.hh"
#include "support/logging.hh"
#include "support/strings.hh"
#include "support/table.hh"
#include "uopt/passes.hh"
#include "workloads/driver.hh"
#include "workloads/workload.hh"

namespace muir::bench
{

/** One configured, simulated, and synthesized design point. */
struct Design
{
    workloads::Workload workload;
    std::unique_ptr<uir::Accelerator> accel;
    workloads::RunResult run;
    cost::SynthesisReport synth;

    /** Wall time at the achieved FPGA clock, microseconds. */
    double timeUs() const { return run.cycles / synth.fpgaMhz; }
};

/**
 * Wall-clock watchdog for the bench binaries: a scheduler regression
 * that deadlocks or livelocks a simulation would otherwise hang CI
 * until the job-level timeout with no clue where it stuck. The budget
 * (MUIR_BENCH_TIMEOUT_S, default 600, 0 disables) applies to each
 * individual run — a binary that simulates twelve designs gets twelve
 * budgets, not one shared one, so a late row can't inherit a guard
 * already mostly spent by its predecessors. When a run overruns, the
 * watcher names it and exits, instead of the old whole-process timer's
 * anonymous "something, somewhere, is slow".
 *
 * Scopes may be open on several threads at once (parallel campaigns);
 * the registry is mutex-protected and the watcher polls it.
 */
class WallClockGuard
{
  public:
    /** RAII registration of one named run against the budget. */
    class RunScope
    {
      public:
        explicit RunScope(std::string identity)
        {
            id_ = instance().beginRun(std::move(identity));
        }
        ~RunScope() { instance().endRun(id_); }
        RunScope(const RunScope &) = delete;
        RunScope &operator=(const RunScope &) = delete;

      private:
        uint64_t id_;
    };

  private:
    using Clock = std::chrono::steady_clock;

    static WallClockGuard &instance()
    {
        static WallClockGuard guard;
        return guard;
    }

    WallClockGuard()
    {
        seconds_ = 600;
        if (const char *env = std::getenv("MUIR_BENCH_TIMEOUT_S"))
            seconds_ = unsigned(std::strtoul(env, nullptr, 10));
        if (!seconds_)
            return;
        watcher_ = std::thread([this] { watch(); });
    }

    ~WallClockGuard()
    {
        if (!watcher_.joinable())
            return;
        {
            std::lock_guard<std::mutex> lock(mutex_);
            done_ = true;
        }
        done_cv_.notify_all();
        watcher_.join();
    }

    uint64_t beginRun(std::string identity)
    {
        std::lock_guard<std::mutex> lock(mutex_);
        uint64_t id = next_id_++;
        active_.push_back({id, std::move(identity), Clock::now()});
        return id;
    }

    void endRun(uint64_t id)
    {
        std::lock_guard<std::mutex> lock(mutex_);
        for (auto it = active_.begin(); it != active_.end(); ++it) {
            if (it->id == id) {
                active_.erase(it);
                return;
            }
        }
    }

    void watch()
    {
        std::unique_lock<std::mutex> lock(mutex_);
        while (!done_) {
            done_cv_.wait_for(lock, std::chrono::milliseconds(500));
            Clock::time_point now = Clock::now();
            for (const Run &run : active_) {
                if (now - run.start < std::chrono::seconds(seconds_))
                    continue;
                std::fprintf(
                    stderr,
                    "bench: wall-clock guard tripped after %us in run "
                    "'%s' -- that simulation is hanging; rerun it "
                    "under `muirc --max-cycles` for a watchdog "
                    "diagnosis (see docs/resilience.md)\n",
                    seconds_, run.identity.c_str());
                std::fflush(stderr);
                std::_Exit(3);
            }
        }
    }

    struct Run
    {
        uint64_t id;
        std::string identity;
        Clock::time_point start;
    };

    std::mutex mutex_;
    std::condition_variable done_cv_;
    bool done_ = false;
    unsigned seconds_ = 0;
    uint64_t next_id_ = 1;
    std::vector<Run> active_;
    std::thread watcher_;
};

/**
 * Build + lower + transform + simulate + synthesize one design. With
 * @p base, a design of the same workload that differs from this one
 * only in timing (sim::retarget refuses anything else), the run
 * retargets @p base's record instead of executing and recording again.
 */
inline Design
makeDesign(const std::string &workload_name,
           const std::function<void(uopt::PassManager &)> &configure =
               {},
           const Design *base = nullptr)
{
    // Each design gets its own wall-clock budget, and an overrun is
    // reported with the workload's name.
    WallClockGuard::RunScope scope(workload_name);
    Design d;
    d.workload = workloads::buildWorkload(workload_name);
    d.accel = workloads::lowerBaseline(d.workload);
    if (configure) {
        uopt::PassManager pm;
        configure(pm);
        pm.run(*d.accel);
    }
    workloads::RunOptions options;
    options.keepCompiled = true;
    std::shared_ptr<const sim::CompiledDdg> index;
    if (base) {
        index = std::make_shared<const sim::CompiledDdg>(
            sim::retarget(*base->run.compiled, *d.accel));
        options.compiled = index.get();
    }
    d.run = workloads::runOn(d.workload, *d.accel, options);
    if (index)
        d.run.compiled = std::move(index);
    if (!d.run.check.empty())
        muir_fatal("%s: functional check failed: %s",
                   workload_name.c_str(), d.run.check.c_str());
    double activity =
        d.run.cycles
            ? std::min(1.0, double(d.run.firings) /
                                (double(d.run.cycles) *
                                 std::max(1u, d.accel->numNodes()) * 0.1))
            : 0.3;
    d.synth = cost::synthesize(*d.accel, activity);
    return d;
}

/** Format a ratio like "0.62x". */
inline std::string
ratio(double v)
{
    return fmt("%.2fx", v);
}

/** Quiet the µopt pass chatter for clean bench output. */
struct QuietLogs
{
    QuietLogs() { setVerbose(false); }
};

/**
 * Machine-readable companion to the printed figure tables: collects
 * design points and writes them as BENCH_<figure>.json in the working
 * directory, so plots and regression diffs don't have to scrape the
 * ASCII output.
 */
class BenchJson
{
  public:
    explicit BenchJson(std::string figure) : figure_(std::move(figure))
    {
    }

    /** Record one design point under a figure-local config label. */
    void add(const std::string &config, const Design &d)
    {
        Row r;
        r.config = config;
        r.workload = d.workload.name;
        r.cycles = d.run.cycles;
        r.firings = d.run.firings;
        r.fpgaMhz = d.synth.fpgaMhz;
        r.timeUs = d.timeUs();
        r.statsJson = d.run.stats.toJson();
        rows_.push_back(std::move(r));
    }

    /**
     * Record a row that isn't a simulated design point — comparison
     * baselines (HLS/ARM models) and counted deltas (Table 4's
     * node/edge counts). Values land under a "metrics" object.
     */
    void add(const std::string &config, const std::string &workload,
             const std::vector<std::pair<std::string, double>> &metrics)
    {
        Row r;
        r.config = config;
        r.workload = workload;
        r.metrics = metrics;
        rows_.push_back(std::move(r));
    }

    /** Write BENCH_<figure>.json; returns the path written. */
    std::string write() const
    {
        std::ostringstream os;
        JsonWriter w(os);
        w.beginObject();
        w.field("figure", figure_);
        w.beginArray("rows");
        for (const auto &r : rows_) {
            w.beginObject();
            w.field("config", r.config);
            w.field("workload", r.workload);
            if (r.metrics.empty()) {
                w.field("cycles", r.cycles);
                w.field("firings", r.firings);
                w.field("fpga_mhz", r.fpgaMhz);
                w.field("time_us", r.timeUs);
                w.rawField("stats", r.statsJson);
            } else {
                w.beginObject("metrics");
                for (const auto &[key, v] : r.metrics)
                    w.field(key, v);
                w.end();
            }
            w.end();
        }
        w.end();
        w.end();
        os << "\n";
        std::string path = "BENCH_" + figure_ + ".json";
        std::ofstream out(path);
        if (!out)
            muir_fatal("bench: cannot write %s", path.c_str());
        out << os.str();
        return path;
    }

  private:
    struct Row
    {
        std::string config;
        std::string workload;
        uint64_t cycles = 0;
        uint64_t firings = 0;
        double fpgaMhz = 0.0;
        double timeUs = 0.0;
        std::string statsJson;
        /** Non-empty marks a metrics row (ordered, as emitted). */
        std::vector<std::pair<std::string, double>> metrics;
    };

    std::string figure_;
    std::vector<Row> rows_;
};

} // namespace muir::bench
