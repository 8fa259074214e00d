/**
 * @file
 * μbench: one benchmark for the program → μIR → μopt → record →
 * compile → replay toolchain and for μserve. Each workload is a
 * closed loop over a seeded design list; an untraced run reports the
 * end-to-end metrics and a traced run reports per-layer spans around
 * the public library calls of each layer (see README.md).
 */
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "workloads/workload.hh"

namespace muir::ubench
{

using Clock = std::chrono::steady_clock;

/**
 * The calling thread's CPU time, as a chrono clock. The single-threaded
 * toolchain workloads time their work with it: unlike wall time it
 * stops while the thread waits for a CPU, whether another process holds
 * it or the hypervisor has taken the vCPU (steal time), so a busy shared
 * host does not show as a slower toolchain. Run length is still wall
 * time.
 */
struct CpuClock
{
    using duration = std::chrono::nanoseconds;
    using rep = duration::rep;
    using period = duration::period;
    using time_point = std::chrono::time_point<CpuClock>;
    static constexpr bool is_steady = true;
    static time_point now();
};

template <typename C, typename D>
double
msSince(std::chrono::time_point<C, D> t0)
{
    return std::chrono::duration<double, std::milli>(C::now() - t0).count();
}

/**
 * Set-up times of one run. Set-up repeats through the run (every
 * round, set-up interval or epoch), and setup_s is the median, so a
 * slow moment of a shared host does not decide it.
 */
struct Setups
{
    std::vector<double> totalMs;
    /** The part spent in workloads::buildWorkload. */
    std::vector<double> buildMs;
};

/** Command line of one run. */
struct Args
{
    std::string workload;
    uint64_t seed = 1;
    double seconds = 10;
    bool trace = false;
    /** Write the run's design list here ("" = do not). */
    std::string designsPath;
    /** Write the traced run's spans here as JSON lines ("" = do not). */
    std::string spansPath;
};

/** What one workload run measured. */
struct Result
{
    uint64_t attempted = 0;
    uint64_t failed = 0;
    /** False when a consistency check outside any operation failed. */
    bool consistent = true;
    /** Metric values by name; units live in report.cc's tables. */
    std::map<std::string, double> metrics;

    /** Count a failed operation and say why on stderr. */
    void fail(const std::string &why);
    /** Record a failed run-level check and say why on stderr. */
    void inconsistent(const std::string &why);
};

/** @name Samples (measure.cc) @{ */
/** Nearest-rank percentile (0 for an empty sample). */
double percentile(std::vector<double> values, double pct);
double median(std::vector<double> values);
/** Latencies grouped in rounds; every round runs the same designs. */
using Rounds = std::vector<std::vector<double>>;
/**
 * The fast tenth of per-round values: the 10th percentile of round
 * times, the 90th of round rates. Other work on a shared host only
 * ever slows a round, in bursts, so the fast rounds repeat from run to
 * run where the median moves with the host's load.
 */
double fastTime(const std::vector<double> &round_times);
double fastRate(const std::vector<double> &round_rates);
/**
 * fastTime over rounds of each round's percentile. A whole-run
 * percentile over a mix of programs with fixed shares sits on the gap
 * between two programs and jumps across it from run to run; a round's
 * percentile is always the same program's rank.
 */
double roundPercentile(const Rounds &rounds, double pct);
/** Geometric mean of positive values (0 for an empty sample). */
double geomean(const std::vector<double> &values);
/** Peak resident set of this process so far, in MiB. */
double peakRssMb();
/** @} */

/** @name Design points (designs.cc) @{ */
/** One design: a program and a μopt pipeline ("" = the baseline). */
struct DesignPoint
{
    std::string workload;
    std::string passes;
};

/** Build the named programs; @p build_ms receives the time taken. */
std::vector<workloads::Workload>
buildPrograms(const std::vector<std::string> &names, double &build_ms);

/** The baseline plus every standard-pipeline variant of @p w over the
 *  queue-depth, bank-count and (Cilk) tile-count grid. */
std::vector<DesignPoint> programGrid(const workloads::Workload &w);

/**
 * dse_cold's design list: round r visits every program once, in a
 * seeded order, each at its next point of a seeded permutation of its
 * grid (wrapping when a program's grid is used up).
 */
class DseList
{
  public:
    DseList(const std::vector<workloads::Workload> &programs,
            uint64_t seed);
    /** The points of round @p r, one per program (index into the
     *  programs vector and the design). */
    std::vector<std::pair<size_t, DesignPoint>> round(uint64_t r) const;

  private:
    uint64_t seed_;
    std::vector<std::vector<DesignPoint>> perms_;
};

/** replay_warm's 42 bench-gate cells in a seeded order. */
std::vector<DesignPoint> replayList(uint64_t seed);

/** Programs μserve requests on serve_sweep. */
const std::vector<std::string> &serveProgramNames();

/**
 * serve_sweep's request stream: programs take turns in a fixed seeded
 * cycle; each request's variant is a Zipf draw over a seeded
 * popularity order of the program's twelve standard-pipeline variants.
 */
class ServeList
{
  public:
    ServeList(const std::vector<workloads::Workload> &programs,
              uint64_t seed);
    /** Every distinct design the stream can request. */
    const std::vector<DesignPoint> &keys() const { return keys_; }
    /** Key index of request @p j (deterministic per seed). */
    size_t request(uint64_t j) const;

  private:
    uint64_t seed_;
    std::vector<size_t> programOrder_;
    /** Per program: key indices by popularity rank. */
    std::vector<std::vector<size_t>> byRank_;
    std::vector<DesignPoint> keys_;
    /** Zipf(s = 1) cumulative weights over the ranks. */
    std::vector<double> zipfCdf_;
};

/** Write one design per line ("workload passes"). */
void writeDesigns(const std::string &path,
                  const std::vector<DesignPoint> &designs);
/** @} */

/** @name Spans (measure.cc) @{ */
/**
 * One timed call. An operation is a root span (parent -1); the layer
 * calls it makes are its children. Spans of one operation share op.
 */
struct Span
{
    uint64_t op = 0;
    std::string name;
    /** Index of the parent span in the log (-1 = a root). */
    int64_t parent = -1;
    /** Milliseconds since the log was created, on the recording clock. */
    double startMs = 0;
    double durMs = 0;
};

/** In-memory span log, written out when the run ends. */
class SpanLog
{
  public:
    SpanLog() : epoch_(Clock::now()), cpuEpoch_(CpuClock::now()) {}
    /** Open a span starting now on the calling thread's CPU clock (the
     *  single-threaded workloads' clock); @return its index. */
    size_t open(uint64_t op, const std::string &name, int64_t parent);
    /** End span @p span now, on the CPU clock of open(). */
    void close(size_t span);
    /** Record a span with explicit boundaries. */
    size_t add(uint64_t op, const std::string &name, int64_t parent,
               double start_ms, double dur_ms);
    const std::vector<Span> &spans() const { return spans_; }
    /** Wall-clock origin for add()'s start times. */
    Clock::time_point epoch() const { return epoch_; }
    /** One JSON object per line. */
    void write(const std::string &path) const;

  private:
    Clock::time_point epoch_;
    CpuClock::time_point cpuEpoch_;
    std::vector<Span> spans_;
};

/** Layer self times of the operations in a log. */
struct LayerTimes
{
    uint64_t ops = 0;
    double opMs = 0;
    /** Summed duration per layer-span name (children of roots). */
    std::map<std::string, double> totalMs;
    /** Share of root time covered by their children. */
    double coverage = 0;

    /** Mean milliseconds per operation spent in @p layer. */
    double meanMs(const std::string &layer) const;
};

LayerTimes layerTimes(const SpanLog &log);
/** @} */

/** @name Workloads @{ */
Result runDseCold(const Args &args);
Result runReplayWarm(const Args &args);
Result runServeSweep(const Args &args);
/** @} */

/** Print the result table and the final JSON line (report.cc). */
void report(const Args &args, const Result &result);

} // namespace muir::ubench
