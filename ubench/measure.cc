#include <sys/resource.h>

#include <algorithm>
#include <ctime>
#include <cmath>
#include <cstdio>
#include <fstream>

#include "support/json.hh"
#include "support/logging.hh"
#include "ubench.hh"

namespace muir::ubench
{

void
Result::fail(const std::string &why)
{
    ++failed;
    std::fprintf(stderr, "ubench: failed: %s\n", why.c_str());
}

void
Result::inconsistent(const std::string &why)
{
    consistent = false;
    std::fprintf(stderr, "ubench: inconsistent: %s\n", why.c_str());
}

CpuClock::time_point
CpuClock::now()
{
    timespec ts = {};
    clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
    return time_point(duration(rep(ts.tv_sec) * 1000000000 + ts.tv_nsec));
}

double
percentile(std::vector<double> values, double pct)
{
    if (values.empty())
        return 0;
    std::sort(values.begin(), values.end());
    size_t rank = size_t(std::ceil(pct / 100.0 * double(values.size())));
    return values[std::clamp<size_t>(rank, 1, values.size()) - 1];
}

double
median(std::vector<double> values)
{
    if (values.empty())
        return 0;
    std::sort(values.begin(), values.end());
    size_t n = values.size();
    return n % 2 ? values[n / 2]
                 : (values[n / 2 - 1] + values[n / 2]) / 2;
}

double
fastTime(const std::vector<double> &round_times)
{
    return percentile(round_times, 10);
}

double
fastRate(const std::vector<double> &round_rates)
{
    return percentile(round_rates, 90);
}

double
roundPercentile(const Rounds &rounds, double pct)
{
    std::vector<double> per_round;
    for (const std::vector<double> &round : rounds)
        if (!round.empty())
            per_round.push_back(percentile(round, pct));
    return fastTime(per_round);
}

double
geomean(const std::vector<double> &values)
{
    if (values.empty())
        return 0;
    double log_sum = 0;
    for (double v : values)
        log_sum += std::log(v);
    return std::exp(log_sum / double(values.size()));
}

double
peakRssMb()
{
    struct rusage usage = {};
    getrusage(RUSAGE_SELF, &usage);
    return double(usage.ru_maxrss) / 1024.0; // ru_maxrss is in KiB
}

size_t
SpanLog::open(uint64_t op, const std::string &name, int64_t parent)
{
    spans_.push_back({op, name, parent, msSince(cpuEpoch_), 0});
    return spans_.size() - 1;
}

void
SpanLog::close(size_t span)
{
    spans_[span].durMs = msSince(cpuEpoch_) - spans_[span].startMs;
}

size_t
SpanLog::add(uint64_t op, const std::string &name, int64_t parent,
             double start_ms, double dur_ms)
{
    spans_.push_back({op, name, parent, start_ms, dur_ms});
    return spans_.size() - 1;
}

void
SpanLog::write(const std::string &path) const
{
    std::ofstream out(path);
    for (size_t i = 0; i < spans_.size(); ++i) {
        const Span &s = spans_[i];
        out << "{\"id\":" << i << ",\"op\":" << s.op
            << ",\"parent\":" << s.parent << ",\"name\":\""
            << jsonEscape(s.name) << "\",\"start_ms\":" << s.startMs
            << ",\"dur_ms\":" << s.durMs << "}\n";
    }
    if (!out)
        muir_fatal("ubench: cannot write %s", path.c_str());
}

LayerTimes
layerTimes(const SpanLog &log)
{
    LayerTimes out;
    const std::vector<Span> &spans = log.spans();
    double covered_ms = 0;
    for (const Span &s : spans) {
        if (s.parent < 0) {
            ++out.ops;
            out.opMs += s.durMs;
        } else if (spans[size_t(s.parent)].parent < 0) {
            out.totalMs[s.name] += s.durMs;
            covered_ms += s.durMs;
        }
    }
    out.coverage = out.opMs > 0 ? covered_ms / out.opMs : 0;
    return out;
}

double
LayerTimes::meanMs(const std::string &layer) const
{
    auto it = totalMs.find(layer);
    return it == totalMs.end() || ops == 0 ? 0 : it->second / double(ops);
}

} // namespace muir::ubench
