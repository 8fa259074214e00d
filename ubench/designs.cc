#include <fstream>

#include "gate/bench_gate.hh"
#include "support/logging.hh"
#include "support/rng.hh"
#include "support/strings.hh"
#include "ubench.hh"

namespace muir::ubench
{

namespace
{

/** The design grid. Queue depth applies to every suite; bank count to
 *  the suites whose standard pipeline banks; tile count to Cilk. */
constexpr unsigned kMaxQueue = 16;
constexpr unsigned kBanks[] = {1, 2, 4, 8, 16};
constexpr unsigned kTiles[] = {1, 2, 4, 8};

/** An independent stream per (seed, salt), so each list, program and
 *  request draws from its own generator regardless of draw order. */
SplitMix64
streamFor(uint64_t seed, uint64_t salt)
{
    SplitMix64 mixer(salt ^ 0xD1B54A32D192ED03ull);
    return SplitMix64(seed ^ mixer.next());
}

template <typename T>
void
shuffle(std::vector<T> &items, SplitMix64 &rng)
{
    for (size_t i = items.size(); i > 1; --i)
        std::swap(items[i - 1], items[rng.below(i)]);
}

std::string
variantPasses(const workloads::Workload &w, unsigned queue,
              unsigned bank, unsigned tile)
{
    if (w.suite == workloads::Suite::Cilk)
        return fmt("queue:%u,tile:%u,bank:%u,fusion", queue, tile, bank);
    if (w.usesTensor)
        return fmt("queue:%u,localize,fusion,tensor", queue);
    return fmt("queue:%u,localize,bank:%u,fusion", queue, bank);
}

/** The standard-pipeline variants of @p w (no baseline). */
std::vector<DesignPoint>
variants(const workloads::Workload &w)
{
    std::vector<unsigned> bank_grid = {4};
    std::vector<unsigned> tile_grid = {4};
    if (!w.usesTensor)
        bank_grid.assign(std::begin(kBanks), std::end(kBanks));
    if (w.suite == workloads::Suite::Cilk)
        tile_grid.assign(std::begin(kTiles), std::end(kTiles));
    std::vector<DesignPoint> out;
    for (unsigned q = 1; q <= kMaxQueue; ++q)
        for (unsigned b : bank_grid)
            for (unsigned t : tile_grid)
                out.push_back({w.name, variantPasses(w, q, b, t)});
    return out;
}

/**
 * serve_sweep's twelve variants of @p w: a fixed grid, the same on
 * every seed, so every seed caches the same designs.
 */
std::vector<DesignPoint>
serveVariants(const workloads::Workload &w)
{
    muir_assert(!w.usesTensor, "ubench: %s has no bank variants",
                w.name.c_str());
    std::vector<DesignPoint> out;
    for (unsigned q : {2u, 4u, 8u}) {
        if (w.suite == workloads::Suite::Cilk) {
            for (unsigned t : {2u, 4u})
                for (unsigned b : {2u, 4u})
                    out.push_back({w.name, variantPasses(w, q, b, t)});
        } else {
            for (unsigned b : {1u, 2u, 4u, 8u})
                out.push_back({w.name, variantPasses(w, q, b, 4)});
        }
    }
    return out;
}

} // namespace

std::vector<workloads::Workload>
buildPrograms(const std::vector<std::string> &names, double &build_ms)
{
    CpuClock::time_point t0 = CpuClock::now();
    std::vector<workloads::Workload> out;
    for (const std::string &name : names)
        out.push_back(workloads::buildWorkload(name));
    build_ms = msSince(t0);
    return out;
}

std::vector<DesignPoint>
programGrid(const workloads::Workload &w)
{
    std::vector<DesignPoint> out = {{w.name, ""}};
    for (DesignPoint &d : variants(w))
        out.push_back(std::move(d));
    return out;
}

DseList::DseList(const std::vector<workloads::Workload> &programs,
                 uint64_t seed)
    : seed_(seed)
{
    for (size_t p = 0; p < programs.size(); ++p) {
        perms_.push_back(programGrid(programs[p]));
        SplitMix64 rng = streamFor(seed, 1 + p);
        shuffle(perms_.back(), rng);
    }
}

std::vector<std::pair<size_t, DesignPoint>>
DseList::round(uint64_t r) const
{
    std::vector<size_t> order(perms_.size());
    for (size_t p = 0; p < order.size(); ++p)
        order[p] = p;
    SplitMix64 rng = streamFor(seed_, (uint64_t(1) << 32) + r);
    shuffle(order, rng);
    std::vector<std::pair<size_t, DesignPoint>> out;
    for (size_t p : order)
        out.emplace_back(p, perms_[p][r % perms_[p].size()]);
    return out;
}

std::vector<DesignPoint>
replayList(uint64_t seed)
{
    std::vector<DesignPoint> out;
    for (gate::GateConfig &cell : gate::standardConfigs())
        out.push_back({std::move(cell.workload), std::move(cell.passes)});
    SplitMix64 rng = streamFor(seed, 2);
    shuffle(out, rng);
    return out;
}

const std::vector<std::string> &
serveProgramNames()
{
    // Seven programs with equal shares put p50 and p90 inside one
    // program's latencies rather than on the gap between two, which
    // eight would. gemm, the largest, is left out: its designs alone
    // would hold more cache memory than the other seven together.
    static const std::vector<std::string> names = {
        "2mm", "3mm", "covar", "conv", "fft", "stencil", "msort"};
    return names;
}

ServeList::ServeList(const std::vector<workloads::Workload> &programs,
                     uint64_t seed)
    : seed_(seed)
{
    size_t variants = 0;
    for (size_t p = 0; p < programs.size(); ++p) {
        byRank_.emplace_back();
        for (DesignPoint &d : serveVariants(programs[p])) {
            byRank_.back().push_back(keys_.size());
            keys_.push_back(std::move(d));
        }
        variants = byRank_.back().size();
        SplitMix64 rng = streamFor(seed, 3 + p);
        shuffle(byRank_.back(), rng);
        programOrder_.push_back(p);
    }
    SplitMix64 rng = streamFor(seed, 4);
    shuffle(programOrder_, rng);
    double total = 0;
    for (size_t k = 1; k <= variants; ++k)
        zipfCdf_.push_back(total += 1.0 / double(k));
    for (double &c : zipfCdf_)
        c /= total;
}

size_t
ServeList::request(uint64_t j) const
{
    // A fixed program cycle keeps the program mix identical on every
    // seed; popularity (which variant) is the seeded Zipf draw.
    size_t p = programOrder_[j % programOrder_.size()];
    SplitMix64 rng = streamFor(seed_, (uint64_t(2) << 32) + j);
    double u = double(rng.next() >> 11) * 0x1.0p-53;
    size_t rank = 0;
    while (rank + 1 < zipfCdf_.size() && zipfCdf_[rank] <= u)
        ++rank;
    return byRank_[p][rank];
}

void
writeDesigns(const std::string &path,
             const std::vector<DesignPoint> &designs)
{
    std::ofstream out(path);
    for (const DesignPoint &d : designs)
        out << d.workload << ' '
            << (d.passes.empty() ? "baseline" : d.passes) << '\n';
    if (!out)
        muir_fatal("ubench: cannot write %s", path.c_str());
}

} // namespace muir::ubench
