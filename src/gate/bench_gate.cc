#include "gate/bench_gate.hh"

#include <algorithm>
#include <chrono>
#include <map>
#include <sstream>

#include "support/json.hh"
#include "support/parallel.hh"
#include "support/rng.hh"
#include "support/stats.hh"
#include "support/strings.hh"
#include "support/table.hh"
#include "uopt/pipeline.hh"
#include "workloads/driver.hh"
#include "workloads/workload.hh"

namespace muir::gate
{

namespace
{

constexpr const char *kSchema = "muir.bench_gate.v1";
constexpr const char *kHostperfSchema = "muir.hostperf.gate.v1";

std::string
cellKey(const std::string &workload, const std::string &config)
{
    return workload + "/" + config;
}

std::string
cellKey(const GateConfig &config)
{
    return cellKey(config.workload, config.config);
}

/** The standard pipeline Figure 17's stacked results use per suite. */
std::string
standardPasses(const workloads::Workload &w)
{
    if (w.suite == workloads::Suite::Cilk)
        return "queue,tile:4,bank:4,fusion";
    if (w.usesTensor)
        return "queue,localize,fusion,tensor";
    return "queue,localize,bank:4,fusion";
}

/** Apply a perturbation to one design (pinned or seeded form). */
void
applyPerturbation(uir::Accelerator &accel, const Perturbation &perturb,
                  const std::string &cell_key)
{
    if (!perturb.structure.empty()) {
        // Pinned form. Absent structures are fine: the perturbation
        // names one structure but scratchpad/cache splits vary per
        // suite, so it lands on the designs that actually have it.
        if (uir::Structure *s =
                accel.structureByName(perturb.structure))
            s->setLatency(s->latency() + perturb.extraLatency);
        return;
    }
    // Seeded form: SplitMix64 over (seed, cell) picks one non-DRAM
    // structure and an extra latency in [1, 8] — deterministic per
    // cell, independent of measurement order and job count.
    // FNV-1a is stable across platforms, so a seeded perturbation
    // picks the same site per cell everywhere.
    SplitMix64 rng(perturb.seed ^ fnv1a64(cell_key));
    std::vector<uir::Structure *> candidates;
    for (const auto &s : accel.structures())
        if (s->kind() != uir::StructureKind::Dram)
            candidates.push_back(s.get());
    if (candidates.empty())
        return;
    uir::Structure *s = candidates[rng.below(candidates.size())];
    unsigned extra = perturb.extraLatency
                         ? perturb.extraLatency
                         : static_cast<unsigned>(1 + rng.below(8));
    s->setLatency(s->latency() + extra);
}

/**
 * Build, transform, and perturb one cell's design once, then sample
 * the simulate phase @p samples times. The first sample records the
 * DDG and keeps the compiled replay index; later samples hand it back
 * (the compiled path µserve replays take), so resampling measures the
 * steady-state replay rather than re-recording the same graph. Cycles
 * are identical either way — the compiled replay is bit-exact — and
 * the first (recording) sample keeps the medians honest about the
 * cold path. On a pipeline or functional-check failure the row's
 * cycles stay 0, which any golden comparison reports as a mismatch.
 */
void
measureCellInto(const GateConfig &config, const Perturbation &perturb,
                unsigned samples, GateRow *row)
{
    using Clock = std::chrono::steady_clock;
    Clock::time_point t0 = Clock::now();
    auto w = workloads::buildWorkload(config.workload);
    auto accel = workloads::lowerBaseline(w);
    if (!config.passes.empty()) {
        uopt::PassManager pm;
        std::string pipe_error;
        if (!uopt::buildPipeline(pm, config.passes, &pipe_error))
            return;
        pm.run(*accel);
    }
    if (perturb.active())
        applyPerturbation(*accel, perturb, cellKey(config));
    double build_ms = std::chrono::duration<double, std::milli>(
                          Clock::now() - t0)
                          .count();

    // Cycles are deterministic, so resampling only serves the
    // wall-clock columns: report the median wall (robust to one
    // descheduled sample) and the spread across samples.
    std::vector<double> walls, sims;
    Welford spread;
    std::shared_ptr<const sim::CompiledDdg> compiled;
    for (unsigned s = 0; s < samples; ++s) {
        workloads::RunOptions ro;
        if (compiled)
            ro.compiled = compiled.get();
        else
            ro.keepCompiled = true;
        Clock::time_point sim0 = Clock::now();
        auto run = workloads::runOn(w, *accel, ro);
        double sim_ms = std::chrono::duration<double, std::milli>(
                            Clock::now() - sim0)
                            .count();
        if (!run.check.empty())
            return;
        if (!compiled)
            compiled = run.compiled;
        row->actual = run.cycles;
        walls.push_back(build_ms + sim_ms);
        sims.push_back(sim_ms);
        spread.add(build_ms + sim_ms);
    }
    std::sort(walls.begin(), walls.end());
    std::sort(sims.begin(), sims.end());
    row->wallMs = walls[walls.size() / 2];
    row->wallStddevMs = spread.stddev();
    double sim_ms = sims[sims.size() / 2];
    if (sim_ms > 0.0)
        row->simCyclesPerSec =
            static_cast<double>(row->actual) / (sim_ms / 1000.0);
}

} // namespace

void
perturbDesign(uir::Accelerator &accel, const Perturbation &perturb,
              const std::string &cell_key)
{
    applyPerturbation(accel, perturb, cell_key);
}

std::vector<GateConfig>
standardConfigs()
{
    std::vector<GateConfig> configs;
    for (const auto &name : workloads::workloadNames()) {
        auto w = workloads::buildWorkload(name);
        configs.push_back({name, "baseline", ""});
        configs.push_back({name, "standard", standardPasses(w)});
    }
    return configs;
}

std::vector<GateRow>
measureGate(const GateOptions &opts)
{
    std::vector<GateConfig> configs;
    for (const auto &config : standardConfigs()) {
        if (!opts.only.empty() && config.workload != opts.only)
            continue;
        configs.push_back(config);
    }
    unsigned samples = std::min(9u, std::max(1u, opts.wallSamples));
    // Each cell builds its own workload, design, and memory image, so
    // cells are independent; rows land in matrix order regardless of
    // completion order.
    return parallelMap<GateRow>(
        configs.size(), opts.jobs, [&](size_t i) {
            GateRow row;
            row.config = configs[i];
            measureCellInto(configs[i], opts.perturb, samples, &row);
            return row;
        });
}

std::string
goldensJson(const std::vector<GateRow> &rows)
{
    std::ostringstream os;
    JsonWriter jw(os);
    jw.beginObject();
    jw.field("schema", kSchema);
    jw.beginArray("entries");
    for (const auto &row : rows) {
        jw.beginObject();
        jw.field("workload", row.config.workload);
        jw.field("config", row.config.config);
        jw.field("passes", row.config.passes);
        jw.field("cycles", row.actual);
        jw.end();
    }
    jw.end();
    jw.end();
    os << "\n";
    return os.str();
}

std::string
hostperfGoldensJson(const std::vector<GateRow> &rows)
{
    std::ostringstream os;
    JsonWriter jw(os);
    jw.beginObject();
    jw.field("schema", kHostperfSchema);
    jw.beginArray("entries");
    for (const auto &row : rows) {
        jw.beginObject();
        jw.field("workload", row.config.workload);
        jw.field("config", row.config.config);
        jw.field("wall_ms", row.wallMs);
        jw.field("sim_cycles_per_sec", row.simCyclesPerSec);
        jw.end();
    }
    jw.end();
    jw.end();
    os << "\n";
    return os.str();
}

GateResult
runGate(const std::string &goldens_json, const GateOptions &opts)
{
    GateResult result;
    JsonValue goldens;
    std::string parse_error;
    if (!jsonParse(goldens_json, &goldens, &parse_error)) {
        result.error = "goldens: " + parse_error;
        return result;
    }
    const JsonValue *schema = goldens.get("schema");
    if (schema == nullptr || schema->asString() != kSchema) {
        result.error = std::string("goldens: expected schema ") +
                       kSchema;
        return result;
    }
    const JsonValue *entries = goldens.get("entries");
    if (entries == nullptr || !entries->isArray()) {
        result.error = "goldens: missing entries array";
        return result;
    }
    std::map<std::string, uint64_t> expected;
    for (const auto &e : entries->items) {
        const JsonValue *wl = e.get("workload");
        const JsonValue *config = e.get("config");
        const JsonValue *cycles = e.get("cycles");
        if (wl == nullptr || config == nullptr || cycles == nullptr) {
            result.error = "goldens: entry missing "
                           "workload/config/cycles";
            return result;
        }
        expected[cellKey(wl->asString(), config->asString())] =
            cycles->asU64();
    }

    // Optional μmeter wall-budget check: parse the committed hostperf
    // goldens up front so a malformed file fails before measuring.
    std::map<std::string, double> wall_goldens;
    bool wall_check = opts.wallBudgetPct >= 0.0;
    if (wall_check) {
        JsonValue hostperf;
        if (!jsonParse(opts.hostperfGoldens, &hostperf,
                       &parse_error)) {
            result.error = "hostperf goldens: " + parse_error;
            return result;
        }
        const JsonValue *hp_schema = hostperf.get("schema");
        if (hp_schema == nullptr ||
            hp_schema->asString() != kHostperfSchema) {
            result.error =
                std::string("hostperf goldens: expected schema ") +
                kHostperfSchema;
            return result;
        }
        const JsonValue *hp_entries = hostperf.get("entries");
        if (hp_entries == nullptr || !hp_entries->isArray()) {
            result.error = "hostperf goldens: missing entries array";
            return result;
        }
        for (const auto &e : hp_entries->items) {
            const JsonValue *wl = e.get("workload");
            const JsonValue *config = e.get("config");
            const JsonValue *wall = e.get("wall_ms");
            if (wl == nullptr || config == nullptr || wall == nullptr) {
                result.error = "hostperf goldens: entry missing "
                               "workload/config/wall_ms";
                return result;
            }
            wall_goldens[cellKey(wl->asString(), config->asString())] =
                wall->asDouble();
        }
    }

    result.rows = measureGate(opts);
    std::map<std::string, bool> visited;
    bool all_pass = true;
    for (auto &row : result.rows) {
        std::string key =
            cellKey(row.config.workload, row.config.config);
        auto it = expected.find(key);
        if (it != expected.end()) {
            row.haveGolden = true;
            row.expected = it->second;
            visited[key] = true;
        }
        if (wall_check) {
            auto wt = wall_goldens.find(key);
            if (wt != wall_goldens.end()) {
                row.haveWallGolden = true;
                row.wallGoldenMs = wt->second;
                // A cell without a wall golden is not a failure (the
                // matrix can grow before the goldens do); only a
                // measured median beyond golden * (1 + band) plus an
                // absolute grace trips. The grace exists for the
                // sub-millisecond cells, whose medians jitter by whole
                // scheduler quanta — a pure percentage band flakes on
                // them, while any regression worth gating dwarfs 1 ms
                // on the multi-millisecond cells.
                constexpr double kWallGraceMs = 1.0;
                row.wallPass =
                    row.wallMs <=
                    row.wallGoldenMs *
                            (1.0 + opts.wallBudgetPct / 100.0) +
                        kWallGraceMs;
            }
        }
        all_pass = all_pass && row.pass() && row.wallPass;
    }
    // A full run must also exercise every golden: an entry nothing
    // measures means the matrix and the goldens have drifted apart.
    if (opts.only.empty())
        for (const auto &[key, cycles] : expected)
            if (!visited.count(key))
                result.stale.push_back(key);
    result.wallChecked = wall_check;
    result.wallBudgetPct = wall_check ? opts.wallBudgetPct : 0.0;
    result.ok = all_pass && result.stale.empty();
    return result;
}

std::string
GateResult::renderTable() const
{
    std::ostringstream os;
    if (!error.empty()) {
        os << "bench gate: " << error << "\n";
        return os.str();
    }
    AsciiTable t({"workload", "config", "golden", "actual", "delta"});
    size_t failures = 0;
    for (const auto &row : rows) {
        if (row.pass())
            continue;
        ++failures;
        t.addRow({row.config.workload, row.config.config,
                  row.haveGolden
                      ? fmt("%llu", (unsigned long long)row.expected)
                      : "(missing)",
                  fmt("%llu", (unsigned long long)row.actual),
                  row.haveGolden
                      ? fmt("%+lld", (long long)row.actual -
                                         (long long)row.expected)
                      : "n/a"});
    }
    if (failures > 0)
        os << t.render("bench gate: cycle regressions vs goldens");
    for (const auto &key : stale)
        os << "bench gate: stale golden entry " << key
           << " (no measured cell)\n";
    size_t wall_failures = 0;
    if (wallChecked) {
        AsciiTable wt({"workload", "config", "golden ms", "median ms",
                       "stddev", "delta"});
        for (const auto &row : rows) {
            if (row.wallPass)
                continue;
            ++wall_failures;
            wt.addRow({row.config.workload, row.config.config,
                       fmt("%.2f", row.wallGoldenMs),
                       fmt("%.2f", row.wallMs),
                       fmt("%.2f", row.wallStddevMs),
                       fmt("%+.1f%%",
                           row.wallGoldenMs > 0.0
                               ? 100.0 * (row.wallMs -
                                          row.wallGoldenMs) /
                                     row.wallGoldenMs
                               : 0.0)});
        }
        if (wall_failures > 0)
            os << wt.render(
                fmt("bench gate: wall-clock over budget (+%.0f%%)",
                    wallBudgetPct));
        os << fmt("bench gate: wall budget +%.0f%%: %zu cell(s) over\n",
                  wallBudgetPct, wall_failures);
    }
    os << fmt("bench gate: %zu config(s), %zu mismatch(es), %zu stale "
              "golden(s) -- %s\n",
              rows.size(), failures, stale.size(),
              ok ? "PASS" : "FAIL");
    return os.str();
}

std::string
GateResult::toJson(bool includeHost) const
{
    std::ostringstream os;
    JsonWriter jw(os);
    jw.beginObject();
    jw.field("ok", ok);
    if (!error.empty())
        jw.field("error", error);
    if (includeHost) {
        jw.field("wall_checked", wallChecked);
        jw.field("wall_budget_pct", wallBudgetPct);
    }
    jw.beginArray("rows");
    for (const auto &row : rows) {
        jw.beginObject();
        jw.field("workload", row.config.workload);
        jw.field("config", row.config.config);
        jw.field("passes", row.config.passes);
        jw.field("golden_present", row.haveGolden);
        jw.field("golden", row.expected);
        jw.field("actual", row.actual);
        jw.field("pass", row.pass());
        if (includeHost) {
            jw.field("wall_ms", row.wallMs);
            jw.field("sim_cycles_per_sec", row.simCyclesPerSec);
            jw.field("wall_stddev_ms", row.wallStddevMs);
            if (wallChecked) {
                jw.field("wall_golden_present", row.haveWallGolden);
                jw.field("wall_golden_ms", row.wallGoldenMs);
                jw.field("wall_pass", row.wallPass);
            }
        }
        jw.end();
    }
    jw.end();
    jw.beginArray("stale");
    for (const auto &key : stale)
        jw.value(key);
    jw.end();
    jw.end();
    os << "\n";
    return os.str();
}

} // namespace muir::gate
