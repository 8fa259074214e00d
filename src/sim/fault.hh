/**
 * @file
 * μfit — deterministic fault injection, dynamic hang watchdog, and
 * resilience classification for μIR accelerators.
 *
 * The fault models target the paper's own abstraction levels:
 *
 *  - handshake faults on a ready/valid edge of the dynamic dependence
 *    graph: a token that never arrives (TokenDrop), a token delivered
 *    twice (TokenDup), and a valid line stuck high so the consumer
 *    fires without waiting (StuckValid);
 *  - datapath faults: a single bit flip in the value a function unit
 *    produces (DataFlip);
 *  - memory faults: a bit flip in a scratchpad/cache word (MemFlip)
 *    and a DRAM port timeout serviced with retry + exponential
 *    backoff (DramTimeout);
 *  - control faults: a lost spawn dispatch (LostSpawn) and a lost
 *    sync completion token (LostSync).
 *
 * Every injected run is compared against the fault-free golden run of
 * the same (accelerator, inputs) pair and classified into exactly one
 * Outcome: Masked (no visible difference), SDC (outputs silently
 * differ), Detected (a watchdog/checker caught it), or Hang (the
 * dynamic deadlock watchdog tripped).
 *
 * Injection sites are resolved deterministically from (seed, run
 * index) over the golden run's site catalog, so a campaign with the
 * same (workload, spec, seed) always yields the same histogram.
 *
 * Six kinds only move token arrivals: a campaign runs each of them as
 * one scheduleFault call, an edit of a copy of the golden replay index
 * under a watchdog, with no memory image, so such a run can only hang,
 * be detected or be masked. DataFlip and MemFlip act on the functional
 * run and go through simulate, which takes no other kind. The
 * scheduler knows only the watchdog; with neither a fault nor the
 * watchdog, the executor and scheduler produce bit-identical cycles,
 * stats, and outputs.
 */
#pragma once

#include <array>
#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "ir/interp.hh"
#include "sim/ddg.hh"
#include "sim/timing.hh"
#include "support/rng.hh"

namespace muir::uir
{
class Accelerator;
}

namespace muir::sim
{

// ------------------------------------------------------------- taxonomy

/** What gets broken (docs/resilience.md catalog). */
enum class FaultKind : unsigned
{
    /** Handshake: a token on one dependence edge never arrives. */
    TokenDrop,
    /** Handshake: one edge delivers a duplicate token. */
    TokenDup,
    /** Handshake: valid stuck high — consumer won't wait for the edge. */
    StuckValid,
    /** Datapath: single bit flip in a node's produced value. */
    DataFlip,
    /** Memory: single bit flip in a scratchpad/cache word. */
    MemFlip,
    /** Memory: DRAM port timeout with modeled retry/backoff. */
    DramTimeout,
    /** Control: a spawn dispatch token is lost. */
    LostSpawn,
    /** Control: a completion token a sync waits on is lost. */
    LostSync,
    /** Campaign-only: pick a random injectable kind per run. */
    Mix,
    kCount,
};

/** @return short machine name, e.g. "tokendrop". */
const char *faultKindName(FaultKind kind);

/** DRAM port retries before the timeout checker raises an error. */
inline constexpr unsigned kMaxDramRetries = 4;

/** Does @p kind only move token arrivals (see scheduleFault)? */
bool isScheduleFault(FaultKind kind);

/**
 * A user-facing fault request: the kind plus optional pinned site
 * parameters. Anything left at its kAuto value is resolved from the
 * campaign seed over the golden run's site catalog.
 */
struct FaultSpec
{
    static constexpr uint64_t kAutoSite = ~uint64_t(0);
    static constexpr unsigned kAuto = ~0u;

    FaultKind kind = FaultKind::Mix;
    /** Target site: event id (edge/value faults), word index (MemFlip),
     *  or miss ordinal (DramTimeout). */
    uint64_t site = kAutoSite;
    /** Bit to flip (DataFlip/MemFlip). */
    unsigned bit = kAuto;
    /** Input-edge ordinal within the target event (handshake faults). */
    unsigned edge = kAuto;
    /** Failing attempts before the port recovers (DramTimeout). */
    unsigned attempts = kAuto;
};

/**
 * Parse "kind[@site][:bit=N][:edge=N][:attempts=N]" (kinds as in
 * faultKindName, plus "mix"). @return false with *error set on junk.
 */
bool parseFaultSpec(const std::string &text, FaultSpec &out,
                    std::string *error);

/** Render a spec back to its textual form (campaign JSON/reports). */
std::string renderFaultSpec(const FaultSpec &spec);

/**
 * A fully resolved injection: concrete event/edge/address/bit targets
 * derived from a FaultSpec plus the golden run. Field meaning depends
 * on kind; unused fields stay at their defaults.
 */
struct FaultPlan
{
    FaultKind kind = FaultKind::DataFlip;
    /** Target (consumer) event id. */
    uint64_t event = kNoEvent;
    /** Producer event of the faulted edge (handshake/control kinds). */
    uint64_t producer = kNoEvent;
    /** Input-edge ordinal of (producer -> event), for reporting. */
    unsigned edge = 0;
    /** MemFlip: byte address of the corrupted word. */
    uint64_t addr = 0;
    /** DataFlip/MemFlip: bit selector (see flipBit). */
    unsigned bit = 0;
    /** DramTimeout: which DRAM miss (in golden order) times out. */
    uint64_t missOrdinal = 0;
    /** DramTimeout: the golden run's missOrdinal-th missing event, in
     *  processing order. */
    uint64_t missEvent = kNoEvent;
    /** DramTimeout: failing attempts before the port answers. */
    unsigned attempts = 0;
    /** DataFlip/MemFlip: functional firing budget past which the run
     *  aborts as a Hang (0 = none). */
    uint64_t maxFirings = 0;
};

// -------------------------------------------------------- classification

/** Resilience outcome of one injected run (mutually exclusive). */
enum class Outcome : unsigned
{
    /** No architecturally visible difference from the golden run. */
    Masked,
    /** Silent data corruption: outputs/memory differ, nothing fired. */
    SDC,
    /** A watchdog or checker caught the fault. */
    Detected,
    /** The dynamic deadlock/livelock watchdog tripped. */
    Hang,
    kCount,
};

inline constexpr size_t kNumOutcomes =
    static_cast<size_t>(Outcome::kCount);

/** @return short machine name, e.g. "sdc". */
const char *outcomeName(Outcome outcome);

// -------------------------------------------------------------- watchdog

/**
 * What the watchdog saw when it tripped: which tasks were blocked, on
 * which dependence edge, whether the root cause is a starved event (a
 * token that finished upstream but was never delivered), and the
 * chain of waits down to it.
 */
struct HangDiagnosis
{
    /** Queue drained with events still unscheduled (deadlock). */
    bool hung = false;
    /** Cycle budget exceeded (livelock / runaway latency). */
    bool budgetExceeded = false;
    uint64_t scheduled = 0;
    uint64_t total = 0;
    uint64_t budget = 0;

    /** One blocked wait: event -> the dependence it never received. */
    struct BlockedEdge
    {
        uint64_t event = kNoEvent;
        std::string task;
        std::string node;
        uint64_t waitingOn = kNoEvent;
        std::string depTask;
        std::string depNode;
        /** The dep finished but its token was never delivered. */
        bool tokenLost = false;
        /** Edge class: data / memory / spawn / queue. */
        std::string kind;
    };
    /** Starved (root-cause) edges first, then a sample of the rest. */
    std::vector<BlockedEdge> blocked;
    /** The chain (event ids) from the latest blocked event to the root
     *  cause; the DDG is a DAG, so there is never a wait-for cycle. */
    std::vector<uint64_t> waitChain;

    bool tripped() const { return hung || budgetExceeded; }

    /** Multi-line human-readable diagnosis. */
    std::string render() const;
};

/**
 * The dynamic hang watchdog threaded through scheduleDdg: cycle budget
 * in, diagnosis out. Armed, a run that drains its ready queue with
 * events unscheduled reports a deadlock instead of asserting; a
 * nonzero budget also stops the run at the first event ready past it.
 * Neither changes a run that completes within the budget.
 */
struct Watchdog
{
    /** Cycle budget; 0 = drain detection only. */
    uint64_t maxCycles = 0;
    HangDiagnosis hang;
};

/**
 * Build the hang diagnosis from the state of a replay whose ready
 * queue drained: an event ran iff its @p pending count reached zero.
 * A starved event's culprit is the input whose dependents omit it —
 * the edge scheduleFault cut.
 */
HangDiagnosis diagnoseHang(const CompiledDdg &cd,
                           const std::vector<uint32_t> &pending,
                           uint64_t processed);

/** One schedule-level fault run: its timing and the detector that
 *  fired, if any. */
struct FaultRun
{
    TimingResult timing;
    /** Which checker fired, e.g. "token-conservation"; empty if none
     *  did or the watchdog tripped. */
    std::string detector;
};

/**
 * Schedule a copy of @p golden edited by a schedule-level @p plan
 * (docs/resilience.md has the edit per kind) under @p ctx, whose
 * watchdog must be set and whose log must not be (a log of the edited
 * copy would not read against @p golden). The index carries the
 * golden run's functional result, and these kinds only move token
 * arrivals, so there is nothing to execute or compare: a run hangs
 * (the watchdog's diagnosis), is detected or is masked. @p golden is
 * only read, so concurrent runs may share it.
 */
FaultRun scheduleFault(const CompiledDdg &golden, const FaultPlan &plan,
                       RunContext &ctx);

// ----------------------------------------------- functional-layer hooks

/**
 * Thrown by the functional executor when a fault makes forward
 * progress impossible or a hardware checker would trap: runaway
 * execution (Hang), bus error / divide-by-zero (Detected).
 * Only ever raised when a FaultInjector is installed.
 */
struct FaultAbort
{
    Outcome outcome = Outcome::Detected;
    std::string detail;
};

/** Flip one bit of a runtime value (kind-preserving). */
void flipBit(ir::RuntimeValue &value, unsigned bit);

/**
 * The executor-side injector: corrupts the value of the planned
 * event (DataFlip) and models the hardware checkers that exist on
 * any real accelerator bus — address range, divide traps — plus a
 * firing budget that converts runaway control flow into a Hang.
 * Every hook is a no-op for plans that don't concern it.
 */
class FaultInjector
{
  public:
    explicit FaultInjector(const FaultPlan &plan) : plan_(plan) {}

    /** DataFlip: corrupt slot 0 of the event's produced value. */
    void
    corruptValue(uint64_t event_id, std::vector<ir::RuntimeValue> &slots)
    {
        if (plan_.kind != FaultKind::DataFlip || fired_ ||
            event_id != plan_.event || slots.empty())
            return;
        fired_ = true;
        flipBit(slots[0], plan_.bit);
    }

    /** Bus guard: out-of-range accesses become a Detected abort. */
    void checkAccess(uint64_t addr, unsigned bytes,
                     const ir::MemoryImage &mem) const;

    /** Divide trap: zero divisors become a Detected abort. */
    void checkDivisor(int64_t divisor) const;

    /** Firing budget: runaway execution becomes a Hang abort. */
    void checkFirings(uint64_t firings) const;

    /** Recursion guard below the executor's own hard limit. */
    void checkDepth(unsigned depth) const;

    /** Corrupted loop step (would never terminate): Detected abort. */
    void checkLoopStep(int64_t step, const std::string &task) const;

  private:
    FaultPlan plan_;
    bool fired_ = false;
};

// -------------------------------------------------------------- campaign

// Site resolution draws from muir::SplitMix64 (support/rng.hh) — one
// generator per run, seeded from (campaign seed, run index), which is
// what makes the fan-out below safe to parallelize.

/** One campaign: N seeded injections of a spec against one design. */
struct CampaignSpec
{
    FaultSpec fault;
    unsigned runs = 100;
    uint64_t seed = 1;
    /** Watchdog cycle budget; 0 = auto (8x golden + 4096). */
    uint64_t maxCycles = 0;
    /**
     * Concurrent simulations to fan the runs across; 0 (default) =
     * resolveJobs (MUIR_JOBS, else hardware concurrency). Per-run
     * seeding makes the histogram/records/JSON byte-identical at any
     * job count.
     */
    unsigned jobs = 0;
};

/** One injected run's record. */
struct InjectionRecord
{
    FaultPlan plan;
    Outcome outcome = Outcome::Masked;
    uint64_t cycles = 0;
    /** Detector name, hang diagnosis, or divergence note. */
    std::string detail;
};

/** Aggregated campaign results. */
struct CampaignResult
{
    bool ok = false;
    std::string error;
    uint64_t goldenCycles = 0;
    uint64_t goldenFirings = 0;
    uint64_t maxCycles = 0;
    /** Indexed by Outcome. */
    std::array<uint64_t, kNumOutcomes> histogram{};
    /** histogram split per fault kind (kind-major). */
    std::array<std::array<uint64_t, kNumOutcomes>,
               static_cast<size_t>(FaultKind::kCount)>
        byKind{};
    std::vector<InjectionRecord> records;

    /** Campaign JSON (docs/resilience.md schema). @p label names the
     *  design (workload) and @p spec_text echoes the request. */
    std::string toJson(const std::string &label,
                       const std::string &spec_text, unsigned runs,
                       uint64_t seed) const;
};

/**
 * Run a fault campaign: one fault-free golden run (watchdog armed —
 * a lint-clean graph must never hang fault-free), then spec.runs
 * seeded injections. A schedule-level run is one scheduleFault call
 * on the golden index; a value fault runs through simulate and is
 * classified against the golden outputs and final memory. @p bind
 * writes the workload inputs into a fresh memory image before the
 * golden run and every value-fault run; it runs concurrently from up
 * to spec.jobs threads and must therefore be re-entrant (the standard
 * workload binders only read shared input data, which qualifies).
 *
 * The injected runs fan out across a worker pool (support/parallel.hh)
 * but every plan is resolved serially up front from (seed, index), so
 * the result — histogram, per-run records, JSON — is byte-identical
 * at any job count, including jobs == 1.
 */
CampaignResult
runCampaign(const uir::Accelerator &accel, const ir::Module &module,
            const std::function<void(ir::MemoryImage &)> &bind,
            const CampaignSpec &spec,
            const std::vector<ir::RuntimeValue> &args = {});

} // namespace muir::sim
