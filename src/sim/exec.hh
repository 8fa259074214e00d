/**
 * @file
 * Functional execution of a μIR accelerator graph.
 *
 * Executes the graph with serial-elision semantics, computing real
 * values against a MemoryImage (validating that μopt transformations
 * preserve behaviour) while recording the dynamic dependence graph the
 * timing scheduler replays: data edges, loop-carried edges, spawn and
 * sync edges, and per-word memory RAW/WAW/WAR edges. It reads no
 * timing parameter of the design (queue depths, tiles, latencies), so
 * the record depends only on the graph and its inputs.
 *
 * Recording appends straight into the flat record (sim/ddg.hh). The
 * state it needs is dense: per-task lists indexed by uir::Task::id(),
 * and per-word memory-dependence arrays sized from the MemoryImage,
 * allocated only when recording and indexed only after the access
 * passed its range check.
 */
#pragma once

#include <memory>
#include <utility>
#include <vector>

#include "ir/interp.hh"
#include "sim/ddg.hh"

namespace muir::sim
{

class FaultInjector; // sim/fault.hh

/** Executes one accelerator over one memory image. */
class UirExecutor
{
  public:
    /**
     * @param accel The (possibly transformed) accelerator graph.
     * @param mem   The memory image holding global arrays; mutated.
     * @param record_ddg Disable to run function-only (faster).
     */
    UirExecutor(const uir::Accelerator &accel, ir::MemoryImage &mem,
                bool record_ddg = true);

    /** Run the root task to completion; returns its live-out values.
     *  When recording, the record also takes the run's functional
     *  result (Ddg::outputs, ::firings, ::writes). */
    std::vector<ir::RuntimeValue>
    run(const std::vector<ir::RuntimeValue> &args = {});

    const Ddg &ddg() const { return ddg_; }

    /** Move the recorded DDG out (e.g. into compileDdg). The
     *  executor's record is empty afterwards. */
    Ddg takeDdg() { return std::exchange(ddg_, Ddg{}); }

    /** Dynamic node firings executed. */
    uint64_t firings() const { return firings_; }

    /**
     * Attach a μfit injector (sim/fault.hh). With nullptr (default)
     * execution is bit-identical to today; with an injector attached,
     * datapath values may be corrupted and runaway/trap guards become
     * recoverable FaultAbort exceptions instead of process aborts.
     */
    void setInjector(FaultInjector *inj) { inj_ = inj; }

  private:
    struct InvocationResult
    {
        std::vector<ir::RuntimeValue> liveOutValues;
        std::vector<uint64_t> liveOutEvents;
        /** Synthetic completion event (covers the whole subtree). */
        uint64_t completionEvent = kNoEvent;
        /** Spawn completions awaiting a sync in the parent. */
        std::vector<uint64_t> outstanding;
    };

    /** Per-task state, indexed by uir::Task::id(). */
    struct TaskState
    {
        /** Execution order, computed on first invocation. */
        std::vector<uir::Node *> order;
        /** One past the largest node id (per-invocation slot count). */
        unsigned idSlots = 0;
        /** Node id -> dense node id of the record (recording only). */
        std::vector<uint32_t> denseNode;
    };

    /** Per-invocation evaluation state. */
    struct Ctx
    {
        TaskState *state = nullptr;
        uint32_t inv = 0;
        /** Values per node id per output port. */
        std::vector<std::vector<ir::RuntimeValue>> vals;
        /** Event per node id (kNoEvent until fired). */
        std::vector<uint64_t> evs;
        /** Events a completion must wait for (stores, children, ...). */
        std::vector<uint64_t> tail;
        std::vector<uint64_t> outstanding;
        /**
         * Per-iteration carried-value latch events (one per carried
         * value of the loop control). Kept separate from the control
         * event so consumers of the induction variable do not
         * serialize behind the carried-value recurrence — only the
         * true acc -> acc chain does (§3.5 loop-carried buffering).
         */
        std::vector<uint64_t> lcCarried;
    };

    InvocationResult invoke(const uir::Task &task,
                            const std::vector<ir::RuntimeValue> &args,
                            uint64_t dispatch_event);

    void evalNode(Ctx &ctx, const uir::Node &node);
    void evalBody(Ctx &ctx, const std::vector<uir::Node *> &order);

    ir::RuntimeValue valueOf(Ctx &ctx, const uir::Node::PortRef &ref);
    uint64_t eventOf(Ctx &ctx, const uir::Node::PortRef &ref);
    bool guardOn(Ctx &ctx, const uir::Node &node);
    /** Record a node firing with deduplicated deps and no access.
     *  kNoEvent when not recording. */
    uint64_t emit(Ctx &ctx, const uir::Node *node,
                  std::span<const uint64_t> deps, uint8_t flags = 0);
    /** Dense record id of a node of ctx's task. */
    uint32_t
    nodeId(const Ctx &ctx, const uir::Node &node) const
    {
        return ctx.state->denseNode[node.id()];
    }

    static ir::RuntimeValue zeroOf(const ir::Type &type);

    const uir::Accelerator &accel_;
    ir::MemoryImage &mem_;
    FaultInjector *inj_ = nullptr;
    bool record_;
    Ddg ddg_;
    uint64_t firings_ = 0;
    unsigned depth_ = 0;
    std::vector<TaskState> tasks_;
    /** evalNode's dep list, reused across firings. */
    std::vector<uint64_t> depScratch_;
    /** @name Per-word (4-byte) memory dependence state @{ */
    /** Last store per word; kNoId32 none. */
    std::vector<uint32_t> wordStore_;
    /** Newest read of each word since its last store, as an index
     *  into reads_; kNoId32 none. */
    std::vector<uint32_t> wordRead_;
    /** Reads chained per word, newest first. */
    struct Read
    {
        uint32_t event;
        uint32_t prev;
    };
    std::vector<Read> reads_;
    /** One bit per word some store wrote a byte of (Ddg::writes). */
    std::vector<uint64_t> written_;
    /** @} */
};

} // namespace muir::sim
