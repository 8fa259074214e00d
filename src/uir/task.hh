/**
 * @file
 * Task blocks (§3.2): asynchronous execution blocks analogous to
 * closures — they take arguments (live-ins), run a pipelined
 * latency-insensitive dataflow, and produce live-outs. Each task has a
 * hardware task queue feeding one or more execution tiles; parents
 * spawn children over the <||> interface and children return values at
 * sync.
 */
#pragma once

#include <algorithm>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "uir/node.hh"

namespace muir::uir
{

class Accelerator;

/** Why a task block exists. */
enum class TaskKind
{
    /** The whole-accelerator entry task. */
    Root,
    /** A natural loop extracted into a self-scheduling task (§3.5). */
    Loop,
    /** A Cilk detach region (spawned worker). */
    Spawn,
    /** A called function body. */
    Func,
};

/** @return printable kind name. */
const char *taskKindName(TaskKind kind);

/** A μIR task block: dataflow DAG + hardware configuration. */
class Task
{
  public:
    Task(unsigned id, TaskKind kind, std::string name, Accelerator *accel)
        : id_(id), kind_(kind), name_(std::move(name)), accel_(accel)
    {
    }

    Task(const Task &) = delete;
    Task &operator=(const Task &) = delete;

    unsigned id() const { return id_; }
    TaskKind kind() const { return kind_; }
    const std::string &name() const { return name_; }
    Accelerator *accelerator() const { return accel_; }

    Task *parentTask() const { return parentTask_; }
    void setParentTask(Task *t) { parentTask_ = t; }

    /** @name Node construction @{ */
    Node *addNode(NodeKind kind, std::string name);
    Node *addCompute(ir::Op op, ir::Type type, std::string name);
    Node *addConstInt(ir::Type type, int64_t value);
    Node *addConstFp(double value);
    Node *addGlobalAddr(const ir::GlobalArray *g);
    Node *addLoad(ir::Type type, unsigned space, std::string name);
    Node *addStore(unsigned space, std::string name);
    Node *addLiveIn(ir::Type type, std::string name);
    Node *addLiveOut(ir::Type type, std::string name);
    Node *addChildCall(Task *callee, bool spawn, std::string name);
    /** @} */

    /** Remove a node (must have no users); erases its input edges. */
    void removeNode(Node *node);

    const std::vector<std::unique_ptr<Node>> &nodes() const
    {
        return nodes_;
    }
    unsigned numNodes() const { return nodes_.size(); }

    /** Directed dataflow edge count (inputs + guards). */
    unsigned numEdges() const;

    /** @name Interface ports @{ */
    const std::vector<Node *> &liveIns() const { return liveIns_; }
    const std::vector<Node *> &liveOuts() const { return liveOuts_; }
    /** @} */

    /** @name Loop structure @{ */
    Node *loopControl() const { return loopControl_; }
    void setLoopControl(Node *n) { loopControl_ = n; }
    bool isLoop() const { return loopControl_ != nullptr; }
    /** @} */

    /** Child tasks invoked from this dataflow, in node order. */
    std::vector<Task *> childTasks() const;

    /** All ChildCall nodes, in node order. */
    std::vector<Node *> childCalls() const;

    /** All Load/Store nodes, in node order. */
    std::vector<Node *> memOps() const;

    /** Nodes in a topological order (inputs before users). Loop-carried
     *  back edges (into LoopControl next-slots) are ignored. Panics if
     *  the forward dataflow has a cycle. */
    std::vector<Node *> topoOrder() const;

    /**
     * Non-panicking variant for diagnostics: appends the topological
     * order to @p order and returns false (leaving the unorderable
     * remainder out) when the forward dataflow has a cycle.
     */
    bool topoOrderInto(std::vector<Node *> &order) const;

    /**
     * A topological order in which side-effecting nodes (loads,
     * stores, child calls, syncs) additionally appear in node-id order
     * relative to each other. Node ids record program order at
     * lowering time and passes never renumber memory/call nodes, so
     * this is the order the functional executor must use: two
     * dispatches that communicate only through memory stay in program
     * order even after passes insert higher-id pure nodes.
     */
    std::vector<Node *> executionOrder() const;

    /** @name Hardware configuration tuned by μopt @{ */
    /** Parallel execution tiles processing this task's queue (Pass 2). */
    unsigned numTiles() const { return numTiles_; }
    void setNumTiles(unsigned t) { numTiles_ = t; }
    /** Task-queue entries on the <||> interface (Pass 1). */
    unsigned queueDepth() const { return queueDepth_; }
    void setQueueDepth(unsigned d) { queueDepth_ = d; }
    /** Invocations that can be in flight at once, a full queue per
     *  tile: max(1, queueDepth) x max(1, numTiles). */
    uint64_t
    queueWindow() const
    {
        return uint64_t(std::max(1u, queueDepth_)) *
               std::max(1u, numTiles_);
    }
    /** Whether the <||> interface is decoupled by a FIFO (Pass 1). */
    bool decoupled() const { return decoupled_; }
    void setDecoupled(bool d) { decoupled_ = d; }
    /** Junction ports multiplexing this task's memory ops (§3.4). */
    unsigned junctionReadPorts() const { return junctionReadPorts_; }
    unsigned junctionWritePorts() const { return junctionWritePorts_; }
    void setJunctionPorts(unsigned r, unsigned w)
    {
        junctionReadPorts_ = r;
        junctionWritePorts_ = w;
    }
    /** @} */

  private:
    unsigned id_;
    TaskKind kind_;
    std::string name_;
    Accelerator *accel_;
    Task *parentTask_ = nullptr;
    std::vector<std::unique_ptr<Node>> nodes_;
    std::vector<Node *> liveIns_;
    std::vector<Node *> liveOuts_;
    Node *loopControl_ = nullptr;
    unsigned nextNodeId_ = 0;
    unsigned numTiles_ = 1;
    unsigned queueDepth_ = 2;
    bool decoupled_ = false;
    unsigned junctionReadPorts_ = 2;
    unsigned junctionWritePorts_ = 1;
};

} // namespace muir::uir
