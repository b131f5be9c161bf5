/**
 * @file
 * Exact inter-task dependency analysis over a task trace. This is the
 * semantic reference for the whole repository: the hardware pipeline,
 * the software runtime and the real executors are all validated
 * against the graphs built here.
 *
 * Two semantics are supported:
 *  - `Semantics::Renamed` models the task superscalar pipeline:
 *    `output` operands are renamed into fresh buffers, so WaR and WaW
 *    hazards against them disappear; `inout` operands update their
 *    object in place, so they must wait for the previous version's
 *    readers (WaR) in addition to their true (RaW) producer.
 *  - `Semantics::Sequential` enforces every RaW, WaR and WaW hazard
 *    (the "no renaming" ablation).
 */

#ifndef TSS_GRAPH_DEP_GRAPH_HH
#define TSS_GRAPH_DEP_GRAPH_HH

#include <cstdint>
#include <vector>

#include "trace/task_trace.hh"

namespace tss
{

/** Hazard classes, in the paper's terminology. */
enum class DepKind : std::uint8_t
{
    RaW, ///< true dependency (read after write)
    WaR, ///< anti dependency (write after read)
    WaW, ///< output dependency (write after write)
};

/** Dependency-resolution semantics. */
enum class Semantics : std::uint8_t
{
    Renamed,    ///< pipeline semantics: outputs renamed, inouts chained
    Sequential, ///< all hazards enforced (no renaming)
};

/** One dependency edge: task @p from must finish before @p to starts. */
struct DepEdge
{
    std::uint32_t from;
    std::uint32_t to;
    DepKind kind;

    friend bool
    operator==(const DepEdge &a, const DepEdge &b)
    {
        return a.from == b.from && a.to == b.to && a.kind == b.kind;
    }
};

/**
 * The inter-task dependency DAG of a trace. Node ids are trace task
 * indices (creation order), so any topological order of this graph is
 * a legal execution order.
 */
class DepGraph
{
  public:
    /** Build the graph for @p trace under @p semantics. */
    static DepGraph build(const TaskTrace &trace,
                          Semantics semantics = Semantics::Renamed);

    std::size_t numTasks() const { return successors.size(); }
    std::size_t numEdges() const { return edges.size(); }

    const std::vector<DepEdge> &allEdges() const { return edges; }

    /** Outgoing edge targets of @p task (deduplicated). */
    const std::vector<std::uint32_t> &
    succ(std::uint32_t task) const
    {
        return successors[task];
    }

    /** Incoming edge sources of @p task (deduplicated). */
    const std::vector<std::uint32_t> &
    pred(std::uint32_t task) const
    {
        return predecessors[task];
    }

    /** Number of distinct predecessors. */
    std::size_t
    inDegree(std::uint32_t task) const
    {
        return predecessors[task].size();
    }

    /** True if @p from -> @p to is an edge (any kind). */
    bool hasEdge(std::uint32_t from, std::uint32_t to) const;

    /** Tasks with no predecessors. */
    std::vector<std::uint32_t> roots() const;

    /**
     * Verify that executing tasks in @p order (a permutation of task
     * ids, by start time) is consistent with the graph: every
     * predecessor appears before its successor.
     */
    bool isTopologicalOrder(const std::vector<std::uint32_t> &order) const;

  private:
    void addEdge(std::uint32_t from, std::uint32_t to, DepKind kind);

    std::vector<DepEdge> edges;
    std::vector<std::vector<std::uint32_t>> successors;
    std::vector<std::vector<std::uint32_t>> predecessors;
};

} // namespace tss

#endif // TSS_GRAPH_DEP_GRAPH_HH
