/**
 * @file
 * Pipeline Gateway: admits tasks from the task-generating thread into
 * a small internal buffer, allocates TRS space (exact block
 * accounting, so allocation never fails), and issues operands to the
 * address-sharded global directory strictly in program order — the
 * in-order decode requirement of section III-B. Operands route to the
 * ORT slice owning their address (PipelineConfig::shardOf), which may
 * live on another pipeline; TRS allocation stays pipeline-local.
 * Allocation requests overlap with operand issue thanks to the
 * non-blocking protocol (section IV-B.1).
 *
 * When generating threads share data (ordered-allocation mode), the
 * gateway additionally allocates its window entries oldest-first by
 * trace index and keeps one maximal task allocation of its slice's
 * first TRS in reserve for the machine-wide oldest unfinished task —
 * the task-level ROB-head escape that makes the shared-object ticket
 * protocol (see core/protocol.hh) deadlock-free.
 */

#ifndef TSS_CORE_GATEWAY_HH
#define TSS_CORE_GATEWAY_HH

#include <deque>
#include <vector>

#include "core/config.hh"
#include "core/task_registry.hh"
#include "core/trs.hh"

namespace tss
{

/** The pipeline gateway tile. */
class Gateway : public SimObject, public Endpoint
{
  public:
    Gateway(std::string name, EventQueue &eq, Network &network,
            NodeId node, const PipelineConfig &config,
            TaskRegistry &task_registry, FrontendStats &frontend_stats);

    /**
     * Wire the gateway to its peers. @p trs_nodes is the *global*
     * TRS node table (indexed by TaskId::trs); this gateway allocates
     * only from the cfg.numTrs entries starting at @p trs_base — its
     * own pipeline's slice. @p ort_nodes is the *global* directory
     * slice table (indexed by PipelineConfig::shardOf): operands may
     * route to any pipeline's slices. @p ordered_alloc enables the
     * shared-data allocation order (oldest trace index first, with
     * the reserve escape; see the file comment).
     */
    void
    setPeers(std::vector<NodeId> trs_nodes,
             std::vector<NodeId> ort_nodes, unsigned num_threads = 1,
             unsigned trs_base = 0, bool ordered_alloc = false)
    {
        trsNodes = std::move(trs_nodes);
        ortNodes = std::move(ort_nodes);
        numThreads = num_threads;
        trsBase = trs_base;
        orderedAlloc = ordered_alloc;
        sliceInFlight.assign(ortNodes.size(), 0);
    }

    void receive(MessagePtr msg) override;

    /// @name Introspection.
    /// @{
    Cycle allocWaitCycles() const { return allocWait; }
    /// @}

  private:
    /** Lifecycle of a task inside the gateway buffer. */
    enum class TaskState : std::uint8_t
    {
        NeedAlloc,    ///< no allocation request sent yet
        AllocPending, ///< waiting for the TRS reply
        Issuing,      ///< operands being distributed in order
    };

    struct GwTask
    {
        std::uint32_t traceIndex = 0;
        TaskState state = TaskState::NeedAlloc;
        TaskId id;
        unsigned nextOp = 0;          ///< operands issued so far
        std::uint32_t issuedMask = 0; ///< per-operand flags (batching)
        unsigned thread = 0;          ///< generating thread
        NodeId sourceNode = invalidNode;
    };

    void workLoop();
    void finishWork(Cycle cost);

    /** Try to send one allocation request; true if work was done. */
    bool tryAlloc();

    /**
     * Issue the next operand of the oldest issuable task. Decode is
     * in-order *per generating thread*: a task may only distribute
     * operands once every earlier task of its own thread has fully
     * issued (it is its thread's oldest buffered task). Threads are
     * served round-robin.
     */
    bool tryIssue();

    /** Issue one operand of @p task; true when the task completed. */
    bool issueOperandOf(GwTask &task);

    /**
     * Batching variant of one issue step: the first pending operand
     * plus any later same-slice memory operands of the task that fit
     * the packet budget leave in one DecodeBatchMsg (scalar operands
     * still travel alone). True when the task completed.
     */
    bool issueBatchOf(GwTask &task);

    /** Build the (ticket-stamped) descriptor for one operand. */
    DecodeOperandMsg makeOperandMsg(const GwTask &task, unsigned index);

    /** Send operand @p index of @p task to its TRS (scalar path). */
    void issueScalarOf(const GwTask &task, unsigned index);

    /**
     * Index of the next operand to leave @p task: the first unissued
     * one in batching mode (issuedMask — batches may skip ahead),
     * the nextOp'th otherwise; the operand count when fully issued.
     * Credit checks and issue must agree on this, so both go here.
     */
    unsigned nextOperandIndex(const GwTask &task) const;

    /**
     * True when @p task's next issue step may proceed: always for
     * scalar operands; for memory operands the owning slice must
     * hold a packet credit (PipelineConfig::slicePacketCredits). The
     * machine-wide oldest unfinished task bypasses flow control (a
     * reserved escape slot in hardware terms): its decode packets
     * may overflow a slice's input buffer, so credits bound
     * throughput without adding a liveness edge — without the
     * escape, a slice parked on a full set can hold the very credits
     * the park's resolution needs (circular wait).
     */
    bool canIssueNext(const GwTask &task) const;

    /** Account one in-flight packet to @p shard (no-op when off). */
    void takeCredit(unsigned shard);

    const PipelineConfig &cfg;
    TaskRegistry &registry;
    FrontendStats &stats;
    Network &net;
    NodeId node;

    std::vector<NodeId> trsNodes;
    std::vector<NodeId> ortNodes; ///< global directory slice table
    unsigned trsBase = 0; ///< first owned entry in the global table
    unsigned numThreads = 1;
    unsigned nextThreadRr = 0; ///< fairness over generating threads
    bool orderedAlloc = false; ///< shared-data allocation discipline

    std::deque<GwTask> buffer;
    std::deque<std::unique_ptr<ProtoMsg>> pendingMsgs;

    /// Estimated free blocks per TRS (credit scheme; exact because
    /// the gateway is the only allocator and frees only add).
    std::vector<std::uint32_t> trsFree;

    /// Unacknowledged decode packets per directory slice; bounded by
    /// cfg.slicePacketCredits except for the ROB-head escape.
    std::vector<unsigned> sliceInFlight;
    unsigned nextTrsRr = 0; ///< round-robin over TRSs with space

    unsigned stallTokens = 0;
    bool busy = false;

    Cycle allocWait = 0;          ///< cycles with tasks blocked on space
    Cycle allocWaitStart = 0;
    bool allocWaiting = false;
};

} // namespace tss

#endif // TSS_CORE_GATEWAY_HH
