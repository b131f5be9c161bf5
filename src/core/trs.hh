/**
 * @file
 * Task Reservation Station. TRSs store the meta-data of all in-flight
 * tasks in private eDRAM (128 B blocks, inode-style layout) and track
 * operand readiness; collectively they embed the task dependency
 * graph via consumer chaining (paper section IV-B.2).
 */

#ifndef TSS_CORE_TRS_HH
#define TSS_CORE_TRS_HH

#include <vector>

#include "core/config.hh"
#include "core/module.hh"
#include "core/task_registry.hh"
#include "mem/edram.hh"
#include "mem/free_list.hh"
#include "sim/stats.hh"

namespace tss
{

/** Shared run-wide statistics sink filled in by the modules. */
struct FrontendStats
{
    Counter tasksAllocated;
    Counter tasksFinished;
    Counter dataReadyForwards;  ///< chain hops traversed
    Counter tombstoneReplies;   ///< registrations to finished tasks
    Counter gatewayStallEvents;
    Counter decodeDeferrals; ///< out-of-ticket-order operands parked
    Counter versionSlotParks; ///< operands capacity-parked by the
                              ///< version-slot reserve rule
    Counter decodeBatches;   ///< multi-operand DecodeBatch packets
    Counter batchedOperands; ///< operands that rode a batch packet
    Distribution batchFill;  ///< operands per memory issue event
                             ///< (sampled only with batching on)
    /// Stall cycles accumulate from ORTs / task sources in different
    /// NoC domains; sums commute, so relaxed atomics keep the totals
    /// thread-count independent.
    std::atomic<Cycle> gatewayStallCycles{0};
    std::atomic<Cycle> sourceStallCycles{0};
    Distribution chainConsumers; ///< consumers chained per version
    Distribution fragmentation;  ///< TRS allocation waste fraction
    Distribution decodeLatency;  ///< submit -> decodeDone per task
    TimeWeighted tasksInFlight;  ///< window occupancy
    Counter versionsCreated;
    Counter versionsRenamed;
    Counter dmaWritebacks;
};

/**
 * One TRS tile: slot allocation, operand state, readiness tracking,
 * chain forwarding, and task retirement.
 */
class Trs : public FrontendModule
{
  public:
    Trs(std::string name, EventQueue &eq, Network &network, NodeId node,
        unsigned trs_index, const PipelineConfig &config,
        TaskRegistry &task_registry, FrontendStats &frontend_stats);

    /**
     * Resolve frontend tile indices to NoC node ids (set by wiring).
     * @p all_gateways, when non-empty (shared-data mode), receives a
     * WatermarkAdvance broadcast whenever retiring a task advances
     * the machine-wide oldest-unfinished watermark — the wakeup the
     * gateways' reserve-gated allocation relies on.
     */
    void
    setPeers(NodeId gateway, NodeId scheduler,
             std::vector<NodeId> trs_nodes, std::vector<NodeId> ovt_nodes,
             std::vector<NodeId> all_gateways = {})
    {
        gatewayNode = gateway;
        schedulerNode = scheduler;
        trsNodes = std::move(trs_nodes);
        ovtNodes = std::move(ovt_nodes);
        gatewayBroadcast = std::move(all_gateways);
    }

    std::uint32_t freeBlocks() const { return freeList.numFree(); }
    const BlockFreeList &blockList() const { return freeList; }

    /** Number of live (allocated, unfinished) task slots. */
    std::size_t liveSlots() const { return numLive; }

  protected:
    Service process(ProtoMsg &msg) override;

  private:
    /** Per-operand dependency-tracking state. */
    struct OperandState
    {
        Dir dir = Dir::In;
        bool infoSeen = false;
        bool inputReady = false;
        bool outputReady = false;
        bool hasChainNext = false;
        OperandId chainNext;
        VersionRef version;
        std::uint64_t buffer = 0;
        Bytes bytes = 0;
    };

    /**
     * One in-flight task's meta-data. A slot outlives its task: the
     * generation survives retirement (tombstone detection), and the
     * vectors keep their capacity for the block's next task.
     */
    struct TaskSlot
    {
        bool live = false;
        std::uint32_t generation = 0;
        std::uint32_t traceIndex = 0;
        unsigned numOperands = 0;
        unsigned infoCount = 0;
        unsigned readyCount = 0;
        bool readySent = false;
        std::vector<std::uint32_t> blocks;
        std::vector<OperandState> ops;
    };

    Service handleAlloc(AllocRequestMsg &msg);
    Service handleSliceStarved(const ProtoMsg &msg);
    Service handleScalar(ScalarOperandMsg &msg);
    Service handleOperandInfo(OperandInfoMsg &msg);
    Service handleRegisterConsumer(RegisterConsumerMsg &msg);
    Service handleDataReady(DataReadyMsg &msg);
    Service handleTaskFinished(TaskFinishedMsg &msg);

    /** Find a live slot matching @p id; null on generation mismatch. */
    TaskSlot *findSlot(const TaskId &id);

    static bool operandReady(const OperandState &op);

    /** Re-evaluate an operand; update counters and maybe fire ready. */
    void reevaluate(TaskSlot &slot, const TaskId &id, unsigned index,
                    bool was_ready);

    void noteDecodeProgress(TaskSlot &slot);
    void maybeTaskReady(TaskSlot &slot, const TaskId &id);
    void forwardReady(const OperandState &op);

    /**
     * Retirement side of handleTaskFinished that touches machine-wide
     * state (registry watermark + gateway broadcast). Runs deferred
     * at the window barrier under the parallel engine.
     */
    void applyFinish(std::uint32_t trace_index, Cycle flush_at);

    /** Bump the global in-flight gauge (deferred under the engine). */
    void addTasksInFlight(double delta);

    unsigned trsIndex;
    const PipelineConfig &cfg;
    TaskRegistry &registry;
    FrontendStats &stats;

    Edram edram;
    BlockFreeList freeList;

    NodeId gatewayNode = invalidNode;
    NodeId schedulerNode = invalidNode;
    std::vector<NodeId> trsNodes;
    std::vector<NodeId> ovtNodes;
    std::vector<NodeId> gatewayBroadcast; ///< shared-data mode only

    /// ORT slices subscribed to watermark advances (SliceStarved):
    /// slices whose version-slot pool starved at least once. Ample
    /// runs never subscribe, so they see zero extra traffic.
    std::vector<NodeId> starvedOrtNodes;

    /// Slots indexed by main-block index, grown on demand (the free
    /// list hands out low blocks first, so small runs stay small).
    std::vector<TaskSlot> slots;
    std::size_t numLive = 0;
};

} // namespace tss

#endif // TSS_CORE_TRS_HH
