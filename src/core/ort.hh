/**
 * @file
 * Object Renaming Table: the task-level analogue of the register
 * renaming table. Maps operand base addresses to the most recent user
 * and the live version of each memory object; 16-way associative,
 * never evicts live entries, and stalls the gateways when a set fills
 * up (paper section IV-B.3).
 *
 * Each ORT is one slice of the address-interleaved global directory:
 * it serves operands from every pipeline's gateway. With generating
 * threads sharing data, the slice admits same-object operands in
 * ticket order (see DecodeOperandMsg in core/protocol.hh): readers of
 * one version epoch in any order, the next writer only once all of
 * them have been seen. Out-of-turn operands are parked in a side
 * buffer and re-arbitrated through the input queue (DecodeAdmit) when
 * their ticket comes due, so the slice's per-object serialization is
 * exactly the program order no matter how cross-pipeline message
 * timing interleaves.
 *
 * Version-slot liveness (ordered mode): the paired OVT's slot pool is
 * finite, and ordered decode must never let younger operands hold the
 * slots the oldest task needs (the classic capacity deadlock). The
 * slice keeps a reserve of slots that only operands of the
 * machine-wide oldest unfinished task may claim; anyone else who
 * finds the pool at the reserve mark is *capacity-parked* in a side
 * buffer (the queue keeps flowing — no head park, no gateway stall)
 * and re-arbitrated through DecodeAdmit on a version death or a
 * watermark advance, exactly like the ticket park/resume path.
 * Versions claimed from the reserve regime are marked reserved and
 * admit no younger readers, so reserve slots are only ever pinned by
 * tasks at or before the then-oldest — which all finish — and the
 * escape can always run (see Ort::reserveSlots for the liveness
 * argument). This is the squash-free skeleton a speculative
 * (epoch-tagged) admission mode extends.
 */

#ifndef TSS_CORE_ORT_HH
#define TSS_CORE_ORT_HH

#include <unordered_map>
#include <vector>

#include "core/config.hh"
#include "core/footprint.hh"
#include "core/module.hh"
#include "core/trs.hh"
#include "mem/edram.hh"
#include "mem/free_list.hh"
#include "sim/stats.hh"

namespace tss
{

/** One ORT tile plus the version-slot credit pool of its paired OVT. */
class Ort : public FrontendModule
{
  public:
    /**
     * @p footprint bounds the host storage of the slice's tables by
     * what its trace can touch; null stores Table II's whole tables.
     */
    Ort(std::string name, EventQueue &eq, Network &network, NodeId node,
        unsigned ort_index, const PipelineConfig &config,
        FrontendStats &frontend_stats,
        const Footprint *footprint = nullptr);

    /**
     * Wire the slice to its peers. @p gateways lists every gateway
     * whose operands this slice may serve (all pipelines — stall flow
     * control is broadcast). @p ordered_admission enables ordered
     * mode: the shared-data ticket protocol plus the version-slot
     * reserve escape, which reads the oldest-unfinished watermark of
     * @p task_registry, so ordered mode requires one. Unordered, a
     * slot-exhausted slice head-parks and stalls the gateways.
     */
    void
    setPeers(std::vector<NodeId> gateways,
             std::vector<NodeId> trs_nodes, NodeId paired_ovt,
             bool ordered_admission = false,
             const TaskRegistry *task_registry = nullptr)
    {
        TSS_ASSERT(!ordered_admission || task_registry,
                   "ordered admission needs the task registry");
        gatewayNodes = std::move(gateways);
        trsNodes = std::move(trs_nodes);
        ovtNode = paired_ovt;
        orderedAdmission = ordered_admission;
        registry = task_registry;
    }

    /** One parked operand, as reported to the liveness watchdog. */
    struct ParkedOperand
    {
        bool valid = false;
        std::uint32_t traceIndex = 0; ///< owning task
        unsigned operand = 0;
        std::uint64_t addr = 0;
        bool forSlot = false; ///< capacity-parked (vs ticket-parked)
    };

    /// @name Introspection for tests and the liveness watchdog.
    /// @{
    std::size_t liveEntries() const;
    std::size_t freeVersionSlots() const { return freeSlots.numFree(); }
    std::uint64_t stallEvents() const { return stalls.value(); }
    std::uint64_t deferredOps() const { return deferrals.value(); }
    std::size_t slotParkedOperands() const { return slotWaiters.size(); }
    std::size_t ticketParkedOperands() const;
    std::uint64_t slotParkEvents() const { return slotParks.value(); }

    /** Oldest (lowest trace index) operand parked in this slice. */
    ParkedOperand oldestParked() const;
    /// @}

  protected:
    Service process(ProtoMsg &msg) override;

    bool
    isControl(MsgType type) const override
    {
        return type == MsgType::VersionDead ||
            type == MsgType::VersionQuiescent ||
            type == MsgType::WatermarkAdvance;
    }

  private:
    /** One tracked memory object. */
    struct Entry
    {
        bool valid = false;
        std::uint64_t addr = 0;
        OperandId lastUser;
        bool hasCurVersion = false;
        std::uint32_t curVersion = 0;
        std::uint32_t liveVersions = 0;
        unsigned chainHops = 0; ///< consumers chained on curVersion
    };

    Service handleDecode(DecodeOperandMsg &msg);
    Service handleBatch(DecodeBatchMsg &msg);

    /** Return one input-buffer packet credit to @p gateway. */
    void returnCredit(NodeId gateway);
    Service handleVersionDead(VersionDeadMsg &msg);
    Service handleQuiescent(VersionQuiescentMsg &msg);

    /// @name Shared-data ticket admission (ordered mode).
    /// @{

    /** Per-object admission progress of this slice. */
    struct AdmitState
    {
        std::uint32_t epoch = 0;     ///< writes admitted so far
        std::uint32_t readsSeen = 0; ///< readers admitted this epoch
    };

    /** May @p msg be processed now, given the object's progress? */
    static bool admissible(const DecodeOperandMsg &msg,
                           const AdmitState &st);

    /** Record an admitted operand and wake deferred successors. */
    void commitAdmission(const DecodeOperandMsg &msg);
    /// @}

    /// @name Version-slot reserve escape (ordered-mode liveness).
    /// @{

    /** Is @p msg an operand of the machine-oldest unfinished task? */
    bool isOldestTask(const DecodeOperandMsg &msg) const;

    /** May @p msg claim a version slot right now (reserve rule)? */
    bool canClaimSlot(const DecodeOperandMsg &msg) const;

    /** Capacity-park @p msg; subscribe to watermark advances once. */
    Service parkForSlot(const DecodeOperandMsg &msg, Cycle cost);

    /** Claim a version slot, marking reserve-regime claims reserved. */
    std::uint32_t claimSlot();

    /**
     * Re-arbitrate capacity-parked operands that the reserve rule now
     * admits, oldest first, bounded by the free-slot count.
     */
    void wakeSlotWaiters();
    /// @}

    /**
     * Locate the entry for @p addr: a hit, a free/reclaimable way, or
     * nullptr when the set is full of live objects. @p index is the
     * entry's handle in the way pool.
     */
    Entry *lookup(std::uint64_t addr, bool &hit, std::uint32_t &index);

    /** The entry behind a handle the OVT echoed back. */
    Entry &entryAt(std::uint32_t index);

    void sampleChain(Entry &entry);

    unsigned ortIndex;
    const PipelineConfig &cfg;
    FrontendStats &stats;
    Edram edram;

    std::vector<NodeId> gatewayNodes;
    NodeId ovtNode = invalidNode;
    std::vector<NodeId> trsNodes;

    bool orderedAdmission = false;
    const TaskRegistry *registry = nullptr; ///< set in ordered mode
    std::unordered_map<std::uint64_t, AdmitState> admitState;
    /// Out-of-turn operands parked per object until their ticket.
    std::unordered_map<std::uint64_t, std::vector<DecodeOperandMsg>>
        deferredByAddr;
    Counter deferrals;

    /// Operands capacity-parked by the version-slot reserve rule.
    std::vector<DecodeOperandMsg> slotWaiters;
    /**
     * Version-slot reserve (ordered mode). When the free-slot pool is
     * at or below this mark, only operands of the machine-wide oldest
     * unfinished task (TaskRegistry::minUnfinishedIndex) may claim
     * slots; every other operand is capacity-parked and re-arbitrated
     * on a version death or watermark advance. Versions claimed from
     * the reserve regime admit no younger readers (they park too), so
     * reserve slots are only ever pinned by tasks at or before the
     * then-oldest — which all finish — and the reserve always
     * replenishes: the oldest task can always decode, execute and
     * retire, and induction on the watermark gives liveness.
     *
     * The guarantee needs the reserve to cover the largest per-slice
     * memory-operand count of any single task: the TRS layout's hard
     * operand ceiling, which covers every legal trace, clamped to the
     * slice's capacity. Ample-capacity runs never drain into the
     * reserve, so their decode decisions (and the golden stats) do
     * not depend on it.
     */
    std::uint32_t reserveSlots = 0;
    bool starveSubscribed = false;  ///< SliceStarved sent to the TRSs
    Counter slotParks;

    std::uint32_t numSets;
    /// The sets the slice's objects hash to own ortWays consecutive
    /// entries of the way pool from setBase[set]; other sets own none.
    static constexpr std::uint32_t noSet = ~std::uint32_t(0);
    std::vector<std::uint32_t> setBase;
    std::vector<Entry> ways;

    IndexPool freeSlots; ///< OVT slot credits

    /** The slice's record of one version slot. */
    struct Slot
    {
        /// AddReader messages issued (retire handshake).
        std::uint32_t readersIssued = 0;
        /// Incarnation counter; stale retirement hints are ignored.
        std::uint32_t epoch = 0;
        /// Claimed from the reserve regime: younger readers may not
        /// join the live version (liveness).
        bool reserved = false;
    };
    std::vector<Slot> slots; ///< one per slot freeSlots can reach

    Slot &slotAt(std::uint32_t slot);

    bool stallSent = false;
    Cycle stallStarted = 0;
    Counter stalls;
};

} // namespace tss

#endif // TSS_CORE_ORT_HH
