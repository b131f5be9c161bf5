/**
 * @file
 * Object Versioning Table: tracks the live versions of every operand,
 * breaking anti- and output-dependencies by renaming `output` operands
 * into fresh buffers and unblocking chained `inout` versions in-order
 * (paper section IV-B.4). The task-level analogue of the physical
 * register file — meta-data only; payload buffers come from power-of-2
 * buckets in an OS-assigned region and are copied back to the original
 * object address by an external DMA engine when the last version of a
 * renamed object quiesces.
 */

#ifndef TSS_CORE_OVT_HH
#define TSS_CORE_OVT_HH

#include <vector>

#include "core/config.hh"
#include "core/module.hh"
#include "core/trs.hh"
#include "mem/bucket_allocator.hh"
#include "mem/dma_engine.hh"
#include "mem/edram.hh"

namespace tss
{

/** One OVT tile, paired with exactly one ORT. */
class Ovt : public FrontendModule
{
  public:
    Ovt(std::string name, EventQueue &eq, Network &network, NodeId node,
        unsigned ovt_index, const PipelineConfig &config,
        FrontendStats &frontend_stats, DmaEngine &dma_engine);

    void
    setPeers(NodeId paired_ort, std::vector<NodeId> trs_nodes)
    {
        ortNode = paired_ort;
        trsNodes = std::move(trs_nodes);
    }

    /// @name Introspection for tests.
    /// @{
    std::size_t liveVersions() const;
    std::uint64_t liveRenameBuffers() const
    {
        return buffers.liveBuffers();
    }
    /// @}

  protected:
    Service process(ProtoMsg &msg) override;

  private:
    /** One live operand version. */
    struct Version
    {
        bool valid = false;
        std::uint64_t addr = 0;
        Bytes bytes = 0;
        OperandId producer;        ///< invalid for memory versions
        bool producerDone = false;
        std::uint32_t usage = 0;   ///< registered readers in flight
        std::uint32_t readersSeen = 0; ///< total AddReaders processed
        bool superseded = false;
        bool hasNext = false;
        std::uint32_t nextSlot = 0;
        bool nextInPlace = false;  ///< next version inherits the buffer
        bool renamed = false;
        std::uint64_t buffer = 0;
        Bytes bucketBytes = 0;     ///< owns a rename buffer when > 0
        bool bufferAssigned = false;
        bool dmaInFlight = false;
        bool hintPending = false;  ///< quiescent hint sent, no answer
        bool retireAuthorized = false;
        std::uint32_t epoch = 0;   ///< slot incarnation
        std::uint32_t ortEntry = 0;
        std::vector<OperandId> waiters; ///< no-chaining ablation
    };

    Service handleCreate(CreateVersionMsg &msg);
    Service handleAddReader(AddReaderMsg &msg);
    Service handleRelease(ReleaseUseMsg &msg);
    Service handleProducerDone(ProducerDoneMsg &msg);
    Service handleRegisterConsumer(RegisterConsumerMsg &msg);
    Service handleRetire(RetireVersionMsg &msg);

    /** Check the release condition of @p slot and act on it. */
    void tryRelease(std::uint32_t slot);

    /** The version died: recycle buffer and notify the ORT. */
    void die(std::uint32_t slot);

    void sendDataReady(const OperandId &op, ReadySide side,
                       std::uint64_t buffer);

    unsigned ovtIndex;
    const PipelineConfig &cfg;
    FrontendStats &stats;
    Edram edram;
    /// Each OVT's OS-assigned rename-buffer region.
    static constexpr Bytes bufferRegionBytes = Bytes(1) << 32;
    BucketAllocator buffers;
    DmaEngine &dma;

    NodeId ortNode = invalidNode;
    std::vector<NodeId> trsNodes;

    std::vector<Version> versions;
};

} // namespace tss

#endif // TSS_CORE_OVT_HH
