/**
 * @file
 * Configuration of the task superscalar pipeline: module counts,
 * storage capacities, and the latency constants of the paper's
 * simulated platform (Table II), plus behaviour switches used by the
 * ablation benches. Table II values no caller varies are named
 * constants (static constexpr), still read as `cfg.x`.
 */

#ifndef TSS_CORE_CONFIG_HH
#define TSS_CORE_CONFIG_HH

#include "mem/block_layout.hh"
#include "noc/topology.hh"
#include "obs/obs_config.hh"
#include "sim/hash.hh"
#include "sim/types.hh"

namespace tss
{

/** Full pipeline + backend configuration. */
struct PipelineConfig
{
    /// @name Frontend structure (paper section VI-A's chosen design
    /// point: 8 TRSs and 2 ORT/OVT pairs suffice for 256 cores).
    /// numTrs/numOrt count instances *per pipeline*; numPipelines
    /// replicates the whole frontend (gateway + TRSs + ORT/OVT pairs)
    /// for the paper's multiple task-generating threads (section
    /// III-B). Task ownership (TRS allocation) stays local to each
    /// pipeline, but the ORT/OVT pairs of all pipelines form one
    /// address-interleaved global directory: shardOf() names the slice
    /// that owns an object, so generating threads may share data.
    /// @{
    unsigned numTrs = 8;
    unsigned numOrt = 2; ///< ORT/OVT pairs (each OVT serves one ORT)
    unsigned numPipelines = 1; ///< independent frontend pipelines
    /// @}

    /// @name Storage capacities (totals across all instances).
    /// @{
    Bytes trsTotalBytes = 6 * 1024 * 1024;  ///< 6 MB (section VI-B)
    Bytes ortTotalBytes = 512 * 1024;       ///< 512 KB (section VI-B)
    Bytes ovtTotalBytes = 512 * 1024;       ///< "similar capacity"
    /// @}

    /// @name Module geometry (constants). Entry sizes follow the
    /// paper's tag layout (two 64 B tag blocks per 16-way set: 8 B of
    /// tag per way, plus packed operand-id/version meta-data).
    /// @{
    static constexpr unsigned ortWays = 16;    ///< ORT associativity
    static constexpr Bytes ortEntryBytes = 16; ///< per tracked object
    static constexpr Bytes ovtEntryBytes = 16; ///< per live version
    /// @}

    /// @name Timing (Table II).
    /// @{
    Cycle edramLatency = 22;   ///< per eDRAM access
    Cycle packetLatency = 16;  ///< module processing per packet
    /// @}

    /// @name Gateway / task-generating thread.
    /// @{
    unsigned gatewayBufferTasks = 20; ///< 1 KB buffer, >20 tasks
    static constexpr Cycle taskGenBaseCycles = 96; ///< per task
    static constexpr Cycle taskGenPerOperandCycles = 8;
    /// @}

    /// @name Backend.
    /// @{
    unsigned numCores = 256;
    unsigned corePrefetch = 1;   ///< Carbon-like per-core queue depth
    /// Scheduler packet processing (constant).
    static constexpr Cycle dispatchOverhead = 16;

    /// Heterogeneous CMP support (the paper's future-work direction:
    /// "managing heterogeneous CMPs at a higher level of
    /// abstraction"). The first numBigCores run at full speed; the
    /// remainder execute tasks slower by littleSpeedFactor (< 1).
    /// Defaults give a homogeneous machine.
    unsigned numBigCores = ~0u;     ///< clamped to numCores
    double littleSpeedFactor = 1.0; ///< relative speed of the rest

    /** Execution-speed factor of a core (1.0 = nominal). */
    double
    coreSpeed(unsigned core) const
    {
        unsigned big = numBigCores > numCores ? numCores : numBigCores;
        return core < big ? 1.0 : littleSpeedFactor;
    }
    /// @}

    /// @name Behaviour switches (ablations; defaults = the paper).
    /// @{
    bool renameOutputs = true;    ///< rename `output` operands
    bool consumerChaining = true; ///< chain consumers vs OVT fan-out
    bool eagerWriteback = true;   ///< DMA copy-back of quiescent
                                  ///< final renamed versions

    /**
     * Ticket-protocol cost ablation: ordered admission still
     * enforces per-object program order (so decisions stay correct
     * and replayable), but parking an out-of-turn operand charges
     * one cycle instead of the real protocol's tag probe
     * (packetLatency + an eDRAM read). Compare decode rates against
     * the real protocol to price the ordering machinery
     * (the frontend.decode_deferrals metric counts the parked
     * operands either way).
     */
    bool idealAdmission = false;
    /// @}

    /// @name NoC topology, placement and operand batching.
    /// @{
    TopologyKind nocTopology = TopologyKind::Ring;
    PlacementKind nocPlacement = PlacementKind::Adjacent;
    std::uint64_t nocPlacementSeed = 1;

    /**
     * Gateway-side packet batching: coalesce same-destination-slice
     * memory operands of one task into a single DecodeBatchMsg of at
     * most batchPacketBytes (the paper's Table II 64 B packet, a
     * constant), flushed at the packet budget or the task boundary.
     * Off by default — the single-pipeline golden stats pin the
     * unbatched frontend.
     */
    bool batchOperands = false;
    static constexpr Bytes batchPacketBytes = 64;

    /**
     * Gateway -> slice flow control: each directory slice grants
     * every gateway this many packet credits (its per-source input
     * buffer); a DecodeOperand or DecodeBatch packet consumes one,
     * returned by a DecodeCredit packet when the slice finishes
     * servicing it. This puts the gateway->slice->gateway round trip
     * — and therefore topology distance and link contention — on the
     * decode throughput path, which is what the fig17 sweep
     * measures. 0 disables flow control (infinite input queues, the
     * historical idealization; golden stats pin that mode).
     */
    unsigned slicePacketCredits = 0;

    /** Operand descriptors (16 B) that fit one batch packet after
     *  its 8 B header. */
    static constexpr unsigned
    maxBatchOperands()
    {
        return static_cast<unsigned>((batchPacketBytes - 8) / 16);
    }
    /// @}

    /**
     * Host threads the simulation engine may use to drain a window's
     * event shards. The engine currently drains every window on the
     * calling thread (sim/sim_engine.hh says why), so no value changes
     * a simulated bit or the host time. Configurations, --sim-threads
     * and the cross-thread determinism checks keep setting it, so a
     * parallel drain can return without changing any of them.
     */
    unsigned simThreads = 1;

    /// @name Observability (src/obs). Host-side only: no trace mode
    /// or filter ever changes a simulated decision or statistic —
    /// the tracer observes, it never schedules.
    /// @{
    obs::TraceMode traceMode = obs::TraceMode::Tail;
    std::uint32_t traceFilter = obs::cat::all;  ///< category mask
    unsigned traceTailRecords = 4096;  ///< bounded wedge-debug tail
    std::string traceOutPath;    ///< Chrome JSON out (implies Full)
    std::string metricsOutPath;  ///< metrics-snapshot JSON out
    /// @}

    /** TRS storage blocks per TRS instance. The configured byte
     *  totals are machine-wide: they divide across all instances of
     *  all pipelines, so varying numPipelines holds storage constant
     *  (iso-capacity comparisons stay honest). */
    std::uint32_t
    blocksPerTrs() const
    {
        return static_cast<std::uint32_t>(
            trsTotalBytes / totalTrs() / layout::blockBytes);
    }

    /** ORT object entries per ORT instance. */
    std::uint32_t
    entriesPerOrt() const
    {
        return static_cast<std::uint32_t>(
            ortTotalBytes / totalOrt() / ortEntryBytes);
    }

    /** OVT version slots per OVT instance. */
    std::uint32_t
    slotsPerOvt() const
    {
        return static_cast<std::uint32_t>(
            ovtTotalBytes / totalOrt() / ovtEntryBytes);
    }

    /// @name Totals across all pipelines (the global module index
    /// spaces used by TaskId.trs and VersionRef.ovt).
    /// @{
    unsigned totalTrs() const { return numPipelines * numTrs; }
    unsigned totalOrt() const { return numPipelines * numOrt; }
    /// @}

    /// @name The address-interleaved directory: every object address
    /// is owned by exactly one global ORT/OVT slice, on whichever
    /// pipeline that slice lives. With one pipeline this reduces to
    /// the historical per-pipeline operand hashing bit-for-bit.
    /// @{

    /** Global ORT/OVT slice owning @p addr. */
    unsigned
    shardOf(std::uint64_t addr) const
    {
        return static_cast<unsigned>(mixAddress(addr) % totalOrt());
    }
    /// @}

    /** NoC tiles occupied by one frontend pipeline. */
    unsigned
    pipelineSpan() const
    {
        return 1 + numTrs + 2 * numOrt;
    }

    /**
     * NoC tiles used by the frontend: per pipeline a gateway, the
     * TRSs and the ORT/OVT pairs, plus one shared task scheduler
     * (backend queuing system).
     */
    unsigned
    frontendTiles() const
    {
        return numPipelines * pipelineSpan() + 1;
    }

    /// @name Frontend tile indices on the NoC. @p pipe selects the
    /// pipeline; the default reproduces the single-pipeline layout.
    /// @{
    unsigned
    gatewayTile(unsigned pipe = 0) const
    {
        return pipe * pipelineSpan();
    }
    unsigned
    trsTile(unsigned i, unsigned pipe = 0) const
    {
        return pipe * pipelineSpan() + 1 + i;
    }
    unsigned
    ortTile(unsigned i, unsigned pipe = 0) const
    {
        return pipe * pipelineSpan() + 1 + numTrs + i;
    }
    unsigned
    ovtTile(unsigned i, unsigned pipe = 0) const
    {
        return pipe * pipelineSpan() + 1 + numTrs + numOrt + i;
    }
    unsigned schedulerTile() const { return numPipelines * pipelineSpan(); }
    /// @}
};

} // namespace tss

#endif // TSS_CORE_CONFIG_HH
