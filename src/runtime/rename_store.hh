/**
 * @file
 * The software mirror of the OVT rename buffers. A RenameStore walks
 * a captured task trace once in program order and assigns every
 * memory operand a *version* — readers see the current version of
 * their object, writers create a fresh one — exactly the renaming the
 * ORT/OVT pair performs at decode time (paper sections IV-A.2/3).
 * Each version is then backed by a private buffer, the software
 * analogue of an OVT rename buffer: `Out` operands get an empty
 * buffer (the hardware's freshly allocated rename buffer), `InOut`
 * operands get a buffer seeded from the consumed version (the
 * in-place chain the OVT serializes), and when execution finishes the
 * final version of every object is copied to its home address (the
 * OVT's DMA write-back on version retirement).
 *
 * Because every version has exactly one writing task and all of its
 * readers are ordered after that writer by the renamed dependency
 * graph, `bind()` may be called concurrently for tasks that the graph
 * leaves unordered: distinct tasks only ever touch distinct version
 * buffers, which is what makes the ParallelExecutor race-free.
 */

#ifndef TSS_RUNTIME_RENAME_STORE_HH
#define TSS_RUNTIME_RENAME_STORE_HH

#include <cstdint>
#include <memory>
#include <unordered_map>
#include <vector>

#include "runtime/starss.hh"
#include "trace/relocate.hh"
#include "trace/task_trace.hh"

namespace tss::starss
{

/** Per-version rename buffers for one captured task program. */
class RenameStore
{
  public:
    /**
     * Run the program-order version-assignment pass (the software
     * ORT/OVT decode) over @p task_trace. The trace must outlive the
     * store.
     *
     * @p relocation (optional, must outlive the store) is the map a
     * relocated *simulated* run of this program used: when present,
     * objectAddress()/ownerShard() report the rebased addresses, so
     * the software mirror matches the hardware decision made on the
     * relocated trace. Execution (bind()/copyBack()) always works on
     * the real home addresses — relocation only affects simulated
     * routing, never program memory.
     */
    explicit RenameStore(const TaskTrace &task_trace,
                         const RelocationMap *relocation = nullptr);

    /** Number of versions the decode created (rename buffers used). */
    std::size_t numVersions() const { return versionObject.size(); }

    /**
     * Resolve the operand pointers of task @p t: materialize the
     * versions it writes (seeding `InOut` versions from their
     * consumed data), and point each read at the version it consumes.
     * Version -1 means "the data still lives in program memory" at
     * @p params' home addresses.
     *
     * Thread-safe for tasks unordered by the renamed dependency
     * graph; see the file comment.
     */
    std::vector<void *> bind(std::uint32_t t,
                             const std::vector<Param> &params);

    /**
     * DMA copy-back: the final version of every object lands at its
     * home address. Call once, after every task has executed.
     */
    void copyBack();

    /// @name Version-assignment introspection (tests).
    /// @{
    std::int64_t
    writeVersion(std::uint32_t t, std::size_t operand) const
    {
        return writeVersionOf[t][operand];
    }

    /** Address of the object a version belongs to: the home address,
     *  or its relocated image when the store mirrors a relocated
     *  simulated run. */
    std::uint64_t
    objectAddress(std::int64_t version) const
    {
        std::uint64_t home =
            versionObject[static_cast<std::size_t>(version)].first;
        return reloc ? reloc->relocate(home) : home;
    }

    /**
     * Directory slice owning a version under a machine with
     * @p total_shards ORT/OVT pairs — the software mirror of the
     * sharded version-ownership rule (PipelineConfig::shardOf).
     * Version identity is assigned in program order and therefore
     * shard-count invariant; only *ownership* moves with the shard
     * count, which is why the ParallelExecutor's differential oracle
     * holds bit-for-bit across numPipelines.
     */
    unsigned ownerShard(std::int64_t version,
                        unsigned total_shards) const;
    /// @}

  private:
    /** A materialized operand version (one OVT rename buffer). */
    struct VersionBuffer
    {
        std::unique_ptr<std::uint8_t[]> data;
        Bytes bytes = 0;
    };

    /** Allocate the buffer of @p version if not yet backed. */
    VersionBuffer &materialize(std::int64_t version);

    const TaskTrace &trace;
    const RelocationMap *reloc; ///< simulated-routing address rebase

    /// Per-task, per-operand version consumed / produced (-1: none or
    /// program memory).
    std::vector<std::vector<std::int64_t>> readVersionOf;
    std::vector<std::vector<std::int64_t>> writeVersionOf;

    /// version -> (object home address, bytes).
    std::vector<std::pair<std::uint64_t, Bytes>> versionObject;

    /// object home address -> final version (for the copy-back).
    std::unordered_map<std::uint64_t, std::int64_t> finalVersion;

    std::vector<VersionBuffer> buffers;
};

} // namespace tss::starss

#endif // TSS_RUNTIME_RENAME_STORE_HH
