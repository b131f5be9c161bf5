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
 *
 * Version identity is assigned in program order and is therefore
 * independent of the machine's shard count: only the *ownership* of a
 * version (PipelineConfig::shardOf of its object) moves with
 * numPipelines, which is why the ParallelExecutor's differential
 * oracle holds bit-for-bit across numPipelines. The store works on
 * the captured trace's real home addresses; relocation only affects
 * simulated routing, never program memory.
 */

#ifndef TSS_RUNTIME_RENAME_STORE_HH
#define TSS_RUNTIME_RENAME_STORE_HH

#include <cstdint>
#include <memory>
#include <unordered_map>
#include <vector>

#include "runtime/starss.hh"
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
     */
    explicit RenameStore(const TaskTrace &task_trace);

    /** Number of versions the decode created (rename buffers used). */
    std::size_t numVersions() const { return versionBytes.size(); }

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

    /// Per-task, per-operand version consumed / produced (-1: none or
    /// program memory).
    std::vector<std::vector<std::int64_t>> readVersionOf;
    std::vector<std::vector<std::int64_t>> writeVersionOf;

    /// version -> bytes of its object.
    std::vector<Bytes> versionBytes;

    /// object home address -> final version (for the copy-back).
    std::unordered_map<std::uint64_t, std::int64_t> finalVersion;

    std::vector<VersionBuffer> buffers;
};

} // namespace tss::starss

#endif // TSS_RUNTIME_RENAME_STORE_HH
