/**
 * @file
 * Deterministic trace relocation: rebase the operand addresses of a
 * captured task trace onto the synthetic AddressSpace so that
 * simulated routing (PipelineConfig::shardOf) and therefore simulated
 * timing no longer depend on where the host allocator and ASLR placed
 * the program's memory. Real StarSs kernels become reproducible,
 * CI-gateable citizens of the benchmark suite.
 *
 * The pass discovers distinct memory *regions* in the source address
 * space — either exactly, from a capture-side region registry
 * (starss::TaskContext::registerRegion) that each memory operand
 * resolves into by containment, or by inference from the operands
 * themselves (interval merging of overlapping/abutting accesses plus
 * stride coalescing of equally-spaced, equally-sized runs) — and
 * places each region at a fresh synthetic base. Regions are placed in
 * first-touch trace order (stable across runs because the trace
 * *structure* is deterministic even when its addresses are not); a
 * non-zero layout seed shuffles the placement order instead,
 * for layout-sensitivity sweeps.
 *
 * Aliasing is preserved exactly: all addresses of one region shift by
 * one delta (intra-region offsets survive) and distinct regions land
 * in disjoint target ranges, so two operands overlap after relocation
 * iff they overlapped before. The renamed dependency graph — and with
 * it the differential oracle — is therefore invariant under
 * relocation; only the directory slice an address hashes to changes,
 * deterministically.
 */

#ifndef TSS_TRACE_RELOCATE_HH
#define TSS_TRACE_RELOCATE_HH

#include <cstdint>
#include <vector>

#include "trace/task_trace.hh"

namespace tss
{

/** One source-address-space memory region. */
struct MemRegion
{
    std::uint64_t base = 0;
    Bytes bytes = 0;
};

/** Knobs of the relocation pass. */
struct RelocationOptions
{
    /// Base of the synthetic target range (matches the AddressSpace
    /// the synthetic workload generators draw from).
    std::uint64_t targetBase = 0x1000'0000;

    /// Region base alignment in the target range. Also the minimum
    /// gap unit between regions, so relocated regions never overlap.
    std::uint64_t alignment = 256;

    /**
     * 0 (default): place regions in first-touch trace order — the
     * canonical deterministic layout. Non-zero: a seeded shuffle of
     * the placement order, for layout-sensitivity sweeps (aliasing
     * is preserved either way).
     */
    std::uint64_t layoutSeed = 0;
};

/** One region's relocation decision. */
struct RelocatedRegion
{
    std::uint64_t sourceBase = 0;
    std::uint64_t targetBase = 0;
    Bytes bytes = 0;

    /// Trace index of the first task touching the region (placement
    /// key when RelocationOptions::layoutSeed == 0).
    std::uint32_t firstTouchTask = 0;
};

/**
 * The address mapping of one relocation pass: a set of disjoint
 * source regions, each with its target base. Build with
 * buildRelocationMap().
 */
class RelocationMap
{
  public:
    /** Regions sorted by source base. */
    const std::vector<RelocatedRegion> &regions() const
    {
        return _regions;
    }

    /** Region containing @p addr, or null. */
    const RelocatedRegion *find(std::uint64_t addr) const;

    /**
     * Copy of @p trace with every memory operand rebased; calls
     * fatal() for an address no region contains (the trace the map
     * was built from never touched it).
     */
    TaskTrace apply(const TaskTrace &trace) const;

  private:
    friend RelocationMap buildRelocationMap(
        const TaskTrace &, const RelocationOptions &,
        const std::vector<MemRegion> &);

    std::vector<RelocatedRegion> _regions; ///< sorted by sourceBase
};

/**
 * Discover the memory regions of @p trace and lay them out in the
 * synthetic target range.
 *
 * With a non-empty @p captured registry (exact region extents recorded
 * at capture time), the regions must not overlap and every memory
 * operand must lie entirely inside one of them — fatal() otherwise,
 * naming the regions or the operand — and only touched regions are
 * placed. This is the allocator-independent path real programs use:
 * two captures of the same program relocate identically no matter how
 * the heap happened to arrange the regions, or in which order they
 * were registered.
 *
 * Without a registry, regions are inferred: operand intervals that
 * overlap or abut merge into one region, and runs of at least three
 * equally-sized regions at a constant stride below twice their size
 * coalesce into one strided region (sub-block accesses walking a
 * larger allocation). Inference cannot tell deliberately adjacent
 * sub-blocks from separate allocations the allocator happened to
 * place back to back, which is exactly why captures record regions.
 */
RelocationMap buildRelocationMap(
    const TaskTrace &trace, const RelocationOptions &opts = {},
    const std::vector<MemRegion> &captured = {});

/** One-shot convenience: build the map and apply it. */
TaskTrace relocateTrace(const TaskTrace &trace,
                        const RelocationOptions &opts = {},
                        const std::vector<MemRegion> &captured = {});

/**
 * True when the memory operands of @p a and @p b (same shape
 * required) have identical pairwise overlap/equality relations — the
 * soundness condition of relocation: two operands collide after iff
 * they collided before. Quadratic; intended for tests.
 */
bool sameAliasing(const TaskTrace &a, const TaskTrace &b);

} // namespace tss

#endif // TSS_TRACE_RELOCATE_HH
