/**
 * @file
 * The OVT rename-buffer allocator (paper section IV-B.4): a fixed set
 * of power-of-2 buckets carved from an OS-assigned main-memory region.
 * Each bucket holds an in-memory linked list of fixed-size buffers and
 * is refilled with a fresh region chunk when it runs empty.
 */

#ifndef TSS_MEM_BUCKET_ALLOCATOR_HH
#define TSS_MEM_BUCKET_ALLOCATOR_HH

#include <cstdint>
#include <optional>
#include <vector>

#include "sim/logging.hh"
#include "sim/stats.hh"
#include "sim/types.hh"

namespace tss
{

/**
 * Power-of-2 bucketed buffer allocator. Buffer addresses are
 * synthetic (offsets into the OS-assigned region); only meta-data is
 * simulated.
 */
class BucketAllocator
{
  public:
    /**
     * @param region_base Synthetic base address of the OS region.
     * @param region_bytes Region capacity.
     * @param min_size Smallest bucket size (rounded up to pow2).
     * @param max_size Largest supported buffer size.
     * @param chunk_bytes Bytes grabbed from the region per refill.
     */
    BucketAllocator(std::uint64_t region_base, Bytes region_bytes,
                    Bytes min_size = 256, Bytes max_size = 1u << 20,
                    Bytes chunk_bytes = 64 * 1024);

    /** Result of a timed allocation. */
    struct Allocation
    {
        std::uint64_t address;
        Bytes bucketSize;
        Cycle cost;
    };

    /**
     * Allocate a buffer of at least @p bytes.
     * @return Address/size/cost, or nullopt when the region is
     *         exhausted (the caller must stall and retry).
     */
    std::optional<Allocation> allocate(Bytes bytes);

    /** Return a buffer obtained from allocate(). */
    void release(std::uint64_t address, Bytes bucket_size);

    /** Live (allocated, unreleased) buffer count. */
    std::uint64_t liveBuffers() const { return live; }

    /** Round @p bytes up to the bucket size that would serve it. */
    Bytes bucketSizeFor(Bytes bytes) const;

  private:
    unsigned bucketIndexFor(Bytes bytes) const;

    std::uint64_t regionBase;
    Bytes regionBytes;
    Bytes regionUsed = 0;
    Bytes minSize;
    Bytes maxSize;
    Bytes chunkBytes;

    /// One free-list (of synthetic addresses) per power-of-2 class.
    std::vector<std::vector<std::uint64_t>> buckets;

    std::uint64_t live = 0;
    Counter refills;
};

} // namespace tss

#endif // TSS_MEM_BUCKET_ALLOCATOR_HH
