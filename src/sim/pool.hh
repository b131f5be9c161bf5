/**
 * @file
 * Size-class chunk recycler for the simulation hot paths. Freed
 * chunks are chained through their own storage (the same intrusive
 * free-list idiom as mem/free_list), so steady-state allocation and
 * release touch no global allocator at all: after warm-up every
 * event closure and protocol message reuses a previously freed chunk.
 */

#ifndef TSS_SIM_POOL_HH
#define TSS_SIM_POOL_HH

#include <bit>
#include <cstddef>
#include <cstdint>
#include <new>

namespace tss
{

/**
 * A pool of raw memory chunks bucketed by geometric size class
 * (64 B .. 1 KB). Requests above the largest class fall through to
 * the global allocator (counted, so benches can assert the hot path
 * never takes that branch). Not thread-safe; use one pool per thread
 * (releasing a chunk into a different thread's pool is safe only if
 * that pool is never used concurrently).
 */
class ChunkPool
{
  public:
    /** Smallest chunk handed out; also the class-0 size. */
    static constexpr std::size_t minClassBytes = 64;

    /** Number of size classes: 64, 128, 256, 512, 1024 bytes. */
    static constexpr unsigned numClasses = 5;

    /** Largest pooled request. */
    static constexpr std::size_t maxClassBytes =
        minClassBytes << (numClasses - 1);

    /** Allocation counters (cumulative). */
    struct Stats
    {
        std::uint64_t fresh = 0;    ///< chunks taken from ::operator new
        std::uint64_t reused = 0;   ///< chunks recycled from a free list
        std::uint64_t released = 0; ///< chunks returned to a free list
        std::uint64_t oversize = 0; ///< requests above maxClassBytes

        /** Chunks currently handed out (pooled classes only). */
        std::uint64_t
        outstanding() const
        {
            return fresh + reused - released;
        }
    };

    ChunkPool() = default;
    ChunkPool(const ChunkPool &) = delete;
    ChunkPool &operator=(const ChunkPool &) = delete;

    ~ChunkPool()
    {
        for (unsigned cls = 0; cls < numClasses; ++cls) {
            FreeNode *node = freeHead[cls];
            while (node) {
                FreeNode *next = node->next;
                ::operator delete(node);
                node = next;
            }
        }
    }

    /** Size class serving @p bytes; numClasses when oversize. */
    static unsigned
    classOf(std::size_t bytes)
    {
        if (bytes <= minClassBytes)
            return 0;
        unsigned cls = static_cast<unsigned>(
            std::bit_width((bytes - 1) / minClassBytes));
        return cls < numClasses ? cls : numClasses;
    }

    /** Bytes actually reserved for class @p cls. */
    static constexpr std::size_t
    classBytes(unsigned cls)
    {
        return minClassBytes << cls;
    }

    /** Get a chunk of at least @p bytes. */
    void *
    allocate(std::size_t bytes)
    {
        unsigned cls = classOf(bytes);
        if (cls >= numClasses) {
            ++_stats.oversize;
            return ::operator new(bytes);
        }
        if (FreeNode *node = freeHead[cls]) {
            freeHead[cls] = node->next;
            ++_stats.reused;
            return node;
        }
        ++_stats.fresh;
        return ::operator new(classBytes(cls));
    }

    /** Return a chunk obtained with allocate(@p bytes). */
    void
    release(void *p, std::size_t bytes) noexcept
    {
        unsigned cls = classOf(bytes);
        if (cls >= numClasses) {
            ::operator delete(p);
            return;
        }
        auto *node = static_cast<FreeNode *>(p);
        node->next = freeHead[cls];
        freeHead[cls] = node;
        ++_stats.released;
    }

    const Stats &stats() const { return _stats; }

    /** Free chunks currently parked in class @p cls. */
    std::size_t
    freeChunks(unsigned cls) const
    {
        std::size_t n = 0;
        for (FreeNode *node = freeHead[cls]; node; node = node->next)
            ++n;
        return n;
    }

  private:
    struct FreeNode
    {
        FreeNode *next;
    };
    static_assert(sizeof(FreeNode) <= minClassBytes);

    FreeNode *freeHead[numClasses] = {};
    Stats _stats;
};

} // namespace tss

#endif // TSS_SIM_POOL_HH
