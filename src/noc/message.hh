/**
 * @file
 * Base types for the asynchronous point-to-point protocol: network
 * node ids, the message base class, and the endpoint interface.
 * Message storage is pooled: Message::operator new/delete draw from a
 * per-thread ChunkPool, so every std::make_unique<XxxMsg>() call site
 * is pooled unchanged and, after warm-up, the NoC send path performs
 * no heap allocation.
 */

#ifndef TSS_NOC_MESSAGE_HH
#define TSS_NOC_MESSAGE_HH

#include <cstdint>
#include <memory>

#include "sim/pool.hh"
#include "sim/types.hh"

namespace tss
{

/** Index of a node (core, frontend tile, L2 bank, ...) on the NoC. */
using NodeId = std::int32_t;

/** Sentinel for "not attached". */
constexpr NodeId invalidNode = -1;

/**
 * Base class for everything travelling on the NoC. Concrete protocol
 * messages (see core/protocol.hh) derive from this; the network itself
 * only looks at source, destination and size.
 */
struct Message
{
    Message(NodeId src_node, NodeId dst_node, Bytes size_bytes)
        : src(src_node), dst(dst_node), bytes(size_bytes)
    {}

    virtual ~Message() = default;

    /// @name Pooled storage. All messages draw from the calling
    /// thread's pool. The sized delete receives the most-derived size
    /// from the deleting destructor, matching the size class chosen
    /// at allocation.
    /// @{
    /** The calling thread's message pool. */
    static ChunkPool &
    pool()
    {
        static thread_local ChunkPool p;
        return p;
    }

    static void *
    operator new(std::size_t bytes)
    {
        return pool().allocate(bytes);
    }

    static void
    operator delete(void *p, std::size_t bytes) noexcept
    {
        pool().release(p, bytes);
    }
    /// @}

    NodeId src;
    NodeId dst;
    Bytes bytes;

    /** Cycle the message was injected (set by the network). */
    Cycle sentAt = 0;
};

using MessagePtr = std::unique_ptr<Message>;

/** Receiver of delivered messages. */
class Endpoint
{
  public:
    virtual ~Endpoint() = default;

    /** Called by the network when a message arrives at this node. */
    virtual void receive(MessagePtr msg) = 0;
};

} // namespace tss

#endif // TSS_NOC_MESSAGE_HH
