/**
 * @file
 * The simulator's two hashes. The one address hash of the frontend:
 * object base addresses are spread over directory slices (gateway
 * routing), and over the sets inside a slice (ORT associative
 * lookup), with the same splitmix64 finalizer — shared here so the
 * gateway, the ORTs and the config's shardOf() can never disagree
 * about who owns an object.
 * And the engine's running digest of the event stream (see
 * EventQueue::digest), one multiply-xor per folded word.
 */

#ifndef TSS_SIM_HASH_HH
#define TSS_SIM_HASH_HH

#include <cstdint>

namespace tss
{

/** splitmix64 finalizer: decorrelates object base addresses. */
constexpr std::uint64_t
mixAddress(std::uint64_t x)
{
    x += 0x9e3779b97f4a7c15ULL;
    x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
    x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
    return x ^ (x >> 31);
}

/** Seed of every running digest (the FNV-1a 64-bit offset basis). */
constexpr std::uint64_t digestSeed = 0xcbf29ce484222325ULL;

/**
 * Fold one word into a running digest: FNV-1a over 64-bit words.
 * Each step is a bijection of the running value, so a difference in
 * any single word survives every later fold; the order of folds
 * matters.
 */
constexpr std::uint64_t
digestFold(std::uint64_t h, std::uint64_t word)
{
    return (h ^ word) * 0x100000001b3ULL;
}

/**
 * Fold one ordering key into a running digest: its cycle, two 32-bit
 * tie-break fields packed into one word, then its sequence number.
 */
constexpr std::uint64_t
digestKey(std::uint64_t h, std::uint64_t when, std::uint32_t hi,
          std::uint32_t lo, std::uint64_t seq)
{
    h = digestFold(h, when);
    h = digestFold(h, std::uint64_t(hi) << 32 | lo);
    return digestFold(h, seq);
}

} // namespace tss

#endif // TSS_SIM_HASH_HH
