/**
 * @file
 * Fundamental simulation types: cycles, the simulated clock, and the
 * identifier tuples used throughout the task superscalar pipeline.
 */

#ifndef TSS_SIM_TYPES_HH
#define TSS_SIM_TYPES_HH

#include <cstdint>
#include <functional>
#include <string>

namespace tss
{

/** Simulated time, measured in core clock cycles. */
using Cycle = std::uint64_t;

/** A count of bytes of (simulated) storage. */
using Bytes = std::uint64_t;

/** Sentinel for "no cycle" / "not yet". */
constexpr Cycle invalidCycle = ~Cycle(0);

/**
 * The simulated clock. The paper's platform runs at 3.2 GHz; all
 * latency constants in the paper are quoted either in cycles (eDRAM,
 * module processing) or nanoseconds (decode rates), so conversions in
 * both directions are needed.
 */
class Clock
{
  public:
    explicit constexpr Clock(double freq_ghz = 3.2) : _freqGHz(freq_ghz) {}

    /** Convert nanoseconds to (rounded) cycles. */
    constexpr Cycle
    nsToCycles(double ns) const
    {
        return static_cast<Cycle>(ns * _freqGHz + 0.5);
    }

    /** Convert cycles to nanoseconds. */
    constexpr double
    cyclesToNs(Cycle cycles) const
    {
        return static_cast<double>(cycles) / _freqGHz;
    }

    /** Convert cycles to microseconds. */
    constexpr double
    cyclesToUs(Cycle cycles) const
    {
        return cyclesToNs(cycles) / 1000.0;
    }

    /** Convert microseconds to cycles. */
    constexpr Cycle usToCycles(double us) const { return nsToCycles(us * 1000.0); }

  private:
    double _freqGHz;
};

/** The default 3.2 GHz platform clock used across the evaluation. */
constexpr Clock defaultClock{3.2};

/**
 * Unique in-flight task identifier: the TRS index and the slot (main
 * block address) inside that TRS, as in the paper's <TRS, SLOT> tuple.
 * A generation counter disambiguates slot reuse (see DESIGN.md #4.2).
 */
struct TaskId
{
    std::uint16_t trs = 0xffff;
    std::uint32_t slot = 0;
    std::uint32_t generation = 0;

    bool valid() const { return trs != 0xffff; }

    friend bool
    operator==(const TaskId &a, const TaskId &b)
    {
        return a.trs == b.trs && a.slot == b.slot &&
            a.generation == b.generation;
    }

    friend bool operator!=(const TaskId &a, const TaskId &b)
    {
        return !(a == b);
    }
};

/**
 * Unique operand identifier <TRS, SLOT, INDEX>, derived from the owning
 * task's id plus the operand position.
 */
struct OperandId
{
    TaskId task;
    std::uint8_t index = 0;

    bool valid() const { return task.valid(); }

    friend bool
    operator==(const OperandId &a, const OperandId &b)
    {
        return a.task == b.task && a.index == b.index;
    }

    friend bool operator!=(const OperandId &a, const OperandId &b)
    {
        return !(a == b);
    }
};

/** Render a task id as "<trs,slot>" for debug output. */
std::string toString(const TaskId &id);

/** Render an operand id as "<trs,slot,index>" for debug output. */
std::string toString(const OperandId &id);

} // namespace tss

namespace std
{

template <>
struct hash<tss::TaskId>
{
    size_t
    operator()(const tss::TaskId &id) const noexcept
    {
        std::uint64_t v = (std::uint64_t(id.trs) << 48) ^
            (std::uint64_t(id.generation) << 24) ^ id.slot;
        return std::hash<std::uint64_t>()(v);
    }
};

template <>
struct hash<tss::OperandId>
{
    size_t
    operator()(const tss::OperandId &id) const noexcept
    {
        return std::hash<tss::TaskId>()(id.task) * 31 + id.index;
    }
};

} // namespace std

#endif // TSS_SIM_TYPES_HH
