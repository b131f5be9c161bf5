#include "relocate.hh"

#include <algorithm>

#include "sim/logging.hh"
#include "sim/random.hh"
#include "workload/address_space.hh"

namespace tss
{

namespace
{

/** One memory-operand access, in trace order. */
struct Touch
{
    std::uint64_t base = 0;
    Bytes bytes = 0;
    std::uint32_t task = 0;
    std::uint32_t operand = 0;
};

std::vector<Touch>
collectTouches(const TaskTrace &trace)
{
    std::vector<Touch> touches;
    for (std::uint32_t t = 0;
         t < static_cast<std::uint32_t>(trace.size()); ++t) {
        const TraceTask &task = trace.tasks[t];
        for (std::uint32_t i = 0;
             i < static_cast<std::uint32_t>(task.operands.size()); ++i) {
            const TraceOperand &op = task.operands[i];
            if (!isMemoryOperand(op.dir))
                continue;
            touches.push_back(
                Touch{op.addr, std::max<Bytes>(op.bytes, 1), t, i});
        }
    }
    return touches;
}

/** A discovered region plus its placement key. */
struct Discovered
{
    std::uint64_t base = 0;
    Bytes bytes = 0;
    std::uint32_t firstTask = ~0u;
    std::uint32_t firstOperand = ~0u;

    void
    touch(const Touch &t)
    {
        if (t.task < firstTask ||
            (t.task == firstTask && t.operand < firstOperand)) {
            firstTask = t.task;
            firstOperand = t.operand;
        }
    }
};

/**
 * Exact region extents from the capture-side registry: every touch
 * must fall entirely inside one captured region; only touched regions
 * survive. Overlapping registered regions would let relocation
 * double-map addresses and break aliasing, so they are rejected.
 */
std::vector<Discovered>
regionsFromRegistry(const std::vector<Touch> &touches,
                    std::vector<MemRegion> sorted)
{
    // Sorted by base from here on.
    std::sort(sorted.begin(), sorted.end(),
              [](const MemRegion &a, const MemRegion &b) {
                  return a.base < b.base;
              });
    for (std::size_t i = 1; i < sorted.size(); ++i) {
        if (sorted[i - 1].base + sorted[i - 1].bytes > sorted[i].base) {
            fatal("captured regions overlap: [%llx,+%llu) and "
                  "[%llx,+%llu)",
                  (unsigned long long)sorted[i - 1].base,
                  (unsigned long long)sorted[i - 1].bytes,
                  (unsigned long long)sorted[i].base,
                  (unsigned long long)sorted[i].bytes);
        }
    }
    std::vector<Discovered> regions(sorted.size());
    for (std::size_t i = 0; i < sorted.size(); ++i) {
        regions[i].base = sorted[i].base;
        regions[i].bytes = sorted[i].bytes;
    }
    for (const Touch &t : touches) {
        // Last region with base <= t.base.
        auto it = std::upper_bound(
            sorted.begin(), sorted.end(), t.base,
            [](std::uint64_t addr, const MemRegion &r) {
                return addr < r.base;
            });
        if (it == sorted.begin() ||
            t.base + t.bytes > (it - 1)->base + (it - 1)->bytes) {
            fatal("operand [%llx,+%llu) of task %u is not contained "
                  "in any captured region",
                  (unsigned long long)t.base, (unsigned long long)t.bytes,
                  t.task);
        }
        regions[static_cast<std::size_t>(it - 1 - sorted.begin())]
            .touch(t);
    }

    // Registered but never-touched regions do not occupy layout slots.
    std::erase_if(regions, [](const Discovered &r) {
        return r.firstTask == ~0u;
    });
    return regions;
}

/**
 * Inferred regions: merge overlapping/abutting operand intervals,
 * then coalesce runs of >= 3 equally-sized regions at one constant
 * stride below twice their size (strided sub-block walks of a larger
 * allocation).
 */
std::vector<Discovered>
regionsByInference(std::vector<Touch> touches)
{
    std::sort(touches.begin(), touches.end(),
              [](const Touch &a, const Touch &b) {
                  if (a.base != b.base)
                      return a.base < b.base;
                  return a.bytes < b.bytes;
              });

    std::vector<Discovered> merged;
    for (const Touch &t : touches) {
        if (!merged.empty() &&
            t.base <= merged.back().base + merged.back().bytes) {
            Discovered &r = merged.back();
            r.bytes = std::max<Bytes>(
                r.bytes, t.base + t.bytes - r.base);
            r.touch(t);
        } else {
            Discovered r;
            r.base = t.base;
            r.bytes = t.bytes;
            r.touch(t);
            merged.push_back(r);
        }
    }

    // Stride coalescing over the merged, base-sorted regions.
    std::vector<Discovered> out;
    std::size_t i = 0;
    while (i < merged.size()) {
        std::size_t run = 1;
        if (i + 1 < merged.size() &&
            merged[i + 1].bytes == merged[i].bytes) {
            std::uint64_t stride = merged[i + 1].base - merged[i].base;
            if (stride > merged[i].bytes &&
                stride < 2 * merged[i].bytes) {
                while (i + run < merged.size() &&
                       merged[i + run].bytes == merged[i].bytes &&
                       merged[i + run].base ==
                           merged[i].base + run * stride) {
                    ++run;
                }
            }
        }
        if (run >= 3) {
            Discovered r = merged[i];
            for (std::size_t k = 1; k < run; ++k) {
                const Discovered &m = merged[i + k];
                r.bytes = m.base + m.bytes - r.base;
                if (m.firstTask < r.firstTask ||
                    (m.firstTask == r.firstTask &&
                     m.firstOperand < r.firstOperand)) {
                    r.firstTask = m.firstTask;
                    r.firstOperand = m.firstOperand;
                }
            }
            out.push_back(r);
            i += run;
        } else {
            out.push_back(merged[i]);
            ++i;
        }
    }
    return out;
}

/**
 * Lay discovered regions out in the synthetic target range: placement
 * order is first-touch trace position — a property of the trace's
 * *structure*, identical no matter where the source allocator placed
 * the regions ((firstTask, firstOperand) is unique per region, so the
 * order is total) — or a seeded shuffle of it.
 */
std::vector<RelocatedRegion>
placeRegions(const std::vector<Discovered> &regions,
             const RelocationOptions &opts)
{
    std::vector<std::size_t> order(regions.size());
    for (std::size_t i = 0; i < order.size(); ++i)
        order[i] = i;
    std::sort(order.begin(), order.end(),
              [&](std::size_t a, std::size_t b) {
                  if (regions[a].firstTask != regions[b].firstTask)
                      return regions[a].firstTask < regions[b].firstTask;
                  return regions[a].firstOperand <
                      regions[b].firstOperand;
              });
    if (opts.layoutSeed != 0) {
        Rng rng(opts.layoutSeed);
        for (std::size_t i = order.size(); i > 1; --i) {
            std::size_t j = static_cast<std::size_t>(rng.range(i));
            std::swap(order[i - 1], order[j]);
        }
    }

    std::uint64_t align = std::max<std::uint64_t>(opts.alignment, 1);
    AddressSpace space(opts.targetBase, align);
    std::vector<RelocatedRegion> placed(regions.size());
    for (std::size_t rank = 0; rank < order.size(); ++rank) {
        const Discovered &r = regions[order[rank]];
        RelocatedRegion p;
        p.sourceBase = r.base;
        p.targetBase = space.alloc(r.bytes);
        p.bytes = r.bytes;
        p.firstTouchTask = r.firstTask;
        placed[order[rank]] = p;
    }
    std::sort(placed.begin(), placed.end(),
              [](const RelocatedRegion &a, const RelocatedRegion &b) {
                  return a.sourceBase < b.sourceBase;
              });
    return placed;
}

} // namespace

const RelocatedRegion *
RelocationMap::find(std::uint64_t addr) const
{
    auto it = std::upper_bound(
        _regions.begin(), _regions.end(), addr,
        [](std::uint64_t a, const RelocatedRegion &r) {
            return a < r.sourceBase;
        });
    if (it == _regions.begin())
        return nullptr;
    const RelocatedRegion &r = *(it - 1);
    return addr < r.sourceBase + r.bytes ? &r : nullptr;
}

TaskTrace
RelocationMap::apply(const TaskTrace &trace) const
{
    TaskTrace out = trace;
    for (TraceTask &task : out.tasks) {
        for (TraceOperand &op : task.operands) {
            if (!isMemoryOperand(op.dir))
                continue;
            const RelocatedRegion *r = find(op.addr);
            if (!r) {
                fatal("address %llx is outside every relocated region",
                      (unsigned long long)op.addr);
            }
            op.addr = r->targetBase + (op.addr - r->sourceBase);
        }
    }
    return out;
}

RelocationMap
buildRelocationMap(const TaskTrace &trace, const RelocationOptions &opts,
                   const std::vector<MemRegion> &captured)
{
    std::vector<Touch> touches = collectTouches(trace);
    std::vector<Discovered> regions = captured.empty()
        ? regionsByInference(std::move(touches))
        : regionsFromRegistry(touches, captured);
    RelocationMap map;
    map._regions = placeRegions(regions, opts);
    return map;
}

TaskTrace
relocateTrace(const TaskTrace &trace, const RelocationOptions &opts,
              const std::vector<MemRegion> &captured)
{
    return buildRelocationMap(trace, opts, captured).apply(trace);
}

bool
sameAliasing(const TaskTrace &a, const TaskTrace &b)
{
    struct Interval
    {
        std::uint64_t base;
        Bytes bytes;
    };
    auto gather = [](const TaskTrace &trace) {
        std::vector<Interval> out;
        for (const TraceTask &task : trace.tasks)
            for (const TraceOperand &op : task.operands)
                if (isMemoryOperand(op.dir))
                    out.push_back(
                        Interval{op.addr, std::max<Bytes>(op.bytes, 1)});
        return out;
    };
    std::vector<Interval> ia = gather(a);
    std::vector<Interval> ib = gather(b);
    if (ia.size() != ib.size())
        return false;
    for (std::size_t i = 0; i < ia.size(); ++i)
        if (ia[i].bytes != ib[i].bytes)
            return false;

    auto overlaps = [](const Interval &x, const Interval &y) {
        return x.base < y.base + y.bytes && y.base < x.base + x.bytes;
    };
    for (std::size_t i = 0; i < ia.size(); ++i) {
        for (std::size_t j = i + 1; j < ia.size(); ++j) {
            if (overlaps(ia[i], ia[j]) != overlaps(ib[i], ib[j]))
                return false;
            if ((ia[i].base == ia[j].base) != (ib[i].base == ib[j].base))
                return false;
        }
    }
    return true;
}

} // namespace tss
