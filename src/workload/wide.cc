/**
 * @file
 * The wide-task shared-data program of the NoC-contention and
 * simulator-speed benches (fig17, fig18).
 */

#include <vector>

#include "sim/random.hh"
#include "workload/address_space.hh"
#include "workload/builder.hh"
#include "workload/workload.hh"

namespace tss
{

TaskTrace
genWideShared(unsigned tasks, std::uint64_t seed)
{
    TaskTrace trace;
    trace.name = "wide";
    trace.addKernel("wide");
    TaskBuilder b(trace);
    AddressSpace mem(0x40000000);
    std::vector<std::uint64_t> objs;
    for (unsigned i = 0; i < 96; ++i)
        objs.push_back(mem.alloc(512));

    Rng rng(seed);
    constexpr unsigned reads = 9, writes = 3;
    for (unsigned t = 0; t < tasks; ++t) {
        std::vector<unsigned> picks;
        while (picks.size() < reads + writes) {
            auto cand = static_cast<unsigned>(rng.range(objs.size()));
            bool dup = false;
            for (unsigned p : picks)
                dup |= p == cand;
            if (!dup)
                picks.push_back(cand);
        }
        b.begin(0, static_cast<Cycle>(rng.rangeInclusive(300, 600)));
        for (unsigned i = 0; i < reads; ++i)
            b.in(objs[picks[i]], 512);
        for (unsigned i = 0; i < writes; ++i)
            b.out(objs[picks[reads + i]], 512);
        b.commit();
    }
    return trace;
}

} // namespace tss
