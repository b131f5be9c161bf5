#include "stats.hh"

#include <utility>

namespace tss
{

void
Distribution::grow()
{
    std::vector<Bucket> old = std::exchange(table, {});
    tableLog2 = old.empty() ? 4 : tableLog2 + 1;
    table.resize(std::size_t(1) << tableLog2);
    const std::size_t mask = table.size() - 1;
    for (const Bucket &b : old) {
        if (b.count == 0)
            continue;
        std::size_t i = slotOf(b.bits);
        while (table[i].count != 0)
            i = (i + 1) & mask;
        table[i] = b;
    }
}

const std::vector<Distribution::Rank> &
Distribution::sorted() const
{
    if (!viewStale)
        return view;
    view.clear();
    for (const Bucket &b : table) {
        if (b.count != 0)
            view.push_back({std::bit_cast<double>(b.bits), b.count});
    }
    std::sort(view.begin(), view.end(),
              [](const Rank &a, const Rank &b) { return a.value < b.value; });
    std::uint64_t end = 0;
    for (Rank &r : view)
        r.end = end += r.end;
    viewStale = false;
    return view;
}

double
Distribution::at(std::uint64_t i) const
{
    const auto &v = sorted();
    auto it = std::upper_bound(
        v.begin(), v.end(), i,
        [](std::uint64_t rank, const Rank &r) { return rank < r.end; });
    return it->value;
}

double
Distribution::sum() const
{
    if (integral)
        return static_cast<double>(intTotal);
    // Replay the samples in ascending order: the same additions, in
    // the same order, as summing the sorted sample list.
    double s = 0;
    std::uint64_t done = 0;
    for (const Rank &r : sorted()) {
        for (; done < r.end; ++done)
            s += r.value;
    }
    return s;
}

double
Distribution::nearestRank(double q) const
{
    if (total == 0)
        return 0;
    auto rank = static_cast<std::uint64_t>(
        std::ceil(q * static_cast<double>(total)));
    return at(std::clamp<std::uint64_t>(rank, 1, total) - 1);
}

} // namespace tss
