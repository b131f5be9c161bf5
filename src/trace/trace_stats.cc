#include "trace_stats.hh"

#include "sim/stats.hh"

namespace tss
{

double
TraceStats::decodeRateLimitNs(unsigned processors) const
{
    if (processors == 0)
        return 0;
    return minRuntimeUs * 1000.0 / static_cast<double>(processors);
}

TraceStats
TraceStats::compute(const TaskTrace &trace, const Clock &clock)
{
    TraceStats stats;
    stats.name = trace.name;
    stats.numTasks = trace.size();

    Distribution data_kb;
    Distribution runtime_us;
    Distribution operands;
    for (const auto &task : trace.tasks) {
        data_kb.sample(static_cast<double>(task.dataBytes()) / 1024.0);
        runtime_us.sample(clock.cyclesToUs(task.runtime));
        operands.sample(task.numMemoryOperands());
    }

    stats.avgDataKB = data_kb.mean();
    stats.minRuntimeUs = runtime_us.min();
    stats.medRuntimeUs = runtime_us.nearestRank(0.5);
    stats.avgRuntimeUs = runtime_us.mean();
    stats.avgOperands = operands.mean();
    stats.maxOperands = operands.max();
    return stats;
}

} // namespace tss
