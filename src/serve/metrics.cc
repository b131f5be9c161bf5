#include "metrics.hh"

namespace tss::serve
{

PercentileSummary
summarize(const Distribution &samples)
{
    PercentileSummary s;
    s.count = samples.count();
    s.p50 = samples.nearestRank(0.50);
    s.p95 = samples.nearestRank(0.95);
    s.p99 = samples.nearestRank(0.99);
    s.max = samples.max();
    s.mean = samples.mean();
    return s;
}

} // namespace tss::serve
