/**
 * @file
 * Latency/throughput accounting for tss-serve. Two kinds of numbers
 * leave the service, and the split decides what CI may gate on:
 *
 *  - *Simulated* makespans (cycles) are a pure function of (program,
 *    machine config, tenant carve base); their percentiles are
 *    deterministic and gate hard in compare_bench.py --kind serve.
 *  - *Wall-clock* latencies and tasks/sec depend on the host and on
 *    open-loop arrival timing; they are recorded for operators but
 *    only ever compared advisorily.
 */

#ifndef TSS_SERVE_METRICS_HH
#define TSS_SERVE_METRICS_HH

#include <cstddef>

#include "sim/stats.hh"

namespace tss::serve
{

/** Order statistics of one sample set. */
struct PercentileSummary
{
    std::size_t count = 0;
    double p50 = 0;
    double p95 = 0;
    double p99 = 0;
    double mean = 0;
    double max = 0;
};

/**
 * Summarize @p samples. Percentiles use the nearest-rank rule
 * (Distribution::nearestRank: ceil(q * n), 1-indexed), so a summary
 * over integral samples (simulated cycles) is itself integral —
 * byte-identical across runs and therefore CI-gateable.
 */
PercentileSummary summarize(const Distribution &samples);

} // namespace tss::serve

#endif // TSS_SERVE_METRICS_HH
