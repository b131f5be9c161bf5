/**
 * @file
 * Unified metrics registry: the one home of a simulated run's
 * statistics. A System binds its named metrics once — counters,
 * gauges, histograms — as provider callables over the modules' own
 * stats fields; nothing at a call site changes and the hot path pays
 * nothing. snapshot() polls every provider into an immutable,
 * name-sorted Snapshot with deterministic JSON export, and every
 * report (`--metrics-out`, `pipeline_explorer --modstats`, the
 * benches) formats that snapshot instead of reading the modules.
 *
 * Naming scheme (dot-separated, lowercase):
 *   frontend.<stat>            pipeline-wide decode statistics
 *   slice.<n>.<stat>           per directory-slice (ORT/OVT)
 *   module.<name>.<stat>       per frontend station (TRS, ORT, OVT,
 *                              scheduler): packets, busy_cycles,
 *                              queue_avg
 *   noc.<stat>                 network aggregate and link histogram
 *   engine.<stat>              event-engine counters and digests
 *   core.<n>.<stat>, dma.<stat>, obs.<stat>
 */

#ifndef TSS_OBS_METRICS_HH
#define TSS_OBS_METRICS_HH

#include <cstdint>
#include <functional>
#include <iosfwd>
#include <map>
#include <string>
#include <vector>

namespace tss
{
namespace obs
{

/**
 * A polled histogram: counts[i] holds samples in
 * [lowerBounds[i], lowerBounds[i + 1]), the last bucket open-ended.
 */
struct HistogramSnapshot
{
    std::vector<std::uint64_t> lowerBounds;
    std::vector<std::uint64_t> counts;

    bool operator==(const HistogramSnapshot &) const = default;

    std::uint64_t
    totalCount() const
    {
        std::uint64_t n = 0;
        for (std::uint64_t c : counts)
            n += c;
        return n;
    }
};

/** Immutable poll of a Registry; name-sorted, JSON-exportable. */
struct Snapshot
{
    std::map<std::string, std::uint64_t> counters;
    std::map<std::string, double> gauges;
    std::map<std::string, HistogramSnapshot> histograms;

    /// @name Lookups. Without a fallback a metric that is not bound
    /// panics naming it, so a misspelt name never reads as 0.
    /// @{
    std::uint64_t counter(const std::string &name) const;
    std::uint64_t counter(const std::string &name,
                          std::uint64_t fallback) const;
    double gauge(const std::string &name) const;
    double gauge(const std::string &name, double fallback) const;
    bool hasCounter(const std::string &name) const;
    /// @}

    bool operator==(const Snapshot &) const = default;

    /** Deterministic JSON: three name-sorted sections. */
    void writeJson(std::ostream &os) const;
    std::string toJson() const;
};

/**
 * The registry: a named set of metric providers. Registration order
 * is irrelevant (snapshots sort by name); duplicate names keep the
 * latest binding.
 */
class Registry
{
  public:
    using CounterFn = std::function<std::uint64_t()>;
    using GaugeFn = std::function<double()>;
    using HistogramFn = std::function<HistogramSnapshot()>;

    void addCounter(const std::string &name, CounterFn fn);
    void addGauge(const std::string &name, GaugeFn fn);
    void addHistogram(const std::string &name, HistogramFn fn);

    std::size_t size() const;
    Snapshot snapshot() const;

  private:
    std::map<std::string, CounterFn> counters;
    std::map<std::string, GaugeFn> gauges;
    std::map<std::string, HistogramFn> histograms;
};

/** JSON-format a double: integral values print as integers. */
std::string formatMetricValue(double v);

} // namespace obs
} // namespace tss

#endif // TSS_OBS_METRICS_HH
