#include "obs/metrics.hh"

#include <cmath>
#include <cstdio>
#include <ostream>
#include <sstream>

#include "sim/logging.hh"

namespace tss
{
namespace obs
{

namespace
{

/** The value bound to @p name; panics naming it when there is none. */
template <typename Map>
typename Map::mapped_type
lookup(const Map &metrics, const std::string &name, const char *kind)
{
    auto it = metrics.find(name);
    if (it == metrics.end())
        panic("no %s named '%s' in the metrics snapshot", kind,
              name.c_str());
    return it->second;
}

} // namespace

std::uint64_t
Snapshot::counter(const std::string &name) const
{
    return lookup(counters, name, "counter");
}

std::uint64_t
Snapshot::counter(const std::string &name, std::uint64_t fallback) const
{
    auto it = counters.find(name);
    return it == counters.end() ? fallback : it->second;
}

double
Snapshot::gauge(const std::string &name) const
{
    return lookup(gauges, name, "gauge");
}

double
Snapshot::gauge(const std::string &name, double fallback) const
{
    auto it = gauges.find(name);
    return it == gauges.end() ? fallback : it->second;
}

bool
Snapshot::hasCounter(const std::string &name) const
{
    return counters.count(name) != 0;
}

std::string
formatMetricValue(double v)
{
    if (std::isfinite(v) && v == std::floor(v) &&
        std::abs(v) < 9007199254740992.0) {
        char buf[32];
        std::snprintf(buf, sizeof(buf), "%.0f", v);
        return buf;
    }
    char buf[48];
    std::snprintf(buf, sizeof(buf), "%.9g", v);
    return buf;
}

void
Snapshot::writeJson(std::ostream &os) const
{
    os << "{\n";
    os << "  \"counters\": {";
    bool first = true;
    for (const auto &kv : counters) {
        os << (first ? "\n" : ",\n") << "    \"" << kv.first
           << "\": " << kv.second;
        first = false;
    }
    os << (first ? "" : "\n  ") << "},\n";

    os << "  \"gauges\": {";
    first = true;
    for (const auto &kv : gauges) {
        os << (first ? "\n" : ",\n") << "    \"" << kv.first
           << "\": " << formatMetricValue(kv.second);
        first = false;
    }
    os << (first ? "" : "\n  ") << "},\n";

    os << "  \"histograms\": {";
    first = true;
    for (const auto &kv : histograms) {
        os << (first ? "\n" : ",\n") << "    \"" << kv.first
           << "\": {\"lower_bounds\": [";
        const HistogramSnapshot &h = kv.second;
        for (std::size_t i = 0; i < h.lowerBounds.size(); ++i)
            os << (i ? ", " : "") << h.lowerBounds[i];
        os << "], \"counts\": [";
        for (std::size_t i = 0; i < h.counts.size(); ++i)
            os << (i ? ", " : "") << h.counts[i];
        os << "]}";
        first = false;
    }
    os << (first ? "" : "\n  ") << "}\n";
    os << "}";
}

std::string
Snapshot::toJson() const
{
    std::ostringstream os;
    writeJson(os);
    os << "\n";
    return os.str();
}

void
Registry::addCounter(const std::string &name, CounterFn fn)
{
    counters[name] = std::move(fn);
}

void
Registry::addGauge(const std::string &name, GaugeFn fn)
{
    gauges[name] = std::move(fn);
}

void
Registry::addHistogram(const std::string &name, HistogramFn fn)
{
    histograms[name] = std::move(fn);
}

std::size_t
Registry::size() const
{
    return counters.size() + gauges.size() + histograms.size();
}

Snapshot
Registry::snapshot() const
{
    Snapshot s;
    for (const auto &kv : counters)
        s.counters[kv.first] = kv.second();
    for (const auto &kv : gauges)
        s.gauges[kv.first] = kv.second();
    for (const auto &kv : histograms)
        s.histograms[kv.first] = kv.second();
    return s;
}

} // namespace obs
} // namespace tss
