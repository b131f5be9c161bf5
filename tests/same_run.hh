/**
 * @file
 * The determinism comparator the engine, fuzz and tracer tests share:
 * two runs are the same simulation when they agree on the schedule
 * (makespan, decode rate, start order, core of every task) and on the
 * whole metrics snapshot, the engine's event and apply digests
 * included.
 */

#ifndef TSS_TESTS_SAME_RUN_HH
#define TSS_TESTS_SAME_RUN_HH

#include <string>

#include <gtest/gtest.h>

#include "core/system.hh"

namespace tss
{

inline void
expectSameRun(const RunResult &a, const RunResult &b,
              const std::string &what)
{
    EXPECT_EQ(a.makespan, b.makespan) << what;
    EXPECT_EQ(a.decodeRateCycles, b.decodeRateCycles) << what;
    EXPECT_EQ(a.startOrder, b.startOrder) << what;
    EXPECT_EQ(a.coreOf, b.coreOf) << what;
    // The JSON diff names a differing metric; == also compares gauge
    // bits past the JSON's nine significant digits.
    EXPECT_EQ(a.metrics.toJson(), b.metrics.toJson()) << what;
    EXPECT_TRUE(a.metrics == b.metrics) << what;
}

} // namespace tss

#endif // TSS_TESTS_SAME_RUN_HH
