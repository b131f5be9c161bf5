/**
 * @file
 * Tests for the trace layer: record helpers, statistics (the Table I
 * quantities), and text serialization round trips.
 */

#include <gtest/gtest.h>

#include <sstream>

#include "trace/task_trace.hh"
#include "trace/trace_io.hh"
#include "trace/trace_stats.hh"

namespace tss
{
namespace
{

TaskTrace
sampleTrace()
{
    TaskTrace trace;
    trace.name = "sample";
    auto k0 = trace.addKernel("alpha");
    auto k1 = trace.addKernel("beta");

    TraceTask a;
    a.kernel = k0;
    a.runtime = defaultClock.usToCycles(10.0);
    a.operands = {{Dir::In, 0x1000, 8192},
                  {Dir::Out, 0x2000, 4096},
                  {Dir::Scalar, 0, 8}};
    trace.tasks.push_back(a);

    TraceTask b;
    b.kernel = k1;
    b.runtime = defaultClock.usToCycles(30.0);
    b.operands = {{Dir::InOut, 0x2000, 4096}};
    trace.tasks.push_back(b);

    TraceTask c;
    c.kernel = k1;
    c.runtime = defaultClock.usToCycles(20.0);
    c.operands = {{Dir::In, 0x2000, 4096}};
    trace.tasks.push_back(c);
    return trace;
}

TEST(TaskTrace, OperandHelpers)
{
    TaskTrace trace = sampleTrace();
    const TraceTask &a = trace.tasks[0];
    EXPECT_EQ(a.numMemoryOperands(), 2u); // scalar excluded
    EXPECT_EQ(a.dataBytes(), 8192u + 4096u);
    EXPECT_EQ(trace.sequentialCycles(),
              defaultClock.usToCycles(60.0));
}

TEST(TaskTrace, DirPredicates)
{
    EXPECT_TRUE(readsObject(Dir::In));
    EXPECT_TRUE(readsObject(Dir::InOut));
    EXPECT_FALSE(readsObject(Dir::Out));
    EXPECT_TRUE(writesObject(Dir::Out));
    EXPECT_TRUE(writesObject(Dir::InOut));
    EXPECT_FALSE(writesObject(Dir::In));
    EXPECT_FALSE(isMemoryOperand(Dir::Scalar));
    EXPECT_STREQ(dirName(Dir::InOut), "inout");
}

TEST(TraceStats, TableOneQuantities)
{
    TaskTrace trace = sampleTrace();
    TraceStats stats = TraceStats::compute(trace);
    EXPECT_EQ(stats.numTasks, 3u);
    EXPECT_DOUBLE_EQ(stats.minRuntimeUs, 10.0);
    EXPECT_DOUBLE_EQ(stats.medRuntimeUs, 20.0);
    EXPECT_DOUBLE_EQ(stats.avgRuntimeUs, 20.0);
    // Decode limit: min runtime / P.
    EXPECT_NEAR(stats.decodeRateLimitNs(256), 10000.0 / 256, 0.5);
    EXPECT_NEAR(stats.decodeRateLimitNs(128), 10000.0 / 128, 0.5);
    EXPECT_NEAR(stats.avgDataKB, (12.0 + 4.0 + 4.0) / 3, 0.01);
    EXPECT_NEAR(stats.avgOperands, (2.0 + 1.0 + 1.0) / 3, 0.01);
}

TEST(TraceIo, RoundTrip)
{
    TaskTrace trace = sampleTrace();
    std::stringstream ss;
    writeTrace(ss, trace);
    TaskTrace copy = readTrace(ss);

    EXPECT_EQ(copy.name, trace.name);
    ASSERT_EQ(copy.kernelNames.size(), trace.kernelNames.size());
    EXPECT_EQ(copy.kernelNames[1], "beta");
    ASSERT_EQ(copy.size(), trace.size());
    for (std::size_t t = 0; t < trace.size(); ++t) {
        EXPECT_EQ(copy.tasks[t].kernel, trace.tasks[t].kernel);
        EXPECT_EQ(copy.tasks[t].runtime, trace.tasks[t].runtime);
        ASSERT_EQ(copy.tasks[t].operands.size(),
                  trace.tasks[t].operands.size());
        for (std::size_t i = 0; i < trace.tasks[t].operands.size();
             ++i) {
            EXPECT_EQ(copy.tasks[t].operands[i].dir,
                      trace.tasks[t].operands[i].dir);
            EXPECT_EQ(copy.tasks[t].operands[i].addr,
                      trace.tasks[t].operands[i].addr);
            EXPECT_EQ(copy.tasks[t].operands[i].bytes,
                      trace.tasks[t].operands[i].bytes);
        }
    }
}

TEST(TraceIo, SkipsCommentsAndBlankLines)
{
    std::stringstream ss;
    ss << "# a comment\n\ntrace mini\nkernel 0 k\n"
       << "task 0 500 1\nop inout 1a2b 256\n";
    TaskTrace trace = readTrace(ss);
    EXPECT_EQ(trace.name, "mini");
    ASSERT_EQ(trace.size(), 1u);
    EXPECT_EQ(trace.tasks[0].operands[0].addr, 0x1a2bu);
    EXPECT_EQ(trace.tasks[0].operands[0].dir, Dir::InOut);
}

/** readTrace over @p text. */
TaskTrace
readText(const std::string &text)
{
    std::istringstream is(text);
    return readTrace(is);
}

TEST(TraceIoDeathTest, RejectsATaskOfAnUndeclaredKernel)
{
    ::testing::FLAGS_gtest_death_test_style = "threadsafe";
    EXPECT_EXIT(readText("kernel 0 k\ntask 3 100 0\n"),
                testing::ExitedWithCode(1),
                "line 2: task names undeclared kernel 3");
}

TEST(TraceIoDeathTest, RejectsANonHexAddress)
{
    ::testing::FLAGS_gtest_death_test_style = "threadsafe";
    EXPECT_EXIT(readText("kernel 0 k\ntask 0 100 1\nop in zz 64\n"),
                testing::ExitedWithCode(1), "line 3: expected 'op ");
}

TEST(TraceIoDeathTest, RejectsANonNumericSize)
{
    ::testing::FLAGS_gtest_death_test_style = "threadsafe";
    EXPECT_EXIT(readText("kernel 0 k\ntask 0 100 1\nop in 40 sixty\n"),
                testing::ExitedWithCode(1), "line 3: expected 'op ");
}

TEST(TraceIo, ParseErrorsNameTheLine)
{
    struct Case
    {
        const char *text;
        const char *error;
    };
    const Case cases[] = {
        {"kernel 0 k\ntask 0 1 2\nop in 40 64\n",
         "line 2: trace ends 1 op line(s) short of this task"},
        {"kernel 0 k\ntask 0 1 2\nop in 40 64\ntask 0 1 0\n",
         "line 4: expected 1 more op line(s) for the task at line 2"},
        {"kernel 0 k\ntask 0 1 18446744073709551615\n",
         "line 2: trace ends 18446744073709551615 op line(s) short"},
        {"kernel 1 k\n", "line 1: kernel id 1 out of sequence"},
        {"kernel 0 k\ntask 0 -1 0\n", "line 2: expected 'task "},
        {"kernel 0 k\ntask 0 1 1\nop in 40 64 extra\n",
         "line 3: expected 'op "},
        {"op in 40 64\n", "line 1: op line outside a task"},
        {"trace a b\n", "line 1: expected 'trace [<name>]'"},
        {"bogus 1 2 3\n", "line 1: unknown tag 'bogus'"},
    };
    for (const Case &c : cases) {
        TaskTrace trace;
        std::string error;
        EXPECT_FALSE(parseTraceText(c.text, trace, &error)) << c.text;
        EXPECT_EQ(error.rfind(c.error, 0), 0u)
            << c.text << " -> " << error;
    }
}

TEST(TraceStats, EmptyTraceIsSafe)
{
    TaskTrace trace;
    trace.name = "empty";
    TraceStats stats = TraceStats::compute(trace);
    EXPECT_EQ(stats.numTasks, 0u);
    EXPECT_DOUBLE_EQ(stats.avgRuntimeUs, 0.0);
}

} // namespace
} // namespace tss
