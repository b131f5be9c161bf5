/**
 * @file
 * Tests for the experiment driver: table printing, CLI parsing
 * (including the fatal rejection of malformed numeric flags), the
 * paper configuration preset, and workload lookup.
 */

#include <gtest/gtest.h>

#include <sstream>
#include <string>

#include "driver/cli.hh"
#include "driver/experiment.hh"
#include "driver/run_options.hh"
#include "driver/table.hh"

namespace tss
{
namespace
{

TEST(TablePrinter, AlignsColumns)
{
    TablePrinter table({"A", "LongHeader"});
    table.addRow({"x", "1"});
    table.addRow({"longcell", "2"});
    std::ostringstream os;
    table.print(os);
    std::string out = os.str();
    EXPECT_NE(out.find("A"), std::string::npos);
    EXPECT_NE(out.find("longcell"), std::string::npos);
    EXPECT_NE(out.find("----"), std::string::npos);
}

TEST(TablePrinter, CsvOutput)
{
    TablePrinter table({"a", "b"});
    table.addRow({"1", "2"});
    std::ostringstream os;
    table.printCsv(os);
    EXPECT_EQ(os.str(), "a,b\n1,2\n");
}

TEST(TablePrinter, NumberFormatting)
{
    EXPECT_EQ(TablePrinter::num(3.14159, 2), "3.14");
    EXPECT_EQ(TablePrinter::num(3.6, 0), "4");
    EXPECT_EQ(TablePrinter::num(std::uint64_t(42)), "42");
}

TEST(CliArgs, ParsesFlagsAndValues)
{
    const char *argv[] = {"prog", "--quick", "--scale=0.5",
                          "--cores=128", "--name=H264"};
    CliArgs args(5, const_cast<char **>(argv));
    EXPECT_TRUE(args.has("quick"));
    EXPECT_FALSE(args.has("full"));
    EXPECT_DOUBLE_EQ(args.getDouble("scale", 1.0), 0.5);
    EXPECT_EQ(args.getLong("cores", 0), 128);
    EXPECT_EQ(args.get("name", ""), "H264");
    EXPECT_EQ(args.get("missing", "dflt"), "dflt");
}

TEST(CliArgs, ParsesWholeNumericValues)
{
    const char *argv[] = {"prog", "--n=4294967295", "--seed=-3",
                          "--scale=1e-2", "--flag"};
    CliArgs args(5, const_cast<char **>(argv));
    EXPECT_EQ(args.getUnsigned("n", 0), 4294967295u);
    EXPECT_EQ(args.getLong("seed", 0), -3);
    EXPECT_DOUBLE_EQ(args.getDouble("scale", 1.0), 0.01);
    EXPECT_EQ(args.getUnsigned("flag", 0), 1u); // a bare flag reads 1
    EXPECT_EQ(args.getUnsigned("missing", 7), 7u);
}

/** RunOptions::parse over a command line holding just @p flag. */
RunOptions
parseOne(const std::string &flag)
{
    std::string arg = flag;
    char *argv[] = {const_cast<char *>("prog"), arg.data()};
    return RunOptions::parse(CliArgs(2, argv));
}

TEST(CliArgsDeathTest, PipesBeyondUnsignedIsFatal)
{
    // Wrapped to unsigned this would read 0 pipelines, and the
    // simulator would divide by the pipeline count.
    ::testing::FLAGS_gtest_death_test_style = "threadsafe";
    EXPECT_DEATH(parseOne("--pipes=4294967296"),
                 "--pipes: '4294967296' is out of range");
}

TEST(CliArgsDeathTest, SimThreadsBeyondUnsignedIsFatal)
{
    // Wrapped to unsigned this would read 2 threads.
    ::testing::FLAGS_gtest_death_test_style = "threadsafe";
    EXPECT_DEATH(parseOne("--sim-threads=4294967298"),
                 "--sim-threads: '4294967298' is out of range");
}

TEST(CliArgsDeathTest, TrailingCharactersAreFatal)
{
    // A prefix parse would read 32 and drop the typo.
    ::testing::FLAGS_gtest_death_test_style = "threadsafe";
    EXPECT_DEATH(parseOne("--cores=32x"), "--cores: '32x' is not a number");
}

TEST(CliArgsDeathTest, NonNumericSeedIsFatal)
{
    // A prefix parse would seed 0.
    ::testing::FLAGS_gtest_death_test_style = "threadsafe";
    EXPECT_DEATH(parseOne("--placement-seed=abc"),
                 "--placement-seed: 'abc' is not a number");
}

TEST(CliArgsDeathTest, MalformedBenchFlagsAreFatal)
{
    // The same rules cover every numeric flag a binary reads itself.
    ::testing::FLAGS_gtest_death_test_style = "threadsafe";
    const char *argv[] = {"prog", "--tenants=-1", "--scale=0.5x",
                          "--seed="};
    CliArgs args(4, const_cast<char **>(argv));
    EXPECT_DEATH(args.getUnsigned("tenants", 2),
                 "--tenants: '-1' is out of range");
    EXPECT_DEATH(args.getDouble("scale", 1.0),
                 "--scale: '0.5x' is not a number");
    EXPECT_DEATH(args.getLong("seed", 1), "--seed: '' is not a number");
}

TEST(CliArgs, ScalePresetPrecedence)
{
    const char *quick[] = {"prog", "--quick"};
    EXPECT_DOUBLE_EQ(CliArgs(2, const_cast<char **>(quick))
                         .scale(0.1, 1.0, 0.4), 0.1);
    const char *full[] = {"prog", "--full"};
    EXPECT_DOUBLE_EQ(CliArgs(2, const_cast<char **>(full))
                         .scale(0.1, 1.0, 0.4), 1.0);
    const char *expl[] = {"prog", "--quick", "--scale=0.7"};
    EXPECT_DOUBLE_EQ(CliArgs(3, const_cast<char **>(expl))
                         .scale(0.1, 1.0, 0.4), 0.7);
    const char *none[] = {"prog"};
    EXPECT_DOUBLE_EQ(CliArgs(1, const_cast<char **>(none))
                         .scale(0.1, 1.0, 0.4), 0.4);
}

TEST(Experiment, PaperConfigMatchesSectionSix)
{
    PipelineConfig cfg = paperConfig(256);
    EXPECT_EQ(cfg.numTrs, 8u);
    EXPECT_EQ(cfg.numOrt, 2u);
    EXPECT_EQ(cfg.trsTotalBytes, 6u * 1024 * 1024);
    EXPECT_EQ(cfg.ortTotalBytes, 512u * 1024);
    EXPECT_EQ(cfg.numCores, 256u);
    // 6 MB of 128 B blocks: 49152 total - the paper's "12,000-50,000
    // in-flight tasks" window.
    EXPECT_EQ(cfg.blocksPerTrs() * cfg.numTrs, 49152u);
}

TEST(Experiment, MakeWorkloadByName)
{
    TaskTrace trace = makeWorkload("FFT", 0.05);
    EXPECT_EQ(trace.name, "FFT");
    EXPECT_GT(trace.size(), 50u);
}

TEST(Experiment, RunHardwareAndSoftwareOnSameTrace)
{
    TaskTrace trace = makeWorkload("MatMul", 0.03);
    PipelineConfig cfg = paperConfig(32);
    RunResult hw = runHardware(cfg, trace);
    SwRuntimeConfig sw_cfg;
    sw_cfg.numCores = 32;
    SwRunResult sw = runSoftware(sw_cfg, trace);
    EXPECT_EQ(hw.numTasks, trace.size());
    EXPECT_EQ(sw.numTasks, trace.size());
    EXPECT_GT(hw.speedup, 1.0);
    EXPECT_GT(sw.speedup, 1.0);
}

} // namespace
} // namespace tss
