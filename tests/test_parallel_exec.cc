/**
 * @file
 * The differential oracle for real parallel execution: for every
 * real-kernel workload, ParallelExecutor must produce final memory
 * bit-identical to sequential execution — across thread counts,
 * seeds, and both drive modes (dataflow graph mode and simulated-
 * schedule replay mode). Plus the replay contract itself: simulating
 * the same trace twice yields the identical scheduling decision, and
 * the work-stealing deque's owner/thief handshake under contention.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <numeric>
#include <string>
#include <thread>
#include <vector>

#include "core/system.hh"
#include "runtime/parallel_exec.hh"
#include "runtime/work_deque.hh"
#include "workload/starss_programs.hh"

namespace tss
{
namespace
{

using starss::ParallelExecutor;
using starss::RealProgram;
using starss::RealProgramInfo;
using starss::realPrograms;

std::vector<std::uint8_t>
sequentialSnapshot(const RealProgramInfo &info, std::uint64_t seed)
{
    auto program = info.make(seed);
    program->context().runSequential();
    return program->snapshot();
}

class RealWorkloads : public ::testing::TestWithParam<const char *>
{
  protected:
    /// Fails the test (fatally, via SetUp) when the parameterized
    /// name is missing from the registry instead of dereferencing
    /// null later.
    void
    SetUp() override
    {
        found = starss::findRealProgram(GetParam());
        ASSERT_NE(found, nullptr)
            << "workload '" << GetParam() << "' is not registered";
    }

    const RealProgramInfo &info() const { return *found; }

  private:
    const RealProgramInfo *found = nullptr;
};

TEST_P(RealWorkloads, GraphModeMatchesSequentialBitForBit)
{
    for (std::uint64_t seed : {1ull, 2ull, 7ull}) {
        std::vector<std::uint8_t> reference =
            sequentialSnapshot(info(), seed);
        for (unsigned threads : {1u, 2u, 4u, 16u}) {
            auto program = info().make(seed);
            ParallelExecutor exec(program->context());
            starss::ParallelRunStats stats = exec.runGraph(threads);
            EXPECT_EQ(stats.threads, threads);
            EXPECT_EQ(program->snapshot(), reference)
                << info().name << " seed " << seed << " with "
                << threads << " threads diverged from sequential";
        }
    }
}

TEST_P(RealWorkloads, ReplayModeMatchesSequentialBitForBit)
{
    for (std::uint64_t seed : {1ull, 2ull}) {
        std::vector<std::uint8_t> reference =
            sequentialSnapshot(info(), seed);
        for (unsigned cores : {1u, 2u, 4u, 16u}) {
            auto program = info().make(seed);
            PipelineConfig cfg;
            cfg.numCores = cores;
            auto pipeline = SystemBuilder(cfg, program->context().trace()).build();
            RunResult decision = pipeline->run();

            ParallelExecutor exec(program->context());
            starss::ParallelRunStats stats = exec.runReplay(decision);
            EXPECT_LE(stats.threads, cores);
            EXPECT_GE(stats.threads, 1u);
            EXPECT_EQ(program->snapshot(), reference)
                << info().name << " seed " << seed << " replayed on "
                << cores << " cores diverged from sequential";
        }
    }
}

TEST_P(RealWorkloads, GraphAndOneCoreReplayAgreeOnVersionCount)
{
    auto parallel = info().make(3);
    auto one_core = info().make(3);

    ParallelExecutor pexec(parallel->context());
    std::size_t parallel_versions = pexec.runGraph(4).versions;

    // One core replays program order (trivially a topological order
    // of the renamed graph).
    std::vector<std::uint32_t> program_order(
        one_core->context().numTasks());
    std::iota(program_order.begin(), program_order.end(), 0);
    ParallelExecutor rexec(one_core->context());
    starss::ParallelRunStats one_core_stats =
        rexec.runReplay(starss::oneCoreSchedule(program_order));

    EXPECT_EQ(one_core_stats.threads, 1u);
    EXPECT_EQ(parallel_versions, one_core_stats.versions);
    EXPECT_EQ(parallel->snapshot(), one_core->snapshot());
}

INSTANTIATE_TEST_SUITE_P(
    AllRealWorkloads, RealWorkloads,
    ::testing::Values("cholesky", "matmul", "jacobi", "reduce"),
    [](const auto &param) { return std::string(param.param); });

TEST(RealWorkloadRegistry, EveryProgramIsRegisteredAndNonTrivial)
{
    EXPECT_GE(realPrograms().size(), 4u);
    for (const RealProgramInfo &info : realPrograms()) {
        auto program = info.make(1);
        EXPECT_GT(program->context().numTasks(), 10u) << info.name;
        EXPECT_FALSE(program->snapshot().empty()) << info.name;
    }
    EXPECT_EQ(starss::findRealProgram("nope"), nullptr);
}

TEST(RunParallelApi, TaskContextConvenienceWrapper)
{
    auto reference = sequentialSnapshot(*starss::findRealProgram(
                                            "matmul"), 5);
    auto program = starss::findRealProgram("matmul")->make(5);
    starss::ParallelRunStats stats =
        program->context().runParallel(4);
    EXPECT_EQ(stats.threads, 4u);
    EXPECT_GT(stats.versions, 0u);
    EXPECT_EQ(program->snapshot(), reference);
}

/**
 * The replay contract: dispatch order and core assignment are a pure
 * function of (trace, config). Simulating the *same trace* twice must
 * reproduce every scheduling decision (the Scheduler's pinned
 * round-robin tie-break, see backend/scheduler.hh). Note the trace
 * must literally be the same: two instances of the same program live
 * at different addresses, and ORT bank selection hashes operand
 * addresses, so their traces are only structurally — not bitwise —
 * equal and may legitimately schedule differently.
 */
TEST(ReplayContract, SchedulingDecisionIsDeterministic)
{
    auto program = starss::findRealProgram("cholesky")->make(1);
    const TaskTrace &trace = program->context().trace();

    PipelineConfig cfg;
    cfg.numCores = 4;
    RunResult first = SystemBuilder(cfg, trace).build()->run();
    RunResult second = SystemBuilder(cfg, trace).build()->run();

    EXPECT_EQ(first.startOrder, second.startOrder);
    EXPECT_EQ(first.coreOf, second.coreOf);
    EXPECT_EQ(first.makespan, second.makespan);
}

/** Every task must carry a core assignment after a run. */
TEST(ReplayContract, CoreAssignmentCoversEveryTask)
{
    auto program = starss::findRealProgram("reduce")->make(1);
    PipelineConfig cfg;
    cfg.numCores = 3;
    RunResult result =
        SystemBuilder(cfg, program->context().trace()).build()->run();
    ASSERT_EQ(result.coreOf.size(), program->context().numTasks());
    for (unsigned core : result.coreOf)
        EXPECT_LT(core, cfg.numCores);
}

/**
 * The deque's pop/steal handshake under contention: the owner pushes
 * one to four values and pops until the deque is empty while three
 * thieves steal, so every round ends in a race for the last value.
 * Every value must be taken exactly once. Short enough for the TSan
 * build, which checks the handshake's happens-before edges.
 */
TEST(WorkDeque, OwnerAndThievesTakeEveryValueOnce)
{
    constexpr std::uint32_t values = 20'000;
    WorkDeque deque(values);
    std::vector<std::atomic<std::uint32_t>> taken(values);
    auto take = [&taken](std::uint32_t v) {
        taken[v].fetch_add(1, std::memory_order_relaxed);
    };
    std::atomic<bool> done{false};
    std::vector<std::thread> thieves;
    for (unsigned t = 0; t < 3; ++t) {
        thieves.emplace_back([&] {
            std::uint32_t v = 0;
            while (!done.load(std::memory_order_acquire)) {
                if (deque.steal(v))
                    take(v);
                else
                    std::this_thread::yield();
            }
        });
    }
    std::uint32_t next = 0;
    for (unsigned round = 0; next < values; ++round) {
        for (unsigned i = 0; i <= round % 4 && next < values; ++i)
            deque.push(next++);
        // pop() fails only on an empty deque or a lost race for the
        // last value, which leaves the deque empty too.
        std::uint32_t v = 0;
        while (deque.pop(v))
            take(v);
    }
    done.store(true, std::memory_order_release);
    for (auto &thief : thieves)
        thief.join();

    for (std::uint32_t v = 0; v < values; ++v)
        ASSERT_EQ(taken[v].load(), 1u) << "value " << v;
}

} // namespace
} // namespace tss
