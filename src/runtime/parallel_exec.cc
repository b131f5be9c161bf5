#include "parallel_exec.hh"

#include <atomic>
#include <chrono>
#include <memory>
#include <thread>
#include <vector>

#include "runtime/rename_store.hh"
#include "runtime/work_deque.hh"
#include "sim/logging.hh"

namespace tss::starss
{

namespace
{

/**
 * One dependence counter per task; a task becomes ready when its
 * counter hits zero. The acq_rel decrements make every write of a
 * finished predecessor visible to the task it enables.
 */
void
seedCounters(std::vector<std::atomic<std::int64_t>> &remaining,
             const DepGraph &graph)
{
    for (std::uint32_t t = 0; t < remaining.size(); ++t) {
        remaining[t].store(static_cast<std::int64_t>(graph.inDegree(t)),
                          std::memory_order_relaxed);
    }
}

} // namespace

RunResult
oneCoreSchedule(std::vector<std::uint32_t> order)
{
    RunResult schedule;
    schedule.coreOf.assign(order.size(), 0);
    schedule.startOrder = std::move(order);
    return schedule;
}

ParallelExecutor::ParallelExecutor(TaskContext &context)
    : ctx(context),
      graph(DepGraph::build(context.trace(), Semantics::Renamed))
{
}

ParallelRunStats
ParallelExecutor::runThreads(RenameStore &store,
                             std::vector<std::function<void()>> bodies)
{
    ParallelRunStats stats;
    stats.threads = static_cast<unsigned>(bodies.size());
    stats.versions = store.numVersions();

    auto begin = std::chrono::steady_clock::now();
    std::vector<std::thread> threads;
    threads.reserve(bodies.size());
    for (auto &body : bodies)
        threads.emplace_back(std::move(body));
    for (auto &thread : threads)
        thread.join();
    store.copyBack();
    auto end = std::chrono::steady_clock::now();

    stats.wallSeconds =
        std::chrono::duration<double>(end - begin).count();
    return stats;
}

ParallelRunStats
ParallelExecutor::runGraph(unsigned n_threads)
{
    if (n_threads == 0)
        n_threads = std::max(1u, std::thread::hardware_concurrency());
    auto n = static_cast<std::uint32_t>(ctx.trace().size());
    if (n == 0) {
        ParallelRunStats stats;
        stats.threads = n_threads;
        return stats;
    }

    RenameStore store(ctx.trace());
    std::vector<std::atomic<std::int64_t>> remaining(n);
    seedCounters(remaining, graph);

    std::vector<std::unique_ptr<WorkDeque>> deques;
    deques.reserve(n_threads);
    for (unsigned w = 0; w < n_threads; ++w)
        deques.push_back(std::make_unique<WorkDeque>(n));

    // Seed the roots round-robin before any worker starts (the
    // single-threaded prologue may use the owner-only push freely).
    std::vector<std::uint32_t> roots = graph.roots();
    for (std::size_t i = 0; i < roots.size(); ++i)
        deques[i % n_threads]->push(roots[i]);

    std::atomic<std::uint32_t> done{0};
    std::atomic<std::uint64_t> total_steals{0};

    auto run_task = [&](std::uint32_t task, unsigned wid) {
        Buffers bufs(store.bind(task, ctx.taskParams(task)));
        ctx.kernelFn(ctx.trace().tasks[task].kernel)(bufs);
        for (std::uint32_t s : graph.succ(task)) {
            if (remaining[s].fetch_sub(
                    1, std::memory_order_acq_rel) == 1) {
                deques[wid]->push(s);
            }
        }
        done.fetch_add(1, std::memory_order_release);
    };

    auto worker = [&, n](unsigned wid) {
        std::uint64_t steals = 0;
        std::uint32_t task;
        Backoff backoff;
        while (done.load(std::memory_order_acquire) < n) {
            if (deques[wid]->pop(task)) {
                backoff.reset();
                run_task(task, wid);
                continue;
            }
            bool stolen = false;
            for (unsigned k = 1; k < n_threads && !stolen; ++k)
                stolen = deques[(wid + k) % n_threads]->steal(task);
            if (stolen) {
                ++steals;
                backoff.reset();
                run_task(task, wid);
                continue;
            }
            backoff.pause();
        }
        total_steals.fetch_add(steals, std::memory_order_relaxed);
    };

    std::vector<std::function<void()>> bodies;
    bodies.reserve(n_threads);
    for (unsigned w = 0; w < n_threads; ++w)
        bodies.push_back([&worker, w] { worker(w); });

    ParallelRunStats stats = runThreads(store, std::move(bodies));
    stats.steals = total_steals.load(std::memory_order_relaxed);
    return stats;
}

ParallelRunStats
ParallelExecutor::runReplay(const RunResult &schedule)
{
    auto n = static_cast<std::uint32_t>(ctx.trace().size());
    if (schedule.startOrder.size() != n || schedule.coreOf.size() != n)
        fatal("replay: schedule does not cover the captured trace");
    if (!graph.isTopologicalOrder(schedule.startOrder)) {
        fatal("replay: simulated start order violates the renamed "
              "dependency graph");
    }
    if (n == 0)
        return {};

    // Per-core dispatch sequences, in simulated start order.
    unsigned num_cores = 0;
    for (unsigned core : schedule.coreOf) {
        TSS_ASSERT(core != ~0u, "replay: task never started");
        num_cores = std::max(num_cores, core + 1);
    }
    std::vector<std::vector<std::uint32_t>> per_core(num_cores);
    for (std::uint32_t t : schedule.startOrder)
        per_core[schedule.coreOf[t]].push_back(t);

    RenameStore store(ctx.trace());
    std::vector<std::atomic<std::int64_t>> remaining(n);
    seedCounters(remaining, graph);

    // One thread per simulated core that executed at least one task,
    // each obeying its core's dispatch order and waiting for the
    // dependence counter exactly where the simulated core waited for
    // the TRS ready message. The simulated schedule is dependence-
    // consistent (checked above), so every wait terminates.
    auto worker = [&](const std::vector<std::uint32_t> &sequence) {
        Backoff backoff;
        for (std::uint32_t task : sequence) {
            while (remaining[task].load(std::memory_order_acquire) > 0)
                backoff.pause();
            backoff.reset();
            Buffers bufs(store.bind(task, ctx.taskParams(task)));
            ctx.kernelFn(ctx.trace().tasks[task].kernel)(bufs);
            for (std::uint32_t s : graph.succ(task))
                remaining[s].fetch_sub(1, std::memory_order_acq_rel);
        }
    };

    std::vector<std::function<void()>> bodies;
    for (const auto &sequence : per_core) {
        if (!sequence.empty())
            bodies.push_back([&worker, &sequence] { worker(sequence); });
    }
    return runThreads(store, std::move(bodies));
}

ParallelRunStats
TaskContext::runParallel(unsigned n_threads)
{
    ParallelExecutor exec(*this);
    return exec.runGraph(n_threads);
}

} // namespace tss::starss
