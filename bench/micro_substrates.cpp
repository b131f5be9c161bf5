/**
 * @file
 * google-benchmark microbenches for the simulator's hot paths: the
 * event queue, the TRS block free-list, the reference dependency
 * decoder (the software-runtime analogue — compare its ns/task
 * against the paper's 700 ns StarSs measurement), the NoC's cost per
 * link traversal, and a full end-to-end pipeline simulation rate.
 */

#include <cstdlib>
#include <new>

#include <benchmark/benchmark.h>

#include "core/system.hh"
#include "graph/dep_graph.hh"
#include "mem/free_list.hh"
#include "noc/topology.hh"
#include "sim/event_queue.hh"
#include "sim/random.hh"
#include "workload/workload.hh"

namespace
{

/**
 * Global operator new calls made on this thread, and the bytes they
 * asked for, counted by the replacement below (array and nothrow new
 * forward to it).
 */
thread_local std::uint64_t globalNews = 0;
thread_local std::uint64_t globalNewBytes = 0;

} // namespace

// Out of line, so the compiler never pairs an inlined free() with a
// new-expression (-Wmismatched-new-delete).
[[gnu::noinline]] void *
operator new(std::size_t bytes)
{
    ++globalNews;
    globalNewBytes += bytes;
    if (void *p = std::malloc(bytes ? bytes : 1))
        return p;
    throw std::bad_alloc();
}

[[gnu::noinline]] void
operator delete(void *p) noexcept
{
    std::free(p);
}

[[gnu::noinline]] void
operator delete(void *p, std::size_t) noexcept
{
    std::free(p);
}

namespace
{

void
BM_EventQueueScheduleStep(benchmark::State &state)
{
    tss::EventQueue eq;
    std::uint64_t sink = 0;
    for (auto _ : state) {
        for (int i = 0; i < 64; ++i)
            eq.scheduleIn(static_cast<tss::Cycle>(i % 7), [&] {
                ++sink;
            });
        eq.run();
    }
    benchmark::DoNotOptimize(sink);
    state.SetItemsProcessed(state.iterations() * 64);
}
BENCHMARK(BM_EventQueueScheduleStep);

/**
 * The event queue under paper-mix's scheduling-distance shape: a
 * closed population of 300 pending events over 8 stations, each
 * executed event scheduling one successor from its station. Delays
 * come from a seeded table built before the timed loop: 96% below
 * 128 cycles, 2% in [128, 256), and 2% task-runtime-like, mostly
 * below 16 Ki cycles with one in 200 of them up to 2 M. At steady
 * state about 260 of the 300 pending events sit 256 or more cycles
 * out, as paper-mix's running tasks do. One item is one event.
 */
void
BM_EventQueuePaperMixShape(benchmark::State &state)
{
    struct Shape
    {
        tss::EventQueue eq;
        std::vector<std::uint32_t> delays;
        std::size_t next = 0;
        std::uint64_t ran = 0;

        void
        hop(std::int32_t station)
        {
            ++ran;
            tss::Cycle d = delays[next];
            next = (next + 1) % delays.size();
            eq.scheduleStation(eq.now() + d, station,
                               [this, station] { hop(station); });
        }
    } shape;

    tss::Rng rng(11);
    shape.delays.resize(1 << 16);
    for (std::uint32_t &d : shape.delays) {
        std::uint64_t r = rng.range(10000);
        if (r < 9600)
            d = static_cast<std::uint32_t>(rng.range(128));
        else if (r < 9800)
            d = static_cast<std::uint32_t>(128 + rng.range(128));
        else if (r < 9999)
            d = static_cast<std::uint32_t>(rng.rangeInclusive(256, 16384));
        else
            d = static_cast<std::uint32_t>(
                rng.rangeInclusive(16384, 2000000));
    }
    for (std::int32_t token = 0; token < 300; ++token)
        shape.hop(token % 8);
    shape.eq.run(1 << 20); // reach the steady near/far split

    for (auto _ : state)
        shape.eq.step();
    benchmark::DoNotOptimize(shape.ran);
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_EventQueuePaperMixShape);

/**
 * Allocation accounting for the pooled kernel: run a full pipeline
 * simulation and report how many fresh chunks the event/message pools
 * requested from the global allocator versus how many messages and
 * events were recycled. Steady state must be all reuse:
 * `msg_fresh_per_kmsg` counts fresh chunks per 1000 NoC messages and
 * approaches zero as the pool warms (the seed allocated every message
 * and large event closure from the heap individually). The pools are
 * not the only allocators on that path, so `new_per_kmsg` counts
 * every global operator new call inside run() (building the System
 * excluded) per 1000 messages, and `build_kb` the bytes operator new
 * hands out inside SystemBuilder::build() — the 32-core machine
 * tss-serve builds per job. Advisory: nothing gates them.
 */
void
BM_PipelineAllocationCounts(benchmark::State &state)
{
    tss::TaskTrace trace = tss::genCholeskyBlocked(10, 16 * 1024, 1);
    auto &msg_pool = tss::Message::pool();
    auto &ev_pool = tss::EventCallback::pool();
    std::uint64_t messages = 0, events = 0;
    std::uint64_t msg_fresh0 = msg_pool.stats().fresh;
    std::uint64_t msg_reuse0 = msg_pool.stats().reused;
    std::uint64_t ev_fresh0 = ev_pool.stats().fresh;
    std::uint64_t run_news = 0, build_bytes = 0;
    for (auto _ : state) {
        tss::PipelineConfig cfg;
        cfg.numCores = 32;
        const std::uint64_t bytes0 = globalNewBytes;
        auto pipe = tss::SystemBuilder(cfg, trace).build();
        build_bytes += globalNewBytes - bytes0;
        const std::uint64_t news0 = globalNews;
        tss::RunResult result = pipe->run();
        run_news += globalNews - news0;
        messages += result.metrics.counter("noc.messages");
        events += result.metrics.counter("engine.events_executed");
    }
    state.SetItemsProcessed(static_cast<std::int64_t>(events));
    state.counters["noc_messages"] =
        benchmark::Counter(static_cast<double>(messages));
    state.counters["msg_fresh_chunks"] = benchmark::Counter(
        static_cast<double>(msg_pool.stats().fresh - msg_fresh0));
    state.counters["msg_reused_chunks"] = benchmark::Counter(
        static_cast<double>(msg_pool.stats().reused - msg_reuse0));
    state.counters["event_fresh_chunks"] = benchmark::Counter(
        static_cast<double>(ev_pool.stats().fresh - ev_fresh0));
    state.counters["msg_fresh_per_kmsg"] = benchmark::Counter(
        messages == 0
            ? 0
            : 1000.0 *
                static_cast<double>(msg_pool.stats().fresh - msg_fresh0) /
                static_cast<double>(messages));
    state.counters["new_per_kmsg"] = benchmark::Counter(
        messages == 0 ? 0
                      : 1000.0 * static_cast<double>(run_news) /
                            static_cast<double>(messages));
    state.counters["build_kb"] = benchmark::Counter(
        static_cast<double>(build_bytes) / 1024.0 /
        static_cast<double>(state.iterations()));
}
BENCHMARK(BM_PipelineAllocationCounts)->Unit(benchmark::kMillisecond);

/** Pure message-pool churn: allocate/free protocol messages. */
void
BM_MessagePoolChurn(benchmark::State &state)
{
    auto &pool = tss::Message::pool();
    std::uint64_t fresh0 = pool.stats().fresh;
    std::uint64_t reused0 = pool.stats().reused;
    for (auto _ : state) {
        auto a = std::make_unique<tss::DataReadyMsg>(
            tss::OperandId{}, tss::ReadySide::Input, 0);
        auto b = std::make_unique<tss::OperandInfoMsg>(
            tss::OperandId{}, tss::Dir::In, 512, tss::VersionRef{},
            tss::OperandId{}, false, 0);
        benchmark::DoNotOptimize(a.get());
        benchmark::DoNotOptimize(b.get());
    }
    state.SetItemsProcessed(state.iterations() * 2);
    std::uint64_t fresh = pool.stats().fresh - fresh0;
    std::uint64_t reused = pool.stats().reused - reused0;
    state.counters["reuse_ratio"] = benchmark::Counter(
        static_cast<double>(reused) /
        static_cast<double>(std::max<std::uint64_t>(1, reused + fresh)));
}
BENCHMARK(BM_MessagePoolChurn);

/**
 * Host cost of one NoC link traversal: a seeded stream of 8-256 B
 * messages between random cores and frontend tiles, one injected
 * every 4 cycles, on the paper's 256-core two-level ring (Table II)
 * and on the mesh with spread placement. Items are lane reservations
 * (LinkStats::traversals), so the reported time per item is the cost
 * of one link traversal, routing and delivery included.
 */
void
BM_NocRoute(benchmark::State &state)
{
    struct Drop : tss::Endpoint
    {
        void receive(tss::MessagePtr) override {}
    };

    auto kind = static_cast<tss::TopologyKind>(state.range(0));
    tss::NocParams params;
    if (kind == tss::TopologyKind::Mesh)
        params.placement = tss::PlacementKind::Spread;
    tss::EventQueue eq;
    auto net = tss::makeTopology(kind, "noc", eq, params);
    Drop drop;
    std::vector<tss::NodeId> stations;
    for (unsigned c = 0; c < params.numCores; ++c)
        stations.push_back(net->coreNode(c));
    for (unsigned f = 0; f < params.numFrontendTiles; ++f)
        stations.push_back(net->frontendNode(f));
    for (tss::NodeId node : stations)
        net->attach(node, drop);

    struct Send
    {
        tss::NodeId src, dst;
        tss::Bytes bytes;
    };
    tss::Rng rng(7);
    std::vector<Send> stream(4096);
    for (Send &s : stream) {
        s.src = stations[rng.range(stations.size())];
        do {
            s.dst = stations[rng.range(stations.size())];
        } while (s.dst == s.src);
        s.bytes = static_cast<tss::Bytes>(rng.rangeInclusive(8, 256));
    }

    tss::Cycle t = 0;
    std::size_t next = 0;
    for (auto _ : state) {
        const Send &s = stream[next];
        next = (next + 1) % stream.size();
        t += 4;
        eq.runUntil(t);
        net->sendAt(t, std::make_unique<tss::Message>(s.src, s.dst,
                                                      s.bytes));
    }
    eq.run();
    auto traversals =
        static_cast<double>(net->linkStats(eq.now()).traversals);
    state.SetItemsProcessed(static_cast<std::int64_t>(traversals));
    state.counters["s_per_traversal"] = benchmark::Counter(
        traversals, benchmark::Counter::kIsRate |
            benchmark::Counter::kInvert);
    state.SetLabel(tss::toString(kind));
}
BENCHMARK(BM_NocRoute)
    ->Arg(static_cast<int>(tss::TopologyKind::Ring))
    ->Arg(static_cast<int>(tss::TopologyKind::Mesh));

void
BM_BlockFreeListChurn(benchmark::State &state)
{
    tss::BlockFreeList list(4096);
    std::vector<std::uint32_t> live;
    for (auto _ : state) {
        auto alloc = list.allocate();
        live.push_back(alloc->block);
        if (live.size() > 64) {
            list.release(live.back());
            live.pop_back();
            list.release(live.front());
            live.erase(live.begin());
        }
    }
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_BlockFreeListChurn);

/**
 * Software dependency decode rate: how fast the host CPU resolves
 * task dependencies in software. The paper measured ~700 ns/task for
 * the tuned StarSs decoder on a 2.66 GHz Core 2 Duo; this is this
 * repository's equivalent number.
 */
void
BM_SoftwareDependencyDecode(benchmark::State &state)
{
    tss::WorkloadParams params;
    params.scale = 0.1;
    tss::TaskTrace trace = tss::genCholesky(params);
    for (auto _ : state) {
        tss::DepGraph graph =
            tss::DepGraph::build(trace, tss::Semantics::Renamed);
        benchmark::DoNotOptimize(graph.numEdges());
    }
    state.SetItemsProcessed(state.iterations() * trace.size());
}
BENCHMARK(BM_SoftwareDependencyDecode)->Unit(benchmark::kMillisecond);

void
BM_PipelineSimulationRate(benchmark::State &state)
{
    tss::TaskTrace trace = tss::genCholeskyBlocked(12, 16 * 1024, 1);
    for (auto _ : state) {
        tss::PipelineConfig cfg;
        cfg.numCores = 64;
        auto pipe = tss::SystemBuilder(cfg, trace).build();
        tss::RunResult result = pipe->run();
        benchmark::DoNotOptimize(result.makespan);
    }
    state.SetItemsProcessed(state.iterations() * trace.size());
    state.SetLabel("simulated tasks per wall-second");
}
BENCHMARK(BM_PipelineSimulationRate)->Unit(benchmark::kMillisecond);

void
BM_WorkloadGeneration(benchmark::State &state)
{
    tss::WorkloadParams params;
    params.scale = 0.2;
    for (auto _ : state) {
        tss::TaskTrace trace = tss::genH264(params);
        benchmark::DoNotOptimize(trace.size());
    }
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_WorkloadGeneration)->Unit(benchmark::kMillisecond);

} // namespace

BENCHMARK_MAIN();
