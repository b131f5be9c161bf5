/**
 * @file
 * Interactive exploration of the task superscalar design space: run
 * any of the nine paper benchmarks through the pipeline (and the
 * software-runtime baseline) with every knob on the command line.
 *
 * Usage (every knob is a tss::RunOptions knob, shared with the
 * benches and tss-serve — see driver/run_options.hh):
 *   pipeline_explorer --workload=Cholesky --scale=0.3 --cores=256 \
 *       --trs=8 --ort=2 --trs-kb=6144 --ort-kb=512 [--sw] [--csv] \
 *       [--pipes=N] [--gen-threads=N] [--topology=fixed|ring|mesh] \
 *       [--placement=adjacent|spread|random] [--batch] [--credits=N] \
 *       [--relocate] [--relocate-seed=N] [--sim-threads=N] [--modstats]
 */

#include <iomanip>
#include <iostream>

#include "driver/cli.hh"
#include "driver/experiment.hh"
#include "driver/table.hh"
#include "graph/dataflow_limit.hh"
#include "graph/dep_graph.hh"
#include "trace/trace_stats.hh"

namespace
{

/**
 * The --modstats report: per-module packets, busy fraction and queue
 * depth, NoC traffic and link load, DMA and core utilization, all
 * formatted from the run's metrics snapshot (the config supplies only
 * module names and counts). Every rate divides by the makespan, the
 * registry's run-average window.
 */
void
printModuleStats(std::ostream &os, const tss::PipelineConfig &cfg,
                 const tss::RunResult &hw)
{
    const tss::obs::Snapshot &m = hw.metrics;
    const tss::Cycle now = hw.makespan;
    auto line = [&](const std::string &name) {
        std::string base = "module." + name + ".";
        auto cycles = static_cast<double>(m.counter(base + "busy_cycles"));
        double busy =
            now == 0 ? 0 : 100.0 * cycles / static_cast<double>(now);
        os << "  " << std::left << std::setw(12) << name << " packets "
           << std::setw(10) << m.counter(base + "packets") << " busy "
           << std::fixed << std::setprecision(1) << busy
           << "%  avg queue " << std::setprecision(2)
           << m.gauge(base + "queue_avg") << "\n";
    };

    os << "module utilization (over " << now << " cycles):\n";
    for (unsigned i = 0; i < cfg.totalTrs(); ++i)
        line("trs" + std::to_string(i));
    for (unsigned i = 0; i < cfg.totalOrt(); ++i)
        line("ort" + std::to_string(i));
    for (unsigned i = 0; i < cfg.totalOrt(); ++i)
        line("ovt" + std::to_string(i));
    line("scheduler");

    os << "NoC: " << m.counter("noc.messages")
       << " messages, latency mean " << std::setprecision(1)
       << m.gauge("noc.latency_mean") << " cy (p95 "
       << m.gauge("noc.latency_p95") << ", max "
       << m.gauge("noc.latency_max") << ")\n";
    // The histogram holds one entry per link.
    const tss::obs::HistogramSnapshot &hist =
        m.histograms.at("noc.link_utilization_pct");
    os << "links: " << tss::toString(cfg.nocTopology) << "/"
       << tss::toString(cfg.nocPlacement) << ", " << hist.totalCount()
       << " links, " << m.counter("noc.link_traversals")
       << " traversals, lane waits " << m.counter("noc.lane_wait_cycles")
       << " cy, busiest link "
       << m.gauge("noc.max_link_utilization") * 100.0 << "% busy\n";
    os << "noc link utilization histogram:\n";
    for (std::size_t b = 0; b < hist.counts.size(); ++b) {
        if (hist.counts[b] == 0)
            continue;
        bool last = b + 1 == hist.counts.size();
        os << "  [" << hist.lowerBounds[b] << "%, "
           << (last ? 100 : hist.lowerBounds[b + 1])
           << (last ? "%]: " : "%): ") << hist.counts[b] << " links\n";
    }
    os << "DMA: " << m.counter("dma.writebacks") << " write-backs, "
       << m.counter("dma.bytes") / 1024 << " KB\n";

    double core_busy = 0;
    for (unsigned c = 0; c < cfg.numCores; ++c) {
        core_busy += static_cast<double>(
            m.counter("core." + std::to_string(c) + ".busy_cycles"));
    }
    if (now > 0 && cfg.numCores > 0) {
        core_busy /=
            static_cast<double>(now) * static_cast<double>(cfg.numCores);
        os << "cores: " << core_busy * 100.0 << "% average utilization\n";
    }
}

} // namespace

int
main(int argc, char **argv)
{
    tss::CliArgs args(argc, argv);
    tss::RunOptions opts = tss::RunOptions::parse(args);

    std::string name = args.get("workload", "Cholesky");
    double scale = args.getDouble("scale", 0.3);

    tss::TaskTrace trace =
        tss::makeWorkload(name, scale, args.getLong("seed", 1));
    opts.maybeRelocate(trace);
    tss::TraceStats tstats = tss::TraceStats::compute(trace);

    tss::PipelineConfig cfg = tss::paperConfig(256);
    opts.apply(cfg);
    unsigned cores = cfg.numCores;
    unsigned gen_threads = opts.genThreads(cfg.numPipelines);

    std::cout << "workload " << name << ": " << trace.size()
              << " tasks, avg data "
              << tss::TablePrinter::num(tstats.avgDataKB) << " KB, "
              << "runtime min/med/avg "
              << tss::TablePrinter::num(tstats.minRuntimeUs) << "/"
              << tss::TablePrinter::num(tstats.medRuntimeUs) << "/"
              << tss::TablePrinter::num(tstats.avgRuntimeUs)
              << " us\n";

    tss::DepGraph graph = tss::DepGraph::build(trace);
    tss::DataflowSchedule limit = tss::computeDataflowLimit(trace, graph);
    std::cout << "dataflow limit: parallelism "
              << tss::TablePrinter::num(limit.parallelism())
              << ", ideal speedup on " << cores << " cores "
              << tss::TablePrinter::num(limit.speedupBound(cores))
              << "\n\n";

    auto sys =
        tss::SystemBuilder(cfg, trace).roundRobin(gen_threads).build();
    tss::RunResult hw = sys->run();
    auto counter = [&hw](const char *name) {
        return hw.metrics.counter(name);
    };
    auto gauge = [&hw](const char *name, double scale = 1) {
        return tss::TablePrinter::num(hw.metrics.gauge(name) * scale);
    };
    std::cout << "task superscalar (" << cfg.numPipelines
              << " pipeline(s) of " << cfg.numTrs << " TRS, "
              << cfg.numOrt << " ORT/OVT, "
              << tss::toString(cfg.nocTopology) << "/"
              << tss::toString(cfg.nocPlacement) << " NoC, " << cores
              << " cores):\n"
              << "  speedup            "
              << tss::TablePrinter::num(hw.speedup) << "\n"
              << "  decode rate        "
              << tss::TablePrinter::num(hw.decodeRateCycles)
              << " cycles/task ("
              << tss::TablePrinter::num(hw.decodeRateNs) << " ns)\n"
              << "  window occupancy   "
              << gauge("frontend.tasks_in_flight_avg") << " avg / "
              << gauge("frontend.tasks_in_flight_peak") << " peak tasks\n"
              << "  chain length       p95 "
              << gauge("frontend.chain_consumers_p95") << ", max "
              << gauge("frontend.chain_consumers_max") << "\n"
              << "  TRS fragmentation  "
              << gauge("frontend.fragmentation_mean", 100) << "%\n"
              << "  1-cycle allocs     "
              << gauge("frontend.sram_hit_rate", 100) << "%\n"
              << "  stalls (cycles)    gateway(ORT-full) "
              << counter("frontend.gateway_stall_cycles")
              << ", window-full " << counter("frontend.alloc_wait_cycles")
              << ", thread-blocked "
              << counter("frontend.source_stall_cycles") << "\n"
              << "  renamed versions   "
              << counter("frontend.versions_renamed") << " / "
              << counter("frontend.versions_created")
              << ", DMA write-backs " << counter("frontend.dma_writebacks")
              << "\n"
              << "  NoC messages       " << counter("noc.messages")
              << ", events " << counter("engine.events_executed") << "\n"
              << "  NoC links          lane waits "
              << counter("noc.lane_wait_cycles") << " cy, busiest "
              << gauge("noc.max_link_utilization", 100)
              << "% busy, batches " << counter("frontend.decode_batches")
              << ", deferrals " << counter("frontend.decode_deferrals")
              << "\n";

    if (args.has("modstats")) {
        std::cout << "\n";
        printModuleStats(std::cout, cfg, hw);
    }

    if (args.has("sw")) {
        tss::SwRuntimeConfig sw_cfg;
        sw_cfg.numCores = cores;
        tss::SwRunResult sw = tss::runSoftware(sw_cfg, trace);
        std::cout << "\nsoftware runtime (" << cores << " cores):\n"
                  << "  speedup            "
                  << tss::TablePrinter::num(sw.speedup) << "\n"
                  << "  decode rate        "
                  << tss::TablePrinter::num(sw.decodeRateCycles)
                  << " cycles/task\n";
    }
    return 0;
}
