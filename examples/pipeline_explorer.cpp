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
 *       [--relocate] [--relocate-seed=N] [--sim-threads=N]
 */

#include <iostream>

#include "driver/cli.hh"
#include "driver/experiment.hh"
#include "driver/table.hh"
#include "graph/dataflow_limit.hh"
#include "graph/dep_graph.hh"
#include "trace/trace_stats.hh"

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
        sys->dumpStats(std::cout);
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
