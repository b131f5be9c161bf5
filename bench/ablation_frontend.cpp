/**
 * @file
 * Ablations of the frontend design choices (DESIGN.md section 5):
 *
 *  1. Operand renaming on/off — how much WaW/WaR breaking buys
 *     (section III's analogy to register renaming).
 *  2. Consumer chaining vs direct OVT fan-out — the paper's
 *     section IV-B.2 storage argument, measured in performance.
 *  3. eDRAM latency sensitivity (22-cycle baseline, Table II).
 *  4. Gateway buffer depth (the paper's 1 KB / ~20 tasks).
 *
 * Usage: ablation_frontend [--quick|--full|--scale=X]
 *        [--workload=Name] [--csv]
 */

#include <iostream>
#include <vector>

#include "driver/cli.hh"
#include "driver/experiment.hh"
#include "driver/table.hh"

namespace
{

struct Variant
{
    std::string name;
    std::function<void(tss::PipelineConfig &)> tweak;
};

} // namespace

int
main(int argc, char **argv)
{
    tss::CliArgs args(argc, argv);
    double scale = args.scale(0.1, 0.6, 0.25);
    std::string workload = args.get("workload", "");

    std::vector<std::string> names = {"Cholesky", "H264", "STAP"};
    if (!workload.empty())
        names = {workload};

    const std::vector<Variant> variants = {
        {"baseline (paper)", [](tss::PipelineConfig &) {}},
        {"no output renaming",
         [](tss::PipelineConfig &c) { c.renameOutputs = false; }},
        {"no consumer chaining (OVT fan-out)",
         [](tss::PipelineConfig &c) { c.consumerChaining = false; }},
        {"eDRAM 11 cycles",
         [](tss::PipelineConfig &c) { c.edramLatency = 11; }},
        {"eDRAM 44 cycles",
         [](tss::PipelineConfig &c) { c.edramLatency = 44; }},
        {"gateway buffer 4 tasks",
         [](tss::PipelineConfig &c) { c.gatewayBufferTasks = 4; }},
        {"gateway buffer 64 tasks",
         [](tss::PipelineConfig &c) { c.gatewayBufferTasks = 64; }},
        {"module latency 8 cycles",
         [](tss::PipelineConfig &c) { c.packetLatency = 8; }},
    };

    std::cout << "Frontend ablations (scale=" << scale
              << ", 256 cores)\n\n";

    for (const std::string &name : names) {
        tss::TaskTrace trace =
            tss::makeWorkload(name, scale, args.getLong("seed", 1));
        std::cout << name << " (" << trace.size() << " tasks)\n";
        tss::TablePrinter table({"Variant", "Speedup",
                                 "Decode [cy/task]", "Renamed",
                                 "Forward msgs"});
        for (const Variant &variant : variants) {
            tss::PipelineConfig cfg = tss::paperConfig(256);
            variant.tweak(cfg);
            tss::RunResult r = tss::runHardware(cfg, trace);
            auto counter = [&r](const char *name) {
                return tss::TablePrinter::num(r.metrics.counter(name));
            };
            table.addRow({variant.name, tss::TablePrinter::num(r.speedup),
                          tss::TablePrinter::num(r.decodeRateCycles),
                          counter("frontend.versions_renamed"),
                          counter("frontend.data_ready_forwards")});
        }
        if (args.has("csv"))
            table.printCsv(std::cout);
        else
            table.print(std::cout);
        std::cout << "\n";
    }
    return 0;
}
