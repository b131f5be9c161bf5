/**
 * @file
 * Regenerates Figure 15: speedup on 256 processors as a function of
 * the total TRS capacity (128 KB .. 8 MB) — the task window itself —
 * for Cholesky, H264, and the average over all benchmarks.
 *
 * Expected shape: Cholesky peaks by ~2 MB; H264's distant parallelism
 * keeps benefiting up to 6 MB; the average rises gradually, with 2 MB
 * already providing most of the speedup and 6 MB the peak. A 6 MB
 * window holds 12,000-50,000 in-flight tasks.
 *
 * Usage: fig15_trs_capacity [--quick|--full|--scale=X] [--csv]
 */

#include <iostream>
#include <vector>

#include "driver/cli.hh"
#include "driver/experiment.hh"
#include "driver/table.hh"

int
main(int argc, char **argv)
{
    tss::CliArgs args(argc, argv);
    double scale = args.scale(0.1, 1.0, 0.4);

    const std::vector<tss::Bytes> capacities_kb = {
        128, 256, 512, 1024, 2048, 4096, 6144, 8192};

    std::cout << "Figure 15: effect of total TRS size on performance"
              << " (scale=" << scale << ", 256 cores)\n\n";

    tss::TablePrinter table({"TRS capacity", "Cholesky", "H264",
                             "Average", "Avg window (tasks)"});

    std::vector<tss::TaskTrace> traces;
    std::size_t cholesky_idx = 0, h264_idx = 0;
    for (const auto &info : tss::allWorkloads()) {
        tss::WorkloadParams params;
        params.scale = scale;
        params.seed = args.getLong("seed", 1);
        if (info.name == "Cholesky")
            cholesky_idx = traces.size();
        if (info.name == "H264")
            h264_idx = traces.size();
        traces.push_back(info.generate(params));
    }

    for (tss::Bytes kb : capacities_kb) {
        std::vector<double> speedups;
        double sum = 0;
        double window_sum = 0;
        for (const auto &trace : traces) {
            tss::PipelineConfig cfg = tss::paperConfig(256);
            cfg.trsTotalBytes = kb * 1024;
            tss::RunResult result = tss::runHardware(cfg, trace);
            speedups.push_back(result.speedup);
            sum += result.speedup;
            window_sum +=
                result.metrics.gauge("frontend.tasks_in_flight_avg");
        }
        auto n = static_cast<double>(traces.size());
        table.addRow({std::to_string(kb) + " KB",
                      tss::TablePrinter::num(speedups[cholesky_idx]),
                      tss::TablePrinter::num(speedups[h264_idx]),
                      tss::TablePrinter::num(sum / n),
                      tss::TablePrinter::num(window_sum / n, 0)});
    }

    if (args.has("csv"))
        table.printCsv(std::cout);
    else
        table.print(std::cout);
    std::cout << "\nPaper reference: Cholesky peaks at 2 MB; H264 "
              << "wants 6 MB; 6 MB sustains a 12k-50k task window.\n";
    return 0;
}
