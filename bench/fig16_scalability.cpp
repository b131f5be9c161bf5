/**
 * @file
 * Regenerates Figure 16: speedup over sequential execution achieved
 * by the task superscalar pipeline driving 32/64/128/256 processors,
 * compared with the software-based runtime, for all nine benchmarks
 * plus the cross-benchmark average.
 *
 * Expected shape (paper section VI-C): the hardware pipeline scales
 * to 256 processors for all benchmarks (95-255x, average 183x); the
 * software runtime saturates at 32-64 processors for everything
 * except the long-task benchmarks Knn and H264, and for H264 the
 * software runtime's infinite window slightly beats the hardware
 * pipeline's bounded window.
 *
 * A second panel sweeps the *sharded frontend*: numPipelines in
 * {1, 2, 4, 8} on shared-data blocked Cholesky and Jacobi (real
 * StarSs programs, 8 generating threads fed round-robin, no data
 * partitioning). This is the configuration the address-interleaved
 * global directory enables — the pre-shard frontend fatal()ed on it.
 * The sweep decodes the programs' *relocated* traces
 * (trace/relocate.hh), so its decode rates are deterministic across
 * runs and machines. Every simulated decision is replayed on real
 * threads and checked bit-identical against sequential execution
 * (differential oracle); the bench aborts on divergence. --quick
 * shrinks the sweep's programs (same pipeline counts);
 * --workload=Name restricts the main panel and skips the sweep.
 *
 * Usage: fig16_scalability [--quick|--full|--scale=X]
 *        [--workload=Name] [--csv] [--stats]
 */

#include <cstdlib>
#include <iostream>
#include <vector>

#include "driver/cli.hh"
#include "driver/experiment.hh"
#include "driver/table.hh"
#include "graph/dep_graph.hh"
#include "runtime/parallel_exec.hh"
#include "workload/starss_programs.hh"

namespace
{

std::unique_ptr<tss::starss::RealProgram>
sweepCholesky(std::uint64_t seed)
{
    return tss::starss::makeCholeskyProgram(seed, 12, 12);
}

std::unique_ptr<tss::starss::RealProgram>
sweepJacobi(std::uint64_t seed)
{
    return tss::starss::makeJacobiProgram(seed, 24, 32, 10);
}

std::unique_ptr<tss::starss::RealProgram>
sweepCholeskyQuick(std::uint64_t seed)
{
    return tss::starss::makeCholeskyProgram(seed, 9, 8);
}

std::unique_ptr<tss::starss::RealProgram>
sweepJacobiQuick(std::uint64_t seed)
{
    return tss::starss::makeJacobiProgram(seed, 16, 32, 6);
}

void
shardSweep(bool csv, bool quick)
{
    const std::vector<unsigned> pipeline_counts = {1, 2, 4, 8};
    constexpr unsigned genThreads = 8;

    struct Prog
    {
        const char *name;
        std::unique_ptr<tss::starss::RealProgram> (*make)(std::uint64_t);
    };
    const Prog full[] = {
        {"cholesky", sweepCholesky},
        {"jacobi", sweepJacobi},
    };
    const Prog small[] = {
        {"cholesky", sweepCholeskyQuick},
        {"jacobi", sweepJacobiQuick},
    };
    const Prog *programs = quick ? small : full;

    std::cout << "\nSharded frontend: shared-data decode scaling ("
              << genThreads << " generating threads, round-robin, "
              << "no data partitioning)\n\n";

    std::vector<std::string> header{"Program", "Tasks"};
    for (unsigned p : pipeline_counts)
        header.push_back(std::to_string(p) + "p [cy/task]");
    header.push_back("1p->4p");
    tss::TablePrinter table(std::move(header));

    for (unsigned pi = 0; pi < 2; ++pi) {
        const Prog &prog = programs[pi];
        auto reference = prog.make(1);
        reference->context().runSequential();
        std::vector<std::uint8_t> expected = reference->snapshot();

        std::vector<std::string> row{prog.name, ""};
        double decode1 = 0, decode4 = 0;
        for (unsigned pipes : pipeline_counts) {
            auto program = prog.make(1);
            // Decode on the relocated trace (deterministic shardOf
            // routing); replay the decision on the real program — the
            // renamed graph is relocation-invariant.
            tss::TaskTrace trace = program->context().relocatedTrace();
            row[1] = std::to_string(trace.size());

            tss::PipelineConfig cfg = tss::paperConfig(64);
            cfg.numPipelines = pipes;
            tss::RunResult decision = tss::runHardware(cfg, trace, genThreads);

            tss::DepGraph renamed =
                tss::DepGraph::build(trace, tss::Semantics::Renamed);
            if (!renamed.isTopologicalOrder(decision.startOrder)) {
                std::cerr << "BUG: " << prog.name << " at " << pipes
                          << " pipelines started out of dependence "
                          << "order\n";
                std::exit(1);
            }

            tss::starss::ParallelExecutor exec(program->context());
            exec.runReplay(decision);
            if (program->snapshot() != expected) {
                std::cerr << "BUG: " << prog.name << " at " << pipes
                          << " pipelines diverged from sequential "
                          << "execution\n";
                std::exit(1);
            }

            row.push_back(
                tss::TablePrinter::num(decision.decodeRateCycles));
            if (pipes == 1)
                decode1 = decision.decodeRateCycles;
            if (pipes == 4)
                decode4 = decision.decodeRateCycles;
        }
        row.push_back(decode4 > 0
                          ? tss::TablePrinter::num(decode1 / decode4) +
                                "x"
                          : "-");
        table.addRow(row);
    }

    if (csv)
        table.printCsv(std::cout);
    else
        table.print(std::cout);
    std::cout << "\nAll shard counts replayed bit-identical to "
              << "sequential execution.\n";
}

} // namespace

int
main(int argc, char **argv)
{
    tss::CliArgs args(argc, argv);
    double scale = args.scale(0.12, 1.0, 0.4);
    const std::vector<unsigned> processors = {32, 64, 128, 256};

    std::cout << "Figure 16: task superscalar vs software runtime "
              << "speedups (scale=" << scale << ")\n\n";

    tss::TablePrinter table({"Benchmark", "System", "32p", "64p",
                             "128p", "256p"});

    std::vector<double> hw_avg(processors.size(), 0);
    std::vector<double> sw_avg(processors.size(), 0);
    unsigned count = 0;

    std::string only = args.get("workload", "");
    for (const auto &info : tss::allWorkloads()) {
        if (!only.empty() && info.name != only)
            continue;
        tss::WorkloadParams params;
        params.scale = scale;
        params.seed = args.getLong("seed", 1);
        tss::TaskTrace trace = info.generate(params);

        std::vector<std::string> hw_row{info.name, "task superscalar"};
        std::vector<std::string> sw_row{"", "software runtime"};
        for (std::size_t i = 0; i < processors.size(); ++i) {
            unsigned p = processors[i];
            tss::PipelineConfig cfg = tss::paperConfig(p);
            tss::RunResult hw = tss::runHardware(cfg, trace);
            hw_row.push_back(tss::TablePrinter::num(hw.speedup));
            hw_avg[i] += hw.speedup;

            tss::SwRuntimeConfig sw_cfg;
            sw_cfg.numCores = p;
            tss::SwRunResult sw = tss::runSoftware(sw_cfg, trace);
            sw_row.push_back(tss::TablePrinter::num(sw.speedup));
            sw_avg[i] += sw.speedup;

            if (args.has("stats") && p == 256) {
                auto gauge = [&hw](const char *name, double scale = 1) {
                    return tss::TablePrinter::num(
                        hw.metrics.gauge(name) * scale);
                };
                std::cerr << info.name << " @256p: decode "
                          << tss::TablePrinter::num(hw.decodeRateNs)
                          << " ns/task, window avg/peak "
                          << gauge("frontend.tasks_in_flight_avg") << "/"
                          << gauge("frontend.tasks_in_flight_peak")
                          << ", chains p95/max "
                          << gauge("frontend.chain_consumers_p95") << "/"
                          << gauge("frontend.chain_consumers_max")
                          << ", frag "
                          << gauge("frontend.fragmentation_mean", 100)
                          << "%, 1-cycle allocs "
                          << gauge("frontend.sram_hit_rate", 100)
                          << "%\n";
            }
        }
        table.addRow(hw_row);
        table.addRow(sw_row);
        ++count;
    }

    if (count > 1) {
        std::vector<std::string> hw_row{"Average", "task superscalar"};
        std::vector<std::string> sw_row{"", "software runtime"};
        for (std::size_t i = 0; i < processors.size(); ++i) {
            hw_row.push_back(tss::TablePrinter::num(hw_avg[i] / count));
            sw_row.push_back(tss::TablePrinter::num(sw_avg[i] / count));
        }
        table.addRow(hw_row);
        table.addRow(sw_row);
    }

    if (args.has("csv"))
        table.printCsv(std::cout);
    else
        table.print(std::cout);

    std::cout << "\nPaper reference: hardware average 183x at 256p "
              << "(range 95-255x); software saturates at 32-64p "
              << "except Knn/H264.\n";

    if (only.empty())
        shardSweep(args.has("csv"), scale < 0.2);
    return 0;
}
