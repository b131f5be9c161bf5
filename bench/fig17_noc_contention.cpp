/**
 * @file
 * NoC contention sweep ("figure 17" — beyond the paper): how much of
 * the sharded frontend's multi-pipeline decode scaling survives
 * realistic interconnect distances, and how much gateway-side packet
 * batching buys back.
 *
 * Panel 1 sweeps topology (ring / 2D mesh / fixed-latency oracle) x
 * station placement (adjacent / spread / random, noc/placement.hh) x
 * operand batching (64 B DecodeBatch packets) with slice packet
 * credits enabled (PipelineConfig::slicePacketCredits), so the
 * gateway->slice->gateway round trip is on the decode path. Programs:
 *
 *  - "wide": a deterministic synthetic shared-data program of
 *    12-operand tasks over a small object pool — the ROADMAP's "wide
 *    tasks" regime where several operands of a task land on the same
 *    slice. This program carries the acceptance-shape gates: spread
 *    placement must degrade decode throughput vs adjacent, and
 *    batching under spread must recover a measurable fraction.
 *  - blocked Cholesky and Jacobi (the shared-data real programs of
 *    fig16): realistic narrow-task reference rows. Their tasks have
 *    3-5 operands over totalOrt slices, so batches rarely fill —
 *    they show where batching does *not* pay. Their captured traces
 *    are *relocated* onto the synthetic AddressSpace
 *    (trace/relocate.hh), so these rows are bit-deterministic across
 *    runs and machines and CI-gated in BENCH_noc.json like the wide
 *    rows (before relocation, heap/ASLR addresses made their shardOf
 *    routing — and timing — vary run to run, and they were dropped).
 *    `--relocate-seed=N` re-lays the regions out by seeded shuffle
 *    for layout-sensitivity experiments (off the CI path).
 *
 * Panel 2 is the ticket-protocol cost ablation (ROADMAP item): the
 * same programs decoded with the real ordered-admission protocol vs
 * the idealAdmission oracle that admits operands at zero protocol
 * cost (frontend.decode_deferrals counts the parked operands).
 * Oracle decisions are never replayed — see PipelineConfig.
 *
 * Panel 3 sweeps --relocate-seed over the real-kernel programs: each
 * seeded layout is deterministic, but timing may shift between
 * layouts (addresses drive shardOf routing), so its rows are
 * *advisory* in BENCH_noc.json. The CSV also carries the pinned
 * minimum-safe OVT bound (tests/ovt_bound.hh) as capture metadata;
 * the compare_bench selftest cross-checks it against the baseline.
 *
 * Every non-oracle decision is checked against the renamed
 * dependency graph (start order must be topological) and the bench
 * exits non-zero on violation or on a failed shape gate. All
 * simulated metrics are deterministic, so CI gates them against
 * BENCH_noc.json via bench/compare_bench.py.
 *
 * Usage: fig17_noc_contention [--quick|--full] [--csv]
 *        [--trace=off|tail|full]
 *        [--pipes=N] [--gen-threads=N] [--credits=N]
 *        [--relocate-seed=N] [--relocate-align=N] [--sim-threads=N]
 *
 * `--sim-threads=N` sets PipelineConfig::simThreads, which must never
 * change a simulated number (the engine drains on one thread today;
 * sim/sim_engine.hh) — CI captures the sweep at 1 and 4 threads and
 * diffs the two JSONs exactly.
 */

#include <cstdlib>
#include <iostream>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "driver/cli.hh"
#include "driver/experiment.hh"
#include "driver/table.hh"
#include "graph/dep_graph.hh"
#include "workload/starss_programs.hh"

#include "../tests/ovt_bound.hh"

namespace
{

struct SweepProg
{
    std::string name;
    tss::TaskTrace trace;
    bool gated; ///< carries the acceptance-shape checks
};

struct SweepPoint
{
    tss::TopologyKind topology;
    tss::PlacementKind placement;
    bool batch;
};

std::string
pointKey(const SweepPoint &pt)
{
    return std::string(tss::toString(pt.topology)) + "/" +
        tss::toString(pt.placement) + (pt.batch ? "/batch" : "/solo");
}

int failures = 0;

void
checkTopological(const tss::TaskTrace &trace,
                 const tss::RunResult &decision, const std::string &prog,
                 const std::string &config)
{
    tss::DepGraph renamed =
        tss::DepGraph::build(trace, tss::Semantics::Renamed);
    if (!renamed.isTopologicalOrder(decision.startOrder)) {
        std::cerr << "BUG: " << prog << " [" << config
                  << "] started out of dependence order\n";
        ++failures;
    }
}

} // namespace

int
main(int argc, char **argv)
{
    tss::CliArgs args(argc, argv);
    tss::RunOptions opts = tss::RunOptions::parse(args);
    bool quick = args.scale(0.0, 1.0, 1.0) < 0.5; // --quick selects 0
    bool csv = args.has("csv");
    unsigned pipes = opts.pipes.value_or(4);
    unsigned gen_threads = opts.genThreads(8);
    unsigned credits = opts.credits.value_or(1);
    unsigned sim_threads = opts.simThreads.value_or(1);
    // --trace=off proves in CI that the default tail-mode tracer
    // never perturbs the gated simulated cells.
    const std::optional<tss::obs::TraceMode> trace_mode =
        opts.traceMode;

    // This bench CI-gates relocated real-kernel rows, so it relocates
    // unconditionally; --relocate-seed/--relocate-align still apply.
    tss::RelocationOptions reloc;
    opts.apply(reloc);

    // Real-kernel reference programs, relocated onto the synthetic
    // address space: every simulated number below is a pure function
    // of (program, config) — ASLR-free, CI-gateable. The programs
    // stay alive past the sweep for the relocation-seed panel.
    auto chol = quick ? tss::starss::makeCholeskyProgram(1, 9, 8)
                      : tss::starss::makeCholeskyProgram(1, 12, 12);
    auto jac = quick ? tss::starss::makeJacobiProgram(1, 16, 32, 6)
                     : tss::starss::makeJacobiProgram(1, 24, 32, 10);

    std::vector<SweepProg> programs;
    programs.push_back(
        {"wide", tss::genWideShared(quick ? 600 : 2000, 1), true});
    programs.push_back(
        {"cholesky", chol->context().relocatedTrace(reloc), false});
    programs.push_back(
        {"jacobi", jac->context().relocatedTrace(reloc), false});

    const SweepPoint sweep[] = {
        {tss::TopologyKind::Ring, tss::PlacementKind::Adjacent, false},
        {tss::TopologyKind::Ring, tss::PlacementKind::Adjacent, true},
        {tss::TopologyKind::Ring, tss::PlacementKind::Spread, false},
        {tss::TopologyKind::Ring, tss::PlacementKind::Spread, true},
        {tss::TopologyKind::Ring, tss::PlacementKind::Random, false},
        {tss::TopologyKind::Mesh, tss::PlacementKind::Adjacent, false},
        {tss::TopologyKind::Mesh, tss::PlacementKind::Spread, false},
        {tss::TopologyKind::Mesh, tss::PlacementKind::Spread, true},
        {tss::TopologyKind::Fixed, tss::PlacementKind::Adjacent, false},
    };

    std::cout << "Figure 17: NoC topology x placement x batching on "
              << "the sharded frontend\n(" << pipes << " pipelines, "
              << gen_threads << " generating threads, "
              << credits << " slice packet credits, shared data"
              << (quick ? ", --quick" : "") << ")\n\n";

    tss::TablePrinter table({"Program", "Topology", "Placement",
                             "Batch", "decode cy/task", "makespan",
                             "msgs", "lane-wait cy", "fill"});
    if (csv) {
        // Capture metadata: the minimum-safe OVT bound pinned by the
        // OvtCapacity tests rides along in BENCH_noc.json so the
        // compare_bench selftest can cross-check it.
        std::cout << "meta,ovt_min_safe_slots_per_slice,"
                  << tss::kMinSafeOvtSlotsPerSlice << "\n";
        std::cout << "sweep,program,topology,placement,batch,tasks,"
                  << "decode_cy,makespan,messages,lane_wait_cy,"
                  << "batch_fill\n";
    }

    for (const SweepProg &prog : programs) {
        std::map<std::string, double> decode;
        for (const SweepPoint &pt : sweep) {
            tss::PipelineConfig cfg = tss::paperConfig(256);
            cfg.numPipelines = pipes;
            cfg.slicePacketCredits = credits;
            cfg.simThreads = sim_threads;
            if (trace_mode)
                cfg.traceMode = *trace_mode;
            cfg.nocTopology = pt.topology;
            cfg.nocPlacement = pt.placement;
            cfg.batchOperands = pt.batch;
            tss::RunResult r = tss::runHardware(cfg, prog.trace, gen_threads);
            checkTopological(prog.trace, r, prog.name, pointKey(pt));
            decode[pointKey(pt)] = r.decodeRateCycles;
            std::uint64_t messages = r.metrics.counter("noc.messages");
            std::uint64_t lane_wait =
                r.metrics.counter("noc.lane_wait_cycles");
            double fill = r.metrics.gauge("frontend.batch_fill_mean");

            if (csv) {
                std::cout << "sweep," << prog.name << ","
                          << tss::toString(pt.topology) << ","
                          << tss::toString(pt.placement) << ","
                          << (pt.batch ? 1 : 0) << ","
                          << prog.trace.size() << ","
                          << r.decodeRateCycles << "," << r.makespan
                          << "," << messages << "," << lane_wait << ","
                          << fill << "\n";
            } else {
                table.addRow(
                    {prog.name, tss::toString(pt.topology),
                     tss::toString(pt.placement),
                     pt.batch ? "on" : "off",
                     tss::TablePrinter::num(r.decodeRateCycles),
                     std::to_string(r.makespan), std::to_string(messages),
                     std::to_string(lane_wait),
                     tss::TablePrinter::num(fill)});
            }
        }

        // The acceptance shape, on the wide-task program: a
        // realistic floorplan costs decode throughput, batching buys
        // a measurable fraction back.
        if (!prog.gated)
            continue;
        double adjacent = decode["ring/adjacent/solo"];
        double spread = decode["ring/spread/solo"];
        double spread_batched = decode["ring/spread/batch"];
        if (!(spread > adjacent * 1.02)) {
            std::cerr << "BUG: " << prog.name << ": spread placement "
                      << "did not degrade decode (" << spread << " vs "
                      << adjacent << " cy/task)\n";
            ++failures;
        }
        if (!(spread_batched < spread * 0.97)) {
            std::cerr << "BUG: " << prog.name << ": batching did not "
                      << "recover decode under spread placement ("
                      << spread_batched << " vs " << spread
                      << " cy/task)\n";
            ++failures;
        }
    }
    if (!csv)
        table.print(std::cout);

    // ------------------------------------------------ ticket ablation
    std::cout << "\nTicket-protocol cost (real ordered admission vs "
              << "idealAdmission oracle, ring/adjacent)\n\n";
    tss::TablePrinter ticket({"Program", "Pipes", "real cy/task",
                              "ideal cy/task", "overhead",
                              "deferrals"});
    if (csv) {
        std::cout << "ticket,program,pipes,decode_real_cy,"
                  << "decode_ideal_cy,overhead_pct,deferrals\n";
    }

    for (const SweepProg &prog : programs) {
        for (unsigned p : {1u, pipes}) {
            double real = 0, ideal = 0;
            std::uint64_t deferrals = 0;
            for (bool oracle : {false, true}) {
                tss::PipelineConfig cfg = tss::paperConfig(256);
                cfg.numPipelines = p;
                cfg.slicePacketCredits = credits;
                cfg.simThreads = sim_threads;
                if (trace_mode)
                    cfg.traceMode = *trace_mode;
                cfg.idealAdmission = oracle;
                tss::RunResult r = tss::runHardware(
                    cfg, prog.trace, gen_threads);
                if (!oracle) {
                    checkTopological(prog.trace, r, prog.name,
                                     "ticket");
                    real = r.decodeRateCycles;
                    deferrals =
                        r.metrics.counter("frontend.decode_deferrals");
                } else {
                    ideal = r.decodeRateCycles;
                }
            }
            double overhead =
                ideal > 0 ? (real - ideal) / ideal * 100.0 : 0;
            if (csv) {
                std::cout << "ticket," << prog.name << "," << p << ","
                          << real << "," << ideal << "," << overhead
                          << "," << deferrals << "\n";
            } else {
                ticket.addRow({prog.name, std::to_string(p),
                               tss::TablePrinter::num(real),
                               tss::TablePrinter::num(ideal),
                               tss::TablePrinter::num(overhead) + "%",
                               std::to_string(deferrals)});
            }
        }
    }
    if (!csv)
        ticket.print(std::cout);

    // -------------------------------------- relocation layout panel
    // Layout sensitivity of the relocated real-kernel rows: the same
    // captured programs re-laid-out by seeded shuffle
    // (RelocationOptions::layoutSeed, the --relocate-seed axis). Each
    // seed is individually deterministic, but decode timing may
    // legitimately shift with the layout (shardOf routing follows the
    // addresses), so these rows are *advisory* in BENCH_noc.json —
    // they document the spread, they do not gate.
    std::cout << "\nRelocation layout sensitivity "
              << "(--relocate-seed sweep, ring/adjacent)\n\n";
    tss::TablePrinter relocTable({"Program", "Seed", "decode cy/task",
                                  "makespan", "msgs"});
    if (csv) {
        std::cout << "relocate,program,seed,decode_cy,makespan,"
                  << "messages\n";
    }
    struct RelocProg
    {
        std::string name;
        tss::starss::RealProgram *program;
    };
    const RelocProg reloc_programs[] = {{"cholesky", chol.get()},
                                        {"jacobi", jac.get()}};
    for (const RelocProg &prog : reloc_programs) {
        for (std::uint64_t seed : {0ULL, 1ULL, 2ULL}) {
            tss::RelocationOptions opts = reloc;
            opts.layoutSeed = seed;
            tss::TaskTrace trace =
                prog.program->context().relocatedTrace(opts);

            tss::PipelineConfig cfg = tss::paperConfig(256);
            cfg.numPipelines = pipes;
            cfg.slicePacketCredits = credits;
            cfg.simThreads = sim_threads;
            if (trace_mode)
                cfg.traceMode = *trace_mode;
            tss::RunResult r = tss::runHardware(cfg, trace, gen_threads);
            checkTopological(trace, r, prog.name,
                             "relocate-seed " + std::to_string(seed));
            std::uint64_t messages = r.metrics.counter("noc.messages");

            if (csv) {
                std::cout << "relocate," << prog.name << "," << seed
                          << "," << r.decodeRateCycles << ","
                          << r.makespan << "," << messages << "\n";
            } else {
                relocTable.addRow(
                    {prog.name, std::to_string(seed),
                     tss::TablePrinter::num(r.decodeRateCycles),
                     std::to_string(r.makespan),
                     std::to_string(messages)});
            }
        }
    }
    if (!csv)
        relocTable.print(std::cout);

    if (failures) {
        std::cerr << "\n" << failures << " check(s) failed\n";
        return 1;
    }
    std::cout << "\nAll start orders topological; sweep shape checks "
              << "passed.\n";
    return 0;
}
