/**
 * @file
 * tss-serve: the always-on multi-tenant trace service daemon.
 *
 * Listens on an AF_UNIX socket, admits streaming task-program
 * submissions from concurrent tenants, rebases every tenant's
 * operand addresses into a disjoint carve of the synthetic address
 * space, simulates each program on the configured task superscalar
 * machine, and reports per-tenant latency percentiles and throughput.
 *
 * Runs until a client sends Shutdown; the service then drains
 * gracefully (every accepted job completes) and the final report
 * JSON goes to stdout.
 *
 * Usage:
 *   tss-serve --socket=/tmp/tss.sock
 *       [machine knobs: --pipes=N --trs=N --ort=N --cores=N
 *        --sim-threads=N --topology=... --credits=N ...]
 *       [service knobs: --gen-threads=N --admit-queue=N
 *        --stage-queue=N --parse-workers=N --admit-workers=N
 *        --execute-workers=N --carve-mb=N]
 *       [observability: --job-traces --max-events-per-job=N, plus
 *        the shared --trace/--trace-filter/--trace-tail knobs]
 *
 * With --job-traces every job simulates under a full flight recorder;
 * a tenant fetches its latest job's Chrome trace (with wall-clock
 * serve-stage slices spliced in) via the Trace wire message. Wedged
 * tenant programs no longer kill the daemon: they retire as wedged
 * jobs whose liveness diagnosis (slice occupancy, culprit operand,
 * flight-recorder tail) lands in the Stats report.
 */

#include <csignal>
#include <iostream>

#include "driver/cli.hh"
#include "driver/run_options.hh"
#include "serve/server.hh"
#include "serve/service.hh"

int
main(int argc, char **argv)
{
    // A client that disconnects mid-reply must fail that one write
    // (writeFrame returns false), not kill the daemon with SIGPIPE.
    std::signal(SIGPIPE, SIG_IGN);

    tss::CliArgs args(argc, argv);
    tss::RunOptions opts = tss::RunOptions::parse(args);

    tss::serve::ServeConfig cfg;
    cfg.machine.numCores = 128;
    opts.apply(cfg.machine);
    cfg.genThreads = opts.genThreads(1);
    cfg.admitCapacity = args.getUnsigned("admit-queue", 8);
    cfg.stageCapacity = args.getUnsigned("stage-queue", 8);
    cfg.parseWorkers = args.getUnsigned("parse-workers", 1);
    cfg.admitWorkers = args.getUnsigned("admit-workers", 1);
    cfg.executeWorkers = args.getUnsigned("execute-workers", 2);
    cfg.carveBytes = std::uint64_t(args.getUnsigned("carve-mb", 256)) << 20;
    cfg.recordJobTraces = args.has("job-traces");
    long max_events = args.getLong("max-events-per-job", 0);
    if (max_events > 0)
        cfg.maxEventsPerJob = static_cast<std::uint64_t>(max_events);

    std::string socket_path =
        args.get("socket", "/tmp/tss-serve.sock");

    tss::serve::TraceService service(cfg);
    tss::serve::SocketServer server(service, socket_path);
    if (!server.start())
        return 1;

    std::cerr << "tss-serve: listening on " << socket_path << "\n";
    server.waitShutdown();
    server.stop();

    std::cout << tss::serve::toJson(service.report());
    std::cerr << "tss-serve: drained, exiting\n";
    return 0;
}
