/**
 * @file
 * tss-serve tests: disjoint per-tenant address-space carving,
 * backpressure under saturating load, graceful drain completing every
 * admitted job (the ctest TIMEOUT is the watchdog — a drain that
 * hangs fails the suite), the framed socket protocol end-to-end,
 * wedged-job survival with a liveness diagnosis in the report, the
 * parser's reason for a malformed submission in the report, the
 * job-trace round trip under --job-traces and the trace filter's say
 * over its serve-stage slices, the socket server reaping
 * finished connection handlers, and the Session lifecycle contract.
 */

#include <chrono>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include <sys/socket.h>
#include <unistd.h>

#include <gtest/gtest.h>

#include "runtime/parallel_exec.hh"
#include "runtime/session.hh"
#include "serve/client.hh"
#include "serve/protocol.hh"
#include "serve/server.hh"
#include "serve/service.hh"
#include "workload/address_space.hh"
#include "workload/builder.hh"

namespace tss::serve
{
namespace
{

/** A dependency chain: task i reads object i-1 and writes object i. */
TaskTrace
chainProgram(unsigned tasks, std::uint64_t base, Cycle runtime = 400)
{
    TaskTrace trace;
    trace.name = "chain";
    auto kernel = trace.addKernel("link");
    TaskBuilder b(trace);
    AddressSpace mem(base);
    std::vector<std::uint64_t> objs;
    for (unsigned i = 0; i <= tasks; ++i)
        objs.push_back(mem.alloc(256));
    for (unsigned i = 0; i < tasks; ++i) {
        b.begin(kernel, runtime)
            .in(objs[i], 256)
            .out(objs[i + 1], 256);
        b.commit();
    }
    return trace;
}

ServeConfig
tinyServeConfig()
{
    ServeConfig cfg;
    cfg.machine.numCores = 8;
    cfg.machine.trsTotalBytes = 256 * 1024;
    cfg.machine.ortTotalBytes = 128 * 1024;
    cfg.machine.ovtTotalBytes = 128 * 1024;
    cfg.carveBytes = 1 << 20;
    return cfg;
}

const TenantReport &
tenantOf(const ServiceReport &report, TenantId id)
{
    for (const auto &t : report.tenants)
        if (t.id == id)
            return t;
    ADD_FAILURE() << "tenant " << id << " missing from report";
    return report.tenants.front();
}

TEST(Serve, TenantCarvesAreDisjoint)
{
    TraceService service(tinyServeConfig());
    TenantId a = service.openTenant("a");
    TenantId b = service.openTenant("b");
    TenantId c = service.openTenant("c");

    for (TenantId t : {a, b, c})
        EXPECT_LT(service.carveBaseOf(t), service.carveEndOf(t));
    EXPECT_LE(service.carveEndOf(a), service.carveBaseOf(b));
    EXPECT_LE(service.carveEndOf(b), service.carveBaseOf(c));

    // A session sealed at a tenant's carve base keeps every
    // relocated region inside the carve — the admit-stage invariant.
    Session session = Session::forTrace("carved");
    session.submitTrace(chainProgram(64, 0x7000'0000));
    RelocationOptions opts;
    opts.targetBase = service.carveBaseOf(b);
    session.seal(opts);
    for (const RelocatedRegion &r : session.relocationMap().regions()) {
        EXPECT_GE(r.targetBase, service.carveBaseOf(b));
        EXPECT_LE(r.targetBase + r.bytes, service.carveEndOf(b));
    }
}

TEST(Serve, CompletesConcurrentTenantJobs)
{
    TraceService service(tinyServeConfig());
    TenantId a = service.openTenant("alpha");
    TenantId b = service.openTenant("beta");

    // Both tenants submit the same program; distinct carves mean the
    // simulated directories never alias even while jobs execute
    // concurrently.
    unsigned accepted_a = 0, accepted_b = 0;
    for (unsigned i = 0; i < 6; ++i) {
        while (service.submit(a, chainProgram(40, 0x5000'0000))
                   .status != SubmitStatus::Accepted)
            ;
        ++accepted_a;
        while (service.submit(b, chainProgram(40, 0x5000'0000))
                   .status != SubmitStatus::Accepted)
            ;
        ++accepted_b;
    }
    service.waitIdle();

    ServiceReport report = service.report();
    EXPECT_EQ(tenantOf(report, a).completed, accepted_a);
    EXPECT_EQ(tenantOf(report, b).completed, accepted_b);
    EXPECT_EQ(tenantOf(report, a).simulatedTasks, 40u * accepted_a);
    EXPECT_EQ(tenantOf(report, a).simMakespanCycles.count, accepted_a);
    EXPECT_GT(tenantOf(report, a).simMakespanCycles.p50, 0);

    // Same program, same carve → the same deterministic makespan on
    // every submission, so p50 == p99 == max.
    const PercentileSummary &s = tenantOf(report, a).simMakespanCycles;
    EXPECT_EQ(s.p50, s.p99);
    EXPECT_EQ(s.p50, s.max);
}

TEST(Serve, BackpressureEngagesUnderOpenLoopLoad)
{
    ServeConfig cfg = tinyServeConfig();
    cfg.admitCapacity = 1;
    cfg.stageCapacity = 1;
    cfg.parseWorkers = 1;
    cfg.admitWorkers = 1;
    cfg.executeWorkers = 1;
    TraceService service(cfg);
    TenantId tenant = service.openTenant("firehose");

    // Open loop: fire submissions with no retry, far faster than one
    // execute worker can simulate 800-task programs. The bounded
    // stages must bounce some of them instead of buffering all.
    TaskTrace program = chainProgram(800, 0x5000'0000);
    unsigned accepted = 0, busy = 0;
    for (unsigned i = 0; i < 64; ++i) {
        SubmitResult r = service.submit(tenant, program);
        if (r.status == SubmitStatus::Accepted)
            ++accepted;
        else if (r.status == SubmitStatus::Busy)
            ++busy;
    }
    EXPECT_GT(busy, 0u);
    EXPECT_GT(accepted, 0u);

    service.waitIdle();
    ServiceReport report = service.report();
    EXPECT_EQ(tenantOf(report, tenant).completed, accepted);
    EXPECT_EQ(tenantOf(report, tenant).busyRejections, busy);
}

TEST(Serve, GracefulDrainCompletesEveryAdmittedJob)
{
    ServeConfig cfg = tinyServeConfig();
    cfg.admitCapacity = 16;
    TraceService service(cfg);
    TenantId tenant = service.openTenant("drainer");

    unsigned accepted = 0;
    for (unsigned i = 0; i < 12; ++i) {
        while (service.submit(tenant, chainProgram(100, 0x5000'0000))
                   .status != SubmitStatus::Accepted)
            ;
        ++accepted;
    }
    service.drain();

    EXPECT_EQ(service.submit(tenant, chainProgram(4, 0x5000'0000))
                  .status,
              SubmitStatus::Closed);

    ServiceReport report = service.report();
    EXPECT_TRUE(report.drained);
    EXPECT_EQ(tenantOf(report, tenant).admitted, accepted);
    EXPECT_EQ(tenantOf(report, tenant).completed, accepted);
    EXPECT_EQ(report.parseDepth + report.admitDepth +
                  report.executeDepth + report.reportDepth,
              0u);
}

TEST(Serve, MalformedSubmissionRejectedNotFatal)
{
    TraceService service(tinyServeConfig());
    TenantId tenant = service.openTenant("garbled");
    ASSERT_EQ(service.submitText(tenant, "trace x\nnot a line\n")
                  .status,
              SubmitStatus::Accepted);
    service.waitIdle();
    ServiceReport report = service.report();
    EXPECT_EQ(tenantOf(report, tenant).rejectedParse, 1u);
    EXPECT_EQ(tenantOf(report, tenant).completed, 0u);
}

TEST(Serve, ParseErrorReasonReachesTheReport)
{
    TraceService service(tinyServeConfig());
    TenantId tenant = service.openTenant("say \"hi\"\n");
    ASSERT_EQ(service.submitText(tenant, "kernel 0 k\ntask 3 100 0\n")
                  .status,
              SubmitStatus::Accepted);
    service.waitIdle();
    ServiceReport first = service.report();
    EXPECT_EQ(tenantOf(first, tenant).lastParseError,
              "line 2: task names undeclared kernel 3: 'task 3 100 0'");

    // The latest reason replaces the earlier one, and the Report
    // escapes it and the tenant name into JSON strings.
    ASSERT_EQ(service.submitText(tenant, "kernel 0 k\nbad \"x\"\t\\\n")
                  .status,
              SubmitStatus::Accepted);
    service.waitIdle();
    ServiceReport report = service.report();
    EXPECT_EQ(tenantOf(report, tenant).rejectedParse, 2u);
    EXPECT_EQ(tenantOf(report, tenant).lastParseError,
              "line 2: unknown tag 'bad': 'bad \"x\"\t\\'");
    std::string json = toJson(report);
    EXPECT_NE(json.find("\"name\": \"say \\\"hi\\\"\\u000a\""),
              std::string::npos)
        << json;
    EXPECT_NE(json.find("\"last_parse_error\": \"line 2: unknown tag "
                        "'bad': 'bad \\\"x\\\"\\u0009\\\\'\""),
              std::string::npos)
        << json;
}

TEST(Serve, CarveOverflowRejected)
{
    ServeConfig cfg = tinyServeConfig();
    cfg.carveBytes = 4096; // room for a handful of 256 B regions
    TraceService service(cfg);
    TenantId tenant = service.openTenant("hog");
    ASSERT_EQ(service.submit(tenant, chainProgram(200, 0x5000'0000))
                  .status,
              SubmitStatus::Accepted);
    service.waitIdle();
    ServiceReport report = service.report();
    EXPECT_EQ(tenantOf(report, tenant).rejectedCarve, 1u);
    EXPECT_EQ(tenantOf(report, tenant).completed, 0u);
}

TEST(Serve, WedgedJobSurvivesAndIsDiagnosed)
{
    // A starvation-tight event budget makes every job retire as
    // Wedged; the daemon must survive, report the diagnosis, and keep
    // completing later work once the budget is sane again.
    ServeConfig cfg = tinyServeConfig();
    cfg.maxEventsPerJob = 50;
    TraceService service(cfg);
    TenantId tenant = service.openTenant("stuck");

    ASSERT_EQ(service.submit(tenant, chainProgram(30, 0x5000'0000))
                  .status,
              SubmitStatus::Accepted);
    service.waitIdle();

    ServiceReport report = service.report();
    EXPECT_EQ(tenantOf(report, tenant).wedged, 1u);
    EXPECT_EQ(tenantOf(report, tenant).completed, 0u);
    const std::string &wedge = tenantOf(report, tenant).lastWedgeJson;
    ASSERT_FALSE(wedge.empty());
    EXPECT_NE(wedge.find("\"completed\": false"), std::string::npos);
    EXPECT_NE(wedge.find("\"slices\""), std::string::npos);

    std::string json = toJson(report);
    EXPECT_NE(json.find("\"wedged\": 1"), std::string::npos);
    EXPECT_NE(json.find("\"last_wedge\""), std::string::npos);
    EXPECT_NE(json.find("\"sim_makespan_cycles\""), std::string::npos);

    // The service is still healthy: drain retires everything.
    service.drain();
    EXPECT_TRUE(service.report().drained);
}

TEST(Serve, JobTraceRoundTripsOverSocket)
{
    std::ostringstream path;
    path << "/tmp/tss-serve-trace-" << ::getpid() << ".sock";

    ServeConfig cfg = tinyServeConfig();
    cfg.recordJobTraces = true;
    TraceService service(cfg);
    SocketServer server(service, path.str());
    ASSERT_TRUE(server.start());

    ServeClient client;
    ASSERT_TRUE(client.connect(path.str()));
    TenantId id = 0;
    std::uint64_t base = 0, end = 0;
    ASSERT_TRUE(client.hello("tracer", id, base, end));

    // No job has finished yet: the Trace message reports an error.
    std::string json;
    EXPECT_FALSE(client.trace(json));

    JobId job = 0;
    while (client.submit(chainProgram(12, 0x5000'0000), job) !=
           SubmitStatus::Accepted)
        ;
    service.waitIdle();

    ASSERT_TRUE(client.trace(json));
    ASSERT_FALSE(json.empty());
    // Simulated-cycle events plus the wall-clock serve-stage slices,
    // spliced into one well-formed Chrome document.
    EXPECT_NE(json.find("task.retire"), std::string::npos);
    EXPECT_NE(json.find("serve.parse"), std::string::npos);
    EXPECT_NE(json.find("serve.execute"), std::string::npos);
    EXPECT_EQ(json.substr(json.size() - 4), "\n]}\n");
    EXPECT_EQ(json, service.lastTraceJson(id));

    ASSERT_TRUE(client.shutdown());
    server.waitShutdown();
    server.stop();
}

TEST(Serve, JobTracesCarryServeSlicesOnlyUnderTheServeFilter)
{
    for (const char *filter : {"task", "serve"}) {
        SCOPED_TRACE(filter);
        ServeConfig cfg = tinyServeConfig();
        cfg.recordJobTraces = true;
        cfg.machine.traceFilter = obs::parseTraceFilter(filter);
        TraceService service(cfg);
        TenantId tenant = service.openTenant("filtered");
        ASSERT_EQ(service.submit(tenant, chainProgram(12, 0x5000'0000))
                      .status,
                  SubmitStatus::Accepted);
        service.waitIdle();
        std::string json = service.lastTraceJson(tenant);
        ASSERT_FALSE(json.empty());
        const bool serve = std::string(filter) == "serve";
        EXPECT_EQ(json.find("task.retire") != std::string::npos, !serve);
        EXPECT_EQ(json.find("serve.parse") != std::string::npos, serve);
        EXPECT_EQ(json.find("serve.execute") != std::string::npos,
                  serve);
    }
}

TEST(Serve, SimMakespanIsDeterministicAcrossServices)
{
    auto run = [] {
        TraceService service(tinyServeConfig());
        TenantId a = service.openTenant("a");
        TenantId b = service.openTenant("b");
        for (unsigned i = 0; i < 4; ++i) {
            while (service
                       .submit(a, chainProgram(64, 0x5000'0000, 300))
                       .status != SubmitStatus::Accepted)
                ;
            while (service
                       .submit(b, chainProgram(32, 0x6000'0000, 500))
                       .status != SubmitStatus::Accepted)
                ;
        }
        service.drain();
        return service.report();
    };
    ServiceReport first = run();
    ServiceReport second = run();
    for (std::size_t i = 0; i < first.tenants.size(); ++i) {
        const PercentileSummary &x = first.tenants[i].simMakespanCycles;
        const PercentileSummary &y =
            second.tenants[i].simMakespanCycles;
        EXPECT_EQ(x.p50, y.p50);
        EXPECT_EQ(x.p95, y.p95);
        EXPECT_EQ(x.p99, y.p99);
        EXPECT_EQ(x.max, y.max);
    }
}

TEST(Serve, TraceTextRoundTrips)
{
    TaskTrace program = chainProgram(10, 0x5000'0000);
    TaskTrace parsed;
    ASSERT_TRUE(parseTraceText(formatTraceText(program), parsed));
    ASSERT_EQ(parsed.size(), program.size());
    EXPECT_EQ(parsed.kernelNames, program.kernelNames);
    for (std::size_t i = 0; i < parsed.size(); ++i) {
        EXPECT_EQ(parsed.tasks[i].kernel, program.tasks[i].kernel);
        EXPECT_EQ(parsed.tasks[i].runtime, program.tasks[i].runtime);
        ASSERT_EQ(parsed.tasks[i].operands.size(),
                  program.tasks[i].operands.size());
        for (std::size_t j = 0; j < parsed.tasks[i].operands.size();
             ++j) {
            EXPECT_EQ(parsed.tasks[i].operands[j].addr,
                      program.tasks[i].operands[j].addr);
            EXPECT_EQ(parsed.tasks[i].operands[j].bytes,
                      program.tasks[i].operands[j].bytes);
        }
    }

    TaskTrace bad;
    EXPECT_FALSE(parseTraceText("bogus 1 2 3\n", bad));
    EXPECT_FALSE(parseTraceText("task 0 100 1\n", bad)); // no kernel
    // A huge operand count once aborted the daemon in reserve().
    EXPECT_FALSE(parseTraceText(
        "kernel 0 k\ntask 0 1 18446744073709551615\n", bad));
}

TEST(Serve, SocketEndToEnd)
{
    std::ostringstream path;
    path << "/tmp/tss-serve-test-" << ::getpid() << ".sock";

    ServeConfig cfg = tinyServeConfig();
    TraceService service(cfg);
    SocketServer server(service, path.str());
    ASSERT_TRUE(server.start());

    ServeClient alpha, beta;
    ASSERT_TRUE(alpha.connect(path.str()));
    ASSERT_TRUE(beta.connect(path.str()));

    TenantId id_a = 0, id_b = 0;
    std::uint64_t base_a = 0, end_a = 0, base_b = 0, end_b = 0;
    ASSERT_TRUE(alpha.hello("alpha", id_a, base_a, end_a));
    ASSERT_TRUE(beta.hello("beta", id_b, base_b, end_b));
    EXPECT_NE(id_a, id_b);
    EXPECT_LE(std::min(end_a, end_b), std::max(base_a, base_b));

    TaskTrace program = chainProgram(50, 0x5000'0000);
    unsigned accepted = 0;
    for (unsigned i = 0; i < 4; ++i) {
        JobId job = 0;
        while (alpha.submit(program, job) != SubmitStatus::Accepted)
            ;
        EXPECT_GT(job, 0u);
        while (beta.submit(program, job) != SubmitStatus::Accepted)
            ;
        ++accepted;
    }
    service.waitIdle();

    std::string json;
    ASSERT_TRUE(alpha.stats(json));
    EXPECT_NE(json.find("\"tenants\""), std::string::npos);
    EXPECT_NE(json.find("\"sim_makespan_cycles\""), std::string::npos);
    EXPECT_NE(json.find("\"alpha\""), std::string::npos);
    EXPECT_NE(json.find("\"beta\""), std::string::npos);

    ASSERT_TRUE(beta.shutdown());
    server.waitShutdown();
    server.stop();

    ServiceReport report = service.report();
    EXPECT_TRUE(report.drained);
    EXPECT_EQ(tenantOf(report, id_a).completed, accepted);
    EXPECT_EQ(tenantOf(report, id_b).completed, accepted);
}

TEST(Serve, FinishedConnectionsAreReaped)
{
    std::ostringstream path;
    path << "/tmp/tss-serve-reap-" << ::getpid() << ".sock";

    TraceService service(tinyServeConfig());
    SocketServer server(service, path.str());
    ASSERT_TRUE(server.start());

    TenantId id = 0;
    std::uint64_t base = 0, end = 0;
    for (unsigned i = 0; i < 100; ++i) {
        ServeClient client;
        ASSERT_TRUE(client.connect(path.str()));
        ASSERT_TRUE(client.hello("cycler", id, base, end));
    }
    auto awaitIdle = [&server] {
        for (unsigned ms = 0; server.liveConnections() > 0 && ms < 10000;
             ++ms)
            std::this_thread::sleep_for(std::chrono::milliseconds(1));
        return server.liveConnections();
    };
    ASSERT_EQ(awaitIdle(), 0u);

    // The next arrival joins every finished handler: the server holds
    // the live connection's thread and nothing else.
    {
        ServeClient client;
        ASSERT_TRUE(client.connect(path.str()));
        ASSERT_TRUE(client.hello("cycler", id, base, end));
        EXPECT_EQ(server.heldHandlers(), 1u);
    }
    ASSERT_EQ(awaitIdle(), 0u);

    // A socket opened now takes the descriptor numbers the closed
    // connections used; stop() must sever live connections only.
    int pair[2];
    ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, pair), 0);
    server.stop();
    char sent = 'x', got = 0;
    EXPECT_EQ(::send(pair[0], &sent, 1, MSG_NOSIGNAL), 1);
    EXPECT_EQ(::recv(pair[1], &got, 1, 0), 1);
    EXPECT_EQ(got, 'x');
    ::close(pair[0]);
    ::close(pair[1]);
    service.drain();
}

TEST(SessionLifecycleDeathTest, SubmitAfterSealDies)
{
    ::testing::FLAGS_gtest_death_test_style = "threadsafe";
    Session session = Session::forTrace("late");
    session.submitTrace(chainProgram(4, 0x5000'0000));
    session.seal();
    EXPECT_EXIT(session.submitTrace(chainProgram(4, 0x5000'0000)),
                testing::ExitedWithCode(1), "after seal");
}

TEST(SessionLifecycleDeathTest, SimulateBeforeSealDies)
{
    ::testing::FLAGS_gtest_death_test_style = "threadsafe";
    Session session = Session::forTrace("early");
    session.submitTrace(chainProgram(4, 0x5000'0000));
    PipelineConfig cfg;
    EXPECT_EXIT((void)session.simulate(cfg),
                testing::ExitedWithCode(1), "before seal");
}

} // namespace
} // namespace tss::serve
