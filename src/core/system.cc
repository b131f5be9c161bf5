#include "system.hh"

#include <algorithm>
#include <fstream>
#include <numeric>
#include <sstream>
#include <unordered_map>

namespace tss
{

bool
isDataPartitioned(const TaskTrace &trace,
                  const std::vector<unsigned> &thread_of)
{
    std::unordered_map<std::uint64_t, unsigned> owner;
    for (std::size_t t = 0; t < trace.size(); ++t) {
        for (const auto &op : trace.tasks[t].operands) {
            if (!isMemoryOperand(op.dir))
                continue;
            auto [it, inserted] = owner.emplace(op.addr, thread_of[t]);
            if (!inserted && it->second != thread_of[t])
                return false;
        }
    }
    return true;
}

SystemBuilder &
SystemBuilder::roundRobin(unsigned num_threads)
{
    num_threads = std::max(num_threads, 1u);
    threadOf.resize(trace.size());
    for (std::size_t t = 0; t < trace.size(); ++t)
        threadOf[t] = static_cast<unsigned>(t % num_threads);
    return *this;
}

std::unique_ptr<System>
SystemBuilder::build()
{
    if (threadOf.empty())
        threadOf.assign(trace.size(), 0);
    if (threadOf.size() != trace.size())
        fatal("thread assignment size does not match the trace");
    unsigned num_threads = 1;
    for (unsigned t : threadOf)
        num_threads = std::max(num_threads, t + 1);

    // Generating threads that share memory objects run the directory
    // in ordered mode: operands carry object tickets, the slices
    // admit same-object accesses in program order, and the gateways
    // allocate window entries oldest-first with the ROB-head reserve.
    // Partitioned traces skip that machinery; with one pipeline they
    // keep the historical behavior bit-for-bit (pinned by goldens in
    // tests/test_sharded_frontend.cc). Partitioned *multi-pipeline*
    // traces still complete identically but route operands through
    // the global directory now, so their NoC traffic and timing
    // differ from the pre-shard per-pipeline hashing.
    bool shared_data =
        num_threads > 1 && !isDataPartitioned(trace, threadOf);
    // The idealAdmission oracle changes what ordered admission
    // *costs*, never whether it happens — the full machinery
    // (tickets, ordered allocation, watermark) stays on, so oracle
    // runs remain correct and replayable (see core/ort.cc).
    bool ordered = shared_data;
    // Sanity-check the machine (the capacities divide by the module
    // counts); the Footprint checks the trace against the TRS layout.
    if (cfg.numTrs == 0 || cfg.numOrt == 0 || cfg.numCores == 0)
        fatal("pipeline needs at least one TRS, ORT and core");
    if (cfg.numPipelines == 0)
        fatal("system needs at least one frontend pipeline");
    unsigned max_blocks = layout::blocksForOperands(layout::maxOperands);
    if (cfg.blocksPerTrs() < max_blocks)
        fatal("TRS capacity below a single maximal task allocation");

    // Threads feed pipelines round-robin; a thread's id within its
    // gateway must be dense for the gateway's fairness rotation.
    unsigned pipes = cfg.numPipelines;
    std::vector<unsigned> threads_in_pipe(pipes, 0);
    for (unsigned t = 0; t < num_threads; ++t)
        ++threads_in_pipe[t % pipes];

    // Host storage for what the trace can touch of each table.
    const Footprint footprint(cfg, trace);
    auto sys = std::unique_ptr<System>(
        new System(cfg, trace, footprint.trsBlocks));
    // Modules keep a reference to the config: hand them the copy the
    // System owns, not this builder's (which dies with the builder).
    const PipelineConfig &scfg = sys->cfg;
    sys->shared = shared_data;
    if (ordered)
        sys->registry.computeObjectTickets();

    // Event-queue shards: one NoC domain per pipeline plus a
    // dedicated backend domain. Pipeline p's frontend (gateway +
    // TRSs + ORT/OVT pairs) drains on shard p; the shared backend
    // (network, DMA, scheduler) on its own shard `pipes`, so
    // frontend windows never serialize behind it; sources and worker
    // cores round-robin over the pipeline domains (cores by
    // processor ring, so a ring never splits across shards).
    SimEngine &engine = *sys->engine;
    EventQueue &backendq = engine.shard(pipes);

    // NoC: worker cores plus one master core per task-generating
    // thread; frontend tiles carry the gateways, TRSs, ORT/OVT pairs
    // and the shared scheduler. Topology and station placement are
    // config knobs (see noc/topology.hh and noc/placement.hh).
    NocParams noc;
    noc.numCores = cfg.numCores + num_threads;
    noc.numFrontendTiles = cfg.frontendTiles();
    noc.placement = cfg.nocPlacement;
    noc.placementSeed = cfg.nocPlacementSeed;
    sys->net = makeTopology(cfg.nocTopology, "noc", backendq, noc);
    TopologyNetwork &net = *sys->net;

    sys->dma = std::make_unique<DmaEngine>("dma", backendq);

    NodeId sched_node = net.frontendNode(cfg.schedulerTile());

    // Global node tables: TaskId::trs, VersionRef::ovt and the
    // directory shard index (PipelineConfig::shardOf) address modules
    // across all pipelines.
    std::vector<NodeId> gw_nodes;
    std::vector<NodeId> trs_nodes;
    std::vector<NodeId> ort_nodes;
    std::vector<NodeId> ovt_nodes;
    for (unsigned p = 0; p < pipes; ++p) {
        gw_nodes.push_back(net.frontendNode(cfg.gatewayTile(p)));
        for (unsigned i = 0; i < cfg.numTrs; ++i)
            trs_nodes.push_back(net.frontendNode(cfg.trsTile(i, p)));
        for (unsigned i = 0; i < cfg.numOrt; ++i) {
            ort_nodes.push_back(net.frontendNode(cfg.ortTile(i, p)));
            ovt_nodes.push_back(net.frontendNode(cfg.ovtTile(i, p)));
        }
    }

    for (unsigned p = 0; p < pipes; ++p) {
        EventQueue &pipeq = engine.shard(p);
        std::string suffix = pipes > 1 ? "p" + std::to_string(p) : "";
        auto gw = std::make_unique<Gateway>(
            "gateway" + suffix, pipeq, net, gw_nodes[p], scfg,
            sys->registry, sys->stats);
        gw->setPeers(trs_nodes, ort_nodes,
                     std::max(1u, threads_in_pipe[p]), p * cfg.numTrs,
                     ordered);
        net.bindQueue(gw_nodes[p], pipeq);
        sys->gateways.push_back(std::move(gw));

        for (unsigned i = 0; i < cfg.numTrs; ++i) {
            unsigned g = p * cfg.numTrs + i;
            auto trs = std::make_unique<Trs>(
                "trs" + std::to_string(g), pipeq, net, trs_nodes[g],
                g, scfg, sys->registry, sys->stats, &footprint);
            trs->setPeers(gw_nodes[p], sched_node, trs_nodes,
                          ovt_nodes,
                          ordered ? gw_nodes : std::vector<NodeId>{});
            net.bindQueue(trs_nodes[g], pipeq);
            sys->trsModules.push_back(std::move(trs));
        }

        for (unsigned i = 0; i < cfg.numOrt; ++i) {
            unsigned g = p * cfg.numOrt + i;
            auto ort = std::make_unique<Ort>(
                "ort" + std::to_string(g), pipeq, net, ort_nodes[g],
                g, scfg, sys->stats, &footprint);
            ort->setPeers(gw_nodes, trs_nodes, ovt_nodes[g], ordered,
                          &sys->registry);
            net.bindQueue(ort_nodes[g], pipeq);
            sys->ortModules.push_back(std::move(ort));

            auto ovt = std::make_unique<Ovt>(
                "ovt" + std::to_string(g), pipeq, net, ovt_nodes[g],
                g, scfg, sys->stats, *sys->dma, &footprint);
            ovt->setPeers(ort_nodes[g], trs_nodes);
            net.bindQueue(ovt_nodes[g], pipeq);
            sys->ovtModules.push_back(std::move(ovt));
        }
    }

    // One task-generating thread per master core, each emitting its
    // subsequence of the trace with a share of its gateway's buffer.
    // Shares are exact (remainder spread over the first threads): the
    // credits handed out never exceed the buffer, so the gateway's
    // overflow assertion cannot trip no matter how many threads feed
    // one pipeline.
    for (unsigned p = 0; p < pipes; ++p) {
        if (threads_in_pipe[p] > cfg.gatewayBufferTasks) {
            fatal("gateway buffer (%u tasks) too small for %u "
                  "generating threads on pipeline %u; increase "
                  "gatewayBufferTasks or numPipelines",
                  cfg.gatewayBufferTasks, threads_in_pipe[p], p);
        }
    }
    for (unsigned thread = 0; thread < num_threads; ++thread) {
        unsigned pipe = thread % pipes;
        unsigned local = thread / pipes;
        unsigned share_base =
            cfg.gatewayBufferTasks / threads_in_pipe[pipe];
        unsigned share_rem =
            cfg.gatewayBufferTasks % threads_in_pipe[pipe];
        unsigned credit_share = share_base + (local < share_rem ? 1 : 0);
        std::vector<std::uint32_t> indices;
        for (std::uint32_t t = 0;
             t < static_cast<std::uint32_t>(trace.size()); ++t) {
            if (threadOf[t] == thread)
                indices.push_back(t);
        }
        EventQueue &srcq = engine.shard(pipe);
        auto source = std::make_unique<TaskSource>(
            "source" + std::to_string(thread), srcq, net,
            net.coreNode(thread), scfg, sys->registry, sys->stats,
            std::move(indices), thread / pipes, credit_share);
        source->setGateway(gw_nodes[pipe]);
        net.bindQueue(net.coreNode(thread), srcq);
        sys->sources.push_back(std::move(source));
    }

    sys->sched = std::make_unique<Scheduler>("scheduler", backendq, net,
                                             sched_node, scfg);
    net.bindQueue(sched_node, backendq);

    std::vector<NodeId> worker_nodes;
    for (unsigned c = 0; c < cfg.numCores; ++c) {
        NodeId node = net.coreNode(c + num_threads);
        worker_nodes.push_back(node);
        // Whole processor rings share a domain so a ring's cores
        // never drain on two shards.
        unsigned ring = static_cast<unsigned>(node) / noc.coresPerRing;
        EventQueue &coreq = engine.shard(ring % pipes);
        auto worker = std::make_unique<WorkerCore>(
            "core" + std::to_string(c), coreq, net, node, c, scfg,
            sys->registry);
        worker->setPeers(sched_node, trs_nodes);
        net.bindQueue(node, coreq);
        sys->workers.push_back(std::move(worker));
    }
    sys->sched->setWorkers(worker_nodes);

    engine.setLookahead(net.minDeliveryDelay());

    // The flight recorder: one buffer per event shard, wired into the
    // engine so records key on the DeferKey of the emitting event (see
    // obs/trace.hh). Track names make the Chrome export readable.
    if (scfg.traceMode != obs::TraceMode::Off) {
        sys->obsTracer = std::make_unique<obs::Tracer>(
            scfg.traceMode, scfg.traceFilter, engine.numDomains(),
            scfg.traceTailRecords);
        obs::Tracer &tr = *sys->obsTracer;
        engine.setTracer(&tr);
        for (unsigned p = 0; p < pipes; ++p) {
            std::string suffix =
                pipes > 1 ? "p" + std::to_string(p) : "";
            tr.setTrackName(0, gw_nodes[p], "gateway" + suffix);
        }
        for (std::size_t g = 0; g < trs_nodes.size(); ++g)
            tr.setTrackName(0, trs_nodes[g], "trs" + std::to_string(g));
        for (std::size_t g = 0; g < ort_nodes.size(); ++g) {
            tr.setTrackName(0, ort_nodes[g], "ort" + std::to_string(g));
            tr.setTrackName(0, ovt_nodes[g], "ovt" + std::to_string(g));
        }
        for (unsigned t = 0; t < num_threads; ++t) {
            tr.setTrackName(0, net.coreNode(t),
                            "source" + std::to_string(t));
        }
        for (unsigned c = 0; c < cfg.numCores; ++c) {
            tr.setTrackName(0, net.coreNode(c + num_threads),
                            "core" + std::to_string(c));
        }
        tr.setTrackName(0, sched_node, "scheduler");
        tr.setTrackName(1, 0, "engine");
        tr.setTrackName(1, 1, "noc lanes");
    }
    sys->buildMetrics();

    return sys;
}

void
System::buildMetrics()
{
    auto counter = [this](const std::string &name, const Counter &c) {
        metrics.addCounter(name, [&c] { return c.value(); });
    };

    counter("frontend.tasks_allocated", stats.tasksAllocated);
    counter("frontend.tasks_finished", stats.tasksFinished);
    counter("frontend.data_ready_forwards", stats.dataReadyForwards);
    counter("frontend.tombstone_replies", stats.tombstoneReplies);
    counter("frontend.decode_batches", stats.decodeBatches);
    counter("frontend.batched_operands", stats.batchedOperands);
    counter("frontend.versions_created", stats.versionsCreated);
    counter("frontend.versions_renamed", stats.versionsRenamed);
    counter("frontend.gateway_stall_cycles", stats.gatewayStallCycles);
    counter("frontend.source_stall_cycles", stats.sourceStallCycles);
    // Events a module counts itself: the run-wide figure is the sum
    // over the modules. A snapshot follows a barrier, so the DMA
    // engine has applied every write-back an OVT requested.
    metrics.addCounter("frontend.alloc_wait_cycles", [this] {
        std::uint64_t waits = 0;
        for (const auto &gw : gateways)
            waits += gw->allocWaitCycles();
        return waits;
    });
    auto slice_sum = [this](const std::string &name,
                            std::uint64_t (Ort::*stat)() const) {
        metrics.addCounter(name, [this, stat] {
            std::uint64_t sum = 0;
            for (const auto &ort : ortModules)
                sum += (*ort.*stat)();
            return sum;
        });
    };
    slice_sum("frontend.decode_deferrals", &Ort::deferredOps);
    slice_sum("frontend.version_slot_parks", &Ort::slotParkEvents);
    slice_sum("frontend.gateway_stall_events", &Ort::stallEvents);
    metrics.addCounter("frontend.dma_writebacks",
                       [this] { return dma->numTransfers(); });
    metrics.addGauge("frontend.chain_consumers_mean",
                     [this] { return stats.chainConsumers.mean(); });
    metrics.addGauge("frontend.chain_consumers_p95", [this] {
        return stats.chainConsumers.nearestRank(0.95);
    });
    metrics.addGauge("frontend.chain_consumers_max",
                     [this] { return stats.chainConsumers.max(); });
    metrics.addGauge("frontend.fragmentation_mean",
                     [this] { return stats.fragmentation.mean(); });
    metrics.addGauge("frontend.decode_latency_mean",
                     [this] { return stats.decodeLatency.mean(); });
    metrics.addGauge("frontend.batch_fill_mean",
                     [this] { return stats.batchFill.mean(); });
    // Run averages divide by the latest task finish, the makespan of
    // a completed run: eager DMA write-backs may run the engine well
    // past it, and the window is what tasks occupy while they run.
    metrics.addGauge("frontend.tasks_in_flight_avg", [this] {
        return stats.tasksInFlight.average(registry.lastFinish());
    });
    metrics.addGauge("frontend.tasks_in_flight_peak",
                     [this] { return stats.tasksInFlight.maximum(); });
    metrics.addGauge("frontend.sram_hit_rate", [this] {
        double hits = 0;
        for (const auto &trs : trsModules)
            hits += trs->blockList().sramHitRate();
        return hits / static_cast<double>(trsModules.size());
    });

    for (std::size_t i = 0; i < ortModules.size(); ++i) {
        std::string base = "slice." + std::to_string(i) + ".";
        const Ort *ort = ortModules[i].get();
        const Ovt *ovt = ovtModules[i].get();
        metrics.addCounter(base + "stall_events",
                           [ort] { return ort->stallEvents(); });
        metrics.addCounter(base + "deferred_ops",
                           [ort] { return ort->deferredOps(); });
        metrics.addCounter(base + "slot_park_events",
                           [ort] { return ort->slotParkEvents(); });
        metrics.addGauge(base + "free_version_slots", [ort] {
            return static_cast<double>(ort->freeVersionSlots());
        });
        metrics.addGauge(base + "slot_parked", [ort] {
            return static_cast<double>(ort->slotParkedOperands());
        });
        metrics.addGauge(base + "ticket_parked", [ort] {
            return static_cast<double>(ort->ticketParkedOperands());
        });
        metrics.addGauge(base + "live_versions", [ovt] {
            return static_cast<double>(ovt->liveVersions());
        });
    }

    auto module = [this](const FrontendModule &m) {
        std::string base = "module." + m.name() + ".";
        metrics.addCounter(base + "packets",
                           [&m] { return m.packetsProcessed(); });
        metrics.addCounter(base + "busy_cycles", [&m] {
            return static_cast<std::uint64_t>(m.busyCycles());
        });
        metrics.addGauge(base + "queue_avg", [this, &m] {
            return m.avgQueueLength(registry.lastFinish());
        });
    };
    for (const auto &trs : trsModules)
        module(*trs);
    for (const auto &ort : ortModules)
        module(*ort);
    for (const auto &ovt : ovtModules)
        module(*ovt);
    module(*sched);

    for (std::size_t c = 0; c < workers.size(); ++c) {
        std::string base = "core." + std::to_string(c) + ".";
        const WorkerCore *w = workers[c].get();
        metrics.addCounter(base + "tasks_executed",
                           [w] { return w->tasksExecuted(); });
        metrics.addCounter(base + "busy_cycles", [w] {
            return static_cast<std::uint64_t>(w->busyCycles());
        });
    }

    metrics.addCounter("noc.messages",
                       [this] { return net->messagesSent(); });
    metrics.addGauge("noc.latency_mean",
                     [this] { return net->latencyStat().mean(); });
    metrics.addGauge("noc.latency_p95", [this] {
        return net->latencyStat().nearestRank(0.95);
    });
    metrics.addGauge("noc.latency_max",
                     [this] { return net->latencyStat().max(); });
    metrics.addCounter("noc.link_traversals", [this] {
        return net->linkStats(registry.lastFinish()).traversals;
    });
    metrics.addCounter("noc.lane_wait_cycles", [this] {
        return static_cast<std::uint64_t>(
            net->linkStats(registry.lastFinish()).laneWaitCycles);
    });
    metrics.addGauge("noc.max_link_utilization", [this] {
        return net->linkStats(registry.lastFinish()).maxUtilization;
    });
    metrics.addHistogram("noc.link_utilization_pct", [this] {
        return net->utilizationHistogram(registry.lastFinish());
    });

    metrics.addCounter("engine.events_executed",
                       [this] { return engine->executed(); });
    metrics.addGauge("engine.now", [this] {
        return static_cast<double>(engine->now());
    });
    metrics.addCounter("engine.windows", [this] {
        return engine->windowStats().windows;
    });
    metrics.addCounter("engine.single_shard_windows", [this] {
        return engine->windowStats().singleShard;
    });
    metrics.addCounter("engine.fused_windows", [this] {
        return engine->windowStats().fusedWindows;
    });
    metrics.addCounter("engine.multi_shard_windows", [this] {
        return engine->windowStats().multiShard;
    });
    metrics.addCounter("engine.window_occupancy_sum", [this] {
        return engine->windowStats().occupancySum;
    });
    metrics.addCounter("engine.max_window_occupancy", [this] {
        return engine->windowStats().maxOccupancy;
    });
    metrics.addCounter("engine.event_digest",
                       [this] { return engine->eventDigest(); });
    metrics.addCounter("engine.apply_digest",
                       [this] { return engine->applyDigest(); });
    metrics.addCounter("engine.far_events",
                       [this] { return engine->farEvents(); });
    metrics.addCounter("dma.writebacks",
                       [this] { return dma->numTransfers(); });
    metrics.addCounter("dma.bytes",
                       [this] { return dma->totalBytes(); });
    if (obsTracer) {
        metrics.addCounter("obs.trace_records", [this] {
            return obsTracer->totalRecords();
        });
    }
}

LivenessReport
System::runWatchdog(std::uint64_t max_events)
{
    for (auto &source : sources)
        source->start();
    engine->run(max_events);

    bool all_done = true;
    for (auto &source : sources)
        all_done &= source->done();

    LivenessReport report;
    report.tasksFinished =
        static_cast<std::size_t>(stats.tasksFinished.value());
    report.eventsExecuted = engine->executed();
    report.completed = all_done && report.tasksFinished == trace.size();
    report.wedged = !report.completed && engine->empty();

    // Diagnose any incomplete run, not just true deadlocks: an
    // exhausted event budget (the serve watchdog) gets the same
    // occupancy/culprit/tail report a wedge does.
    if (!report.completed) {
        // Name the culprit: per-slice version-slot occupancy and the
        // machine-oldest parked operand (capacity wedges show up as a
        // full slice holding the oldest task's operand hostage).
        for (std::size_t i = 0; i < ortModules.size(); ++i) {
            const Ort &ort = *ortModules[i];
            LivenessReport::SliceOccupancy occ;
            occ.slice = static_cast<unsigned>(i);
            occ.liveVersions = ovtModules[i]->liveVersions();
            occ.freeVersionSlots = ort.freeVersionSlots();
            occ.slotParked = ort.slotParkedOperands();
            occ.ticketParked = ort.ticketParkedOperands();
            report.slices.push_back(occ);

            Ort::ParkedOperand parked = ort.oldestParked();
            if (parked.valid &&
                (!report.hasCulprit ||
                 parked.traceIndex < report.culpritTask)) {
                report.hasCulprit = true;
                report.culpritSlice = static_cast<unsigned>(i);
                report.culpritTask = parked.traceIndex;
                report.culpritOperand = parked.operand;
                report.culpritAddr = parked.addr;
                report.culpritWaitsForSlot = parked.forSlot;
            }
        }
        if (obsTracer)
            report.tailTraceJson = obsTracer->tailJson();
    }
    return report;
}

std::string
LivenessReport::toJson() const
{
    std::ostringstream os;
    os << "{\n"
       << "  \"completed\": " << (completed ? "true" : "false")
       << ",\n"
       << "  \"wedged\": " << (wedged ? "true" : "false") << ",\n"
       << "  \"tasks_finished\": " << tasksFinished << ",\n"
       << "  \"events_executed\": " << eventsExecuted << ",\n"
       << "  \"slices\": [";
    for (std::size_t i = 0; i < slices.size(); ++i) {
        const SliceOccupancy &occ = slices[i];
        os << (i ? ",\n    {" : "\n    {")
           << "\"slice\": " << occ.slice
           << ", \"live_versions\": " << occ.liveVersions
           << ", \"free_version_slots\": " << occ.freeVersionSlots
           << ", \"slot_parked\": " << occ.slotParked
           << ", \"ticket_parked\": " << occ.ticketParked << "}";
    }
    os << (slices.empty() ? "]" : "\n  ]") << ",\n";
    if (hasCulprit) {
        os << "  \"culprit\": {\"slice\": " << culpritSlice
           << ", \"task\": " << culpritTask
           << ", \"operand\": " << culpritOperand
           << ", \"addr\": " << culpritAddr
           << ", \"waits_for_slot\": "
           << (culpritWaitsForSlot ? "true" : "false") << "},\n";
    } else {
        os << "  \"culprit\": null,\n";
    }
    if (tailTraceJson.empty())
        os << "  \"tail_trace\": null\n";
    else
        os << "  \"tail_trace\": " << tailTraceJson << "\n";
    os << "}";
    return os.str();
}

RunResult
System::run(std::uint64_t max_events)
{
    LivenessReport liveness = runWatchdog(max_events);
    if (!liveness.completed) {
        fatal("simulation ended early: %zu/%zu tasks finished "
              "(%s)", liveness.tasksFinished, trace.size(),
              liveness.wedged ? "deadlock" : "event limit");
    }
    RunResult result = collectResult();
    writeObsOutputs();
    return result;
}

RunResult
System::collectResult()
{
    RunResult result;
    result.numTasks = trace.size();
    result.sequential = trace.sequentialCycles();
    result.makespan = registry.lastFinish();

    // The decode rate and the execution order, from the per-task
    // records.
    std::vector<Cycle> decode_times;
    decode_times.reserve(trace.size());
    std::vector<std::uint32_t> order(trace.size());
    std::iota(order.begin(), order.end(), 0);
    const auto &records = registry.allRecords();
    result.coreOf.reserve(records.size());
    for (const auto &rec : records) {
        if (rec.decodeDone != invalidCycle)
            decode_times.push_back(rec.decodeDone);
        result.coreOf.push_back(rec.core);
    }
    std::sort(order.begin(), order.end(),
              [&](std::uint32_t a, std::uint32_t b) {
                  if (records[a].started != records[b].started)
                      return records[a].started < records[b].started;
                  return a < b;
              });
    result.startOrder = std::move(order);

    if (result.makespan > 0) {
        result.speedup = static_cast<double>(result.sequential) /
            static_cast<double>(result.makespan);
    }

    // Decode rate: average distance between successive additions to
    // the task graph.
    if (decode_times.size() > 1) {
        auto [mn, mx] = std::minmax_element(decode_times.begin(),
                                            decode_times.end());
        result.decodeRateCycles = static_cast<double>(*mx - *mn) /
            static_cast<double>(decode_times.size() - 1);
        result.decodeRateNs =
            defaultClock.cyclesToNs(1) * result.decodeRateCycles;
    }

    result.metrics = metrics.snapshot();
    return result;
}

void
System::writeObsOutputs()
{
    if (!cfg.traceOutPath.empty() && obsTracer) {
        std::ofstream os(cfg.traceOutPath, std::ios::binary);
        if (!os) {
            fatal("cannot open trace output file %s",
                  cfg.traceOutPath.c_str());
        }
        if (obsTracer->mode() == obs::TraceMode::Full)
            obsTracer->exportChromeJson(os);
        else
            os << obsTracer->tailJson();
    }
    if (!cfg.metricsOutPath.empty()) {
        std::ofstream os(cfg.metricsOutPath, std::ios::binary);
        if (!os) {
            fatal("cannot open metrics output file %s",
                  cfg.metricsOutPath.c_str());
        }
        os << metrics.snapshot().toJson() << "\n";
    }
}

} // namespace tss
