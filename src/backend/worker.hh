/**
 * @file
 * Worker cores: the "functional units" of the task superscalar
 * multiprocessor. A worker executes dispatched tasks back to back
 * (keeping at most one prefetched task queued), then notifies the
 * owning TRS and the scheduler.
 */

#ifndef TSS_BACKEND_WORKER_HH
#define TSS_BACKEND_WORKER_HH

#include <deque>

#include "core/config.hh"
#include "core/task_registry.hh"
#include "core/trs.hh"
#include "obs/trace.hh"

namespace tss
{

/** One in-order worker core executing whole tasks. */
class WorkerCore : public SimObject, public Endpoint
{
  public:
    WorkerCore(std::string name, EventQueue &eq, Network &network,
               NodeId node_id, unsigned core_index,
               const PipelineConfig &config,
               TaskRegistry &task_registry)
        : SimObject(std::move(name), eq), cfg(config),
          registry(task_registry), net(network), node(node_id),
          coreIndex(core_index)
    {
        net.attach(node, *this);
        setStation(node);
    }

    void
    setPeers(NodeId scheduler, std::vector<NodeId> trs_nodes)
    {
        schedulerNode = scheduler;
        trsNodes = std::move(trs_nodes);
    }

    void
    receive(MessagePtr msg) override
    {
        auto *proto = static_cast<ProtoMsg *>(msg.get());
        TSS_ASSERT(proto->type == MsgType::DispatchTask,
                   "worker: unexpected message");
        auto &dispatch = static_cast<DispatchTaskMsg &>(*proto);
        obs::trace(obs::TraceEvent::TaskDispatch, curCycle(),
                   registry.traceIndex(dispatch.id), coreIndex);
        pending.push_back(dispatch.id);
        startNext();
    }

    std::uint64_t tasksExecuted() const { return executed.value(); }
    Cycle busyCycles() const { return totalBusy; }

  private:
    void
    startNext()
    {
        if (running || pending.empty())
            return;
        running = true;
        TaskId id = pending.front();
        pending.pop_front();

        auto trace_index = registry.traceIndex(id);
        Cycle runtime = registry.taskTrace().tasks[trace_index].runtime;
        double speed = cfg.coreSpeed(coreIndex);
        if (speed != 1.0 && speed > 0.0) {
            runtime = static_cast<Cycle>(
                static_cast<double>(runtime) / speed);
        }
        registry.record(trace_index).started = curCycle();
        registry.record(trace_index).core = coreIndex;
        obs::trace(obs::TraceEvent::TaskStart, curCycle(), trace_index,
                   coreIndex);

        Cycle started = curCycle();
        scheduleIn(runtime, [this, id, trace_index, runtime, started] {
            registry.recordFinish(trace_index, curCycle());
            obs::trace(obs::TraceEvent::TaskRetire, curCycle(),
                       trace_index, started);
            totalBusy += runtime;
            ++executed;

            auto fin = std::make_unique<TaskFinishedMsg>(id);
            fin->src = node;
            fin->dst = trsNodes[id.trs];
            net.send(std::move(fin));

            auto idle = std::make_unique<CoreIdleMsg>(coreIndex);
            idle->src = node;
            idle->dst = schedulerNode;
            net.send(std::move(idle));

            running = false;
            startNext();
        });
    }

    const PipelineConfig &cfg;
    TaskRegistry &registry;
    Network &net;
    NodeId node;
    unsigned coreIndex;

    NodeId schedulerNode = invalidNode;
    std::vector<NodeId> trsNodes;

    std::deque<TaskId> pending;
    bool running = false;

    Counter executed;
    Cycle totalBusy = 0;
};

} // namespace tss

#endif // TSS_BACKEND_WORKER_HH
