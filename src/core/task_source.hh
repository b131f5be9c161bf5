/**
 * @file
 * The task-generating thread. A sequential master thread walks its
 * share of the trace, paying a per-task creation cost (packing the
 * kernel pointer and operands onto the stack buffer, as injected by
 * the StarSs source-to-source compiler), and writes tasks to the
 * pipeline gateway. It blocks when its gateway-buffer credits run
 * out — the back-pressure that ultimately bounds speedup once the
 * window uncovers enough parallelism (paper section VI-B).
 *
 * Multiple task-generating threads (paper section III-B) are
 * supported: each thread emits its own subsequence of the trace from
 * its own master core, and the threads' data must be partitioned.
 */

#ifndef TSS_CORE_TASK_SOURCE_HH
#define TSS_CORE_TASK_SOURCE_HH

#include <numeric>
#include <vector>

#include "core/config.hh"
#include "core/task_registry.hh"
#include "core/trs.hh"
#include "obs/trace.hh"

namespace tss
{

/** One master thread running on a dedicated core node. */
class TaskSource : public SimObject, public Endpoint
{
  public:
    /**
     * @param task_indices Trace indices this thread emits, in its
     *        program order.
     * @param thread_id This thread's id (carried in submissions).
     * @param buffer_credits Gateway buffer share for this thread.
     */
    TaskSource(std::string name, EventQueue &eq, Network &network,
               NodeId node_id, const PipelineConfig &config,
               TaskRegistry &task_registry,
               FrontendStats &frontend_stats,
               std::vector<std::uint32_t> task_indices,
               unsigned thread_id, unsigned buffer_credits)
        : SimObject(std::move(name), eq), cfg(config),
          registry(task_registry), stats(frontend_stats), net(network),
          node(node_id), indices(std::move(task_indices)),
          thread(thread_id), credits(buffer_credits)
    {
        net.attach(node, *this);
        setStation(node);
    }

    void setGateway(NodeId gateway) { gatewayNode = gateway; }

    /** Begin generating tasks (call once before running the sim). */
    void
    start()
    {
        if (indices.empty())
            return;
        generateNext();
    }

    bool done() const { return submitted == indices.size(); }

    void
    receive(MessagePtr msg) override
    {
        auto *proto = static_cast<ProtoMsg *>(msg.get());
        TSS_ASSERT(proto->type == MsgType::GatewayCredit,
                   "task source: unexpected message");
        ++credits;
        if (blocked) {
            blocked = false;
            stats.sourceStallCycles += curCycle() - blockStart;
            submitPending();
        }
    }

  private:
    /** Pay the creation cost of the next task, then try to submit. */
    void
    generateNext()
    {
        if (submitted + pending >= indices.size())
            return;
        const TraceTask &tt =
            registry.taskTrace().tasks[indices[submitted + pending]];
        Cycle cost = cfg.taskGenBaseCycles +
            cfg.taskGenPerOperandCycles *
                static_cast<Cycle>(tt.operands.size());
        pending = 1;
        scheduleIn(cost, [this] { submitPending(); });
    }

    /** Submit the generated task if a buffer credit is available. */
    void
    submitPending()
    {
        if (pending == 0)
            return;
        if (credits == 0) {
            if (!blocked) {
                blocked = true;
                blockStart = curCycle();
            }
            return;
        }
        std::uint32_t index = indices[submitted];
        const TraceTask &tt = registry.taskTrace().tasks[index];
        --credits;
        pending = 0;
        ++submitted;
        registry.record(index).submitted = curCycle();
        obs::trace(obs::TraceEvent::TaskSubmit, curCycle(), index,
                   thread);

        // The submit packet carries the kernel pointer and the packed
        // operand values.
        Bytes bytes = 32 + 16 * tt.operands.size();
        auto msg = std::make_unique<TaskSubmitMsg>(index, bytes);
        msg->thread = thread;
        msg->src = node;
        msg->dst = gatewayNode;
        net.send(std::move(msg));

        generateNext();
    }

    const PipelineConfig &cfg;
    TaskRegistry &registry;
    FrontendStats &stats;
    Network &net;
    NodeId node;
    NodeId gatewayNode = invalidNode;

    std::vector<std::uint32_t> indices;
    unsigned thread;
    unsigned credits;
    std::size_t submitted = 0;
    unsigned pending = 0; ///< generated but not yet submitted
    bool blocked = false;
    Cycle blockStart = 0;
};

} // namespace tss

#endif // TSS_CORE_TASK_SOURCE_HH
