/**
 * @file
 * The backend queuing system and task scheduler. Ready tasks are
 * pushed into a Carbon-like centralized queue (paper section IV-B.5)
 * and dispatched to worker cores; each core may hold one prefetched
 * task to hide the dispatch round trip. Task stealing is not
 * supported, matching the paper.
 */

#ifndef TSS_BACKEND_SCHEDULER_HH
#define TSS_BACKEND_SCHEDULER_HH

#include <deque>
#include <vector>

#include "core/config.hh"
#include "core/module.hh"

namespace tss
{

/** The ready-queue/scheduler tile. */
class Scheduler : public FrontendModule
{
  public:
    Scheduler(std::string name, EventQueue &eq, Network &network,
              NodeId node, const PipelineConfig &config)
        : FrontendModule(std::move(name), eq, network, node),
          cfg(config)
    {}

    void
    setWorkers(std::vector<NodeId> worker_nodes)
    {
        workerNodes = std::move(worker_nodes);
        outstanding.assign(workerNodes.size(), 0);
    }

    std::size_t queuedTasks() const { return readyq.size(); }
    std::uint64_t tasksDispatched() const { return dispatched.value(); }

  protected:
    Service
    process(ProtoMsg &msg) override
    {
        switch (msg.type) {
          case MsgType::TaskReady: {
            auto &ready = static_cast<TaskReadyMsg &>(msg);
            readyq.push_back(ready.id);
            dispatchAll();
            return {cfg.dispatchOverhead, false};
          }
          case MsgType::CoreIdle: {
            auto &idle = static_cast<CoreIdleMsg &>(msg);
            TSS_ASSERT(outstanding[idle.core] > 0,
                       "idle message from an unloaded core");
            --outstanding[idle.core];
            dispatchAll();
            return {cfg.dispatchOverhead, false};
          }
          default:
            panic("scheduler: unexpected message type %d",
                  static_cast<int>(msg.type));
        }
    }

  private:
    /**
     * Drain the ready queue onto the least-loaded cores.
     *
     * The placement tie-break is pinned and part of the replay
     * contract (runtime/parallel_exec.hh executes these decisions on
     * real threads, and tests/test_parallel_exec.cc asserts two runs
     * of the same trace produce identical startOrder/coreOf):
     * among equally loaded cores the *first in rotated scan order*
     * wins, where the scan starts at the core after the previous
     * winner (round-robin pointer nextCoreRr) — strictly-less
     * comparison, so later equally-loaded cores never displace an
     * earlier match. Combined with the deterministic (priority,
     * insertion)-ordered EventQueue this makes dispatch order and
     * core assignment a pure function of (trace, config).
     */
    void
    dispatchAll()
    {
        unsigned cap = 1 + cfg.corePrefetch;
        while (!readyq.empty()) {
            // Least-loaded placement: idle cores first, then prefetch
            // slots of busy cores (hides the dispatch round trip).
            unsigned best = 0;
            unsigned best_load = cap;
            for (unsigned core = 0; core < workerNodes.size();
                 ++core) {
                unsigned rr = (core + nextCoreRr) %
                    static_cast<unsigned>(workerNodes.size());
                if (outstanding[rr] < best_load) {
                    best_load = outstanding[rr];
                    best = rr;
                    if (best_load == 0)
                        break;
                }
            }
            if (best_load >= cap)
                break;
            nextCoreRr = best + 1;
            ++outstanding[best];
            TaskId id = readyq.front();
            readyq.pop_front();
            ++dispatched;
            sendMsg(workerNodes[best],
                    std::make_unique<DispatchTaskMsg>(id));
        }
    }

    const PipelineConfig &cfg;
    std::vector<NodeId> workerNodes;

    /// Tasks dispatched to each core and not yet re-announced idle.
    std::vector<unsigned> outstanding;
    unsigned nextCoreRr = 0;
    std::deque<TaskId> readyq;

    Counter dispatched;
};

} // namespace tss

#endif // TSS_BACKEND_SCHEDULER_HH
