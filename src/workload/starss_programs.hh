/**
 * @file
 * Real-kernel StarSs programs: workloads whose tasks are actual
 * computations over memory the program owns, not synthetic trace
 * records. Each program spawns its tasks into a TaskContext, so it
 * can be (a) simulated by the task superscalar pipeline, (b) executed
 * sequentially as the reference, and (c) executed for real by the
 * Functional/Parallel executors — and `snapshot()` exposes the final
 * memory for the differential oracle: any legal schedule must produce
 * bit-identical bytes.
 *
 * This is the one workload component layered *above* the runtime
 * API: the trace generators in this directory stay independent of
 * it.
 */

#ifndef TSS_WORKLOAD_STARSS_PROGRAMS_HH
#define TSS_WORKLOAD_STARSS_PROGRAMS_HH

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "runtime/starss.hh"

namespace tss::starss
{

/**
 * A live real-kernel program: owns its working memory and the
 * TaskContext the tasks were spawned into. Build one instance per
 * execution — running the captured tasks mutates the owned memory.
 */
class RealProgram
{
  public:
    virtual ~RealProgram() = default;

    TaskContext &context() { return ctx; }

    /**
     * Every memory object of the program, concatenated in a fixed
     * order. Two executions of the same (program, seed) are correct
     * iff their snapshots are byte-identical.
     */
    std::vector<std::uint8_t> snapshot() const;

  protected:
    /**
     * Register @p bytes at @p ptr as part of the snapshot *and* in
     * the context's relocation registry (trace/relocate.hh), so the
     * captured trace can be rebased onto the synthetic address space
     * deterministically.
     */
    void
    addRegion(const void *ptr, std::size_t bytes)
    {
        regions.emplace_back(static_cast<const std::uint8_t *>(ptr),
                             bytes);
        ctx.registerRegion(ptr, bytes);
    }

    TaskContext ctx;

  private:
    std::vector<std::pair<const std::uint8_t *, std::size_t>> regions;
};

/** A registered real-kernel workload. */
struct RealProgramInfo
{
    std::string name;
    std::string description;
    std::function<std::unique_ptr<RealProgram>(std::uint64_t seed)> make;
};

/** All real-kernel workloads (differential tests iterate this). */
const std::vector<RealProgramInfo> &realPrograms();

/** Find by (case-sensitive) name; null when unknown. */
const RealProgramInfo *findRealProgram(const std::string &name);

/// @name Dimension-explicit factories (benches pick larger sizes).
/// @{

/** Blocked Cholesky factorization: potrf/trsm/syrk/gemm over an SPD
 *  matrix of @p blocks x @p blocks float blocks of @p dim x @p dim. */
std::unique_ptr<RealProgram> makeCholeskyProgram(std::uint64_t seed,
                                                 unsigned blocks = 6,
                                                 unsigned dim = 16);

/** Blocked matrix multiply C += A*B, @p blocks^3 gemm tasks. */
std::unique_ptr<RealProgram> makeMatMulProgram(std::uint64_t seed,
                                               unsigned blocks = 4,
                                               unsigned dim = 16);

/** 1-D Jacobi sweeps, ping-pong buffers with `out` operands (the
 *  renaming stress: every sweep rewrites the other grid). */
std::unique_ptr<RealProgram> makeJacobiProgram(std::uint64_t seed,
                                               unsigned chunks = 12,
                                               unsigned chunk_elems = 64,
                                               unsigned sweeps = 6);

/** Integer tree reduction: leaf transforms then log-depth combines
 *  (deep dependence chains, exact arithmetic). */
std::unique_ptr<RealProgram> makeReduceProgram(std::uint64_t seed,
                                               unsigned leaves = 32,
                                               unsigned elems = 64);

/// @}

} // namespace tss::starss

#endif // TSS_WORKLOAD_STARSS_PROGRAMS_HH
