/**
 * @file
 * The benchmark workload registry: the nine applications of the
 * paper's Table I, each available as a synthetic trace generator with
 * the real algorithm's dependency structure.
 */

#ifndef TSS_WORKLOAD_WORKLOAD_HH
#define TSS_WORKLOAD_WORKLOAD_HH

#include <functional>
#include <string>
#include <vector>

#include "trace/task_trace.hh"

namespace tss
{

/**
 * Common generator knobs. `scale` grows/shrinks the problem while
 * preserving per-task statistics; 1.0 targets tens of thousands of
 * tasks (paper-sized windows), smaller values make CI-friendly runs.
 */
struct WorkloadParams
{
    std::uint64_t seed = 1;
    double scale = 1.0;
};

/** A registered benchmark. */
struct WorkloadInfo
{
    std::string name;
    std::string className;   ///< Table I "Class" column
    std::string description;
    std::function<TaskTrace(const WorkloadParams &)> generate;
};

/** All nine paper benchmarks, in Table I order. */
const std::vector<WorkloadInfo> &allWorkloads();

/** Find a benchmark by (case-sensitive) name; null when unknown. */
const WorkloadInfo *findWorkload(const std::string &name);

/// @name Direct generator entry points (Table I order).
/// @{
TaskTrace genCholesky(const WorkloadParams &params);
TaskTrace genMatMul(const WorkloadParams &params);
TaskTrace genFft(const WorkloadParams &params);
TaskTrace genH264(const WorkloadParams &params);
TaskTrace genKMeans(const WorkloadParams &params);
TaskTrace genKnn(const WorkloadParams &params);
TaskTrace genPbpi(const WorkloadParams &params);
TaskTrace genSpecfem(const WorkloadParams &params);
TaskTrace genStap(const WorkloadParams &params);
/// @}

/// @name Dimension-explicit generators (used by tests and examples).
/// @{

/**
 * Blocked Cholesky factorization of an @p n x @p n block matrix
 * (paper Figure 4's exact loop nest). @p block_bytes is the per-block
 * footprint (16 KB matches Table I's 47 KB average task data).
 */
TaskTrace genCholeskyBlocked(unsigned n, Bytes block_bytes = 16 * 1024,
                             std::uint64_t seed = 1);

/** Blocked matrix multiply C += A*B with n x n x n block tasks. */
TaskTrace genMatMulBlocked(unsigned n, Bytes block_bytes = 16 * 1024,
                           std::uint64_t seed = 1);

/**
 * H264-style macroblock-group decode: @p frames frames of a
 * @p width x @p height task grid with the intra-frame wavefront
 * (W, NW, N, NE) plus inter-frame reference dependencies.
 */
TaskTrace genH264Grid(unsigned width, unsigned height, unsigned frames,
                      std::uint64_t seed = 1);

/**
 * Deterministic wide-task shared-data program: every task reads 9 and
 * writes 3 of a 96-object pool (512 B each, 300-600 cycles). With
 * several generating threads splitting the stream round-robin, the
 * objects are heavily shared across threads (ordered decode) and each
 * task has several operands per directory slice (batchable).
 */
TaskTrace genWideShared(unsigned tasks, std::uint64_t seed = 1);

/// @}

} // namespace tss

#endif // TSS_WORKLOAD_WORKLOAD_HH
