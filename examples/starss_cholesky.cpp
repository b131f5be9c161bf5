/**
 * @file
 * End-to-end demonstration of the programming model: a *real* blocked
 * Cholesky factorization written against the StarSs-like API. The
 * sequential-looking program spawns annotated tasks; the simulated
 * task superscalar pipeline picks an out-of-order schedule; one core
 * then runs the actual kernels in that order with true memory
 * renaming — and the numerical result matches a plain sequential
 * factorization bit for bit. Finally the same schedule is *replayed
 * on real threads* (one per simulated core), and the dataflow graph
 * mode races the whole program on a work-stealing pool, reporting
 * wall-clock speedup next to the simulated speedup.
 *
 * Every schedule is simulated on the relocated trace (synthetic
 * operand addresses, trace/relocate.hh), so every line but the
 * wall-clock one prints the same on every run; execution always uses
 * the real pointers. Exits non-zero when a result differs from
 * sequential execution.
 */

#include <cmath>
#include <cstring>
#include <iostream>
#include <vector>

#include "core/system.hh"
#include "runtime/parallel_exec.hh"
#include "runtime/starss.hh"

namespace
{

constexpr unsigned numBlocks = 6;  // 6x6 blocks
constexpr unsigned blockDim = 16;  // 16x16 floats per block
constexpr unsigned matrixDim = numBlocks * blockDim;

using Block = std::vector<float>; // blockDim x blockDim, row major

/// Unblocked Cholesky of one diagonal block (lower triangular).
void
potrf(float *a)
{
    for (unsigned j = 0; j < blockDim; ++j) {
        float d = a[j * blockDim + j];
        for (unsigned k = 0; k < j; ++k)
            d -= a[j * blockDim + k] * a[j * blockDim + k];
        d = std::sqrt(d);
        a[j * blockDim + j] = d;
        for (unsigned i = j + 1; i < blockDim; ++i) {
            float s = a[i * blockDim + j];
            for (unsigned k = 0; k < j; ++k)
                s -= a[i * blockDim + k] * a[j * blockDim + k];
            a[i * blockDim + j] = s / d;
        }
        for (unsigned i = 0; i < j; ++i)
            a[i * blockDim + j] = 0.0f;
    }
}

/// B := B * inv(L^T) for the panel below the diagonal.
void
trsm(const float *l, float *b)
{
    for (unsigned i = 0; i < blockDim; ++i) {
        for (unsigned j = 0; j < blockDim; ++j) {
            float s = b[i * blockDim + j];
            for (unsigned k = 0; k < j; ++k)
                s -= b[i * blockDim + k] * l[j * blockDim + k];
            b[i * blockDim + j] = s / l[j * blockDim + j];
        }
    }
}

/// C := C - A * B^T.
void
gemm(const float *a, const float *b, float *c)
{
    for (unsigned i = 0; i < blockDim; ++i)
        for (unsigned j = 0; j < blockDim; ++j) {
            float s = c[i * blockDim + j];
            for (unsigned k = 0; k < blockDim; ++k)
                s -= a[i * blockDim + k] * b[j * blockDim + k];
            c[i * blockDim + j] = s;
        }
}

/// C := C - A * A^T (diagonal update).
void
syrk(const float *a, float *c)
{
    gemm(a, a, c);
}

/// Build a symmetric positive-definite blocked matrix.
std::vector<Block>
makeSpdMatrix()
{
    std::vector<float> full(matrixDim * matrixDim);
    for (unsigned i = 0; i < matrixDim; ++i) {
        for (unsigned j = 0; j < matrixDim; ++j) {
            float v = 1.0f / (1.0f + std::abs(int(i) - int(j)));
            full[i * matrixDim + j] = v;
        }
        full[i * matrixDim + i] += matrixDim;
    }
    std::vector<Block> blocks(numBlocks * numBlocks,
                              Block(blockDim * blockDim));
    for (unsigned bi = 0; bi < numBlocks; ++bi)
        for (unsigned bj = 0; bj < numBlocks; ++bj)
            for (unsigned r = 0; r < blockDim; ++r)
                for (unsigned c = 0; c < blockDim; ++c)
                    blocks[bi * numBlocks + bj][r * blockDim + c] =
                        full[(bi * blockDim + r) * matrixDim +
                             bj * blockDim + c];
    return blocks;
}

/// Spawn the blocked-Cholesky task stream (Figure 4's loop nest).
void
spawnCholesky(tss::starss::TaskContext &ctx, std::vector<Block> &a)
{
    using namespace tss::starss;
    const tss::Bytes bb = blockDim * blockDim * sizeof(float);
    auto A = [&](unsigned i, unsigned j) {
        return a[i * numBlocks + j].data();
    };

    auto k_gemm = ctx.addKernel("sgemm_t", [](Buffers &b) {
        gemm(b.as<float>(0), b.as<float>(1), b.as<float>(2));
    }, 23.0);
    auto k_syrk = ctx.addKernel("ssyrk_t", [](Buffers &b) {
        syrk(b.as<float>(0), b.as<float>(1));
    }, 20.0);
    auto k_potrf = ctx.addKernel("spotrf_t", [](Buffers &b) {
        potrf(b.as<float>(0));
    }, 16.0);
    auto k_trsm = ctx.addKernel("strsm_t", [](Buffers &b) {
        trsm(b.as<float>(0), b.as<float>(1));
    }, 20.0);

    for (unsigned j = 0; j < numBlocks; ++j) {
        for (unsigned k = 0; k < j; ++k)
            for (unsigned i = j + 1; i < numBlocks; ++i)
                ctx.spawn(k_gemm, {in(A(i, k), bb), in(A(j, k), bb),
                                   inout(A(i, j), bb)});
        for (unsigned i = 0; i < j; ++i)
            ctx.spawn(k_syrk, {in(A(j, i), bb), inout(A(j, j), bb)});
        ctx.spawn(k_potrf, {inout(A(j, j), bb)});
        for (unsigned i = j + 1; i < numBlocks; ++i)
            ctx.spawn(k_trsm, {in(A(j, j), bb), inout(A(i, j), bb)});
    }
}

} // namespace

int
main()
{
    // Reference: factorize sequentially.
    std::vector<Block> seq_blocks = makeSpdMatrix();
    {
        tss::starss::TaskContext seq_ctx;
        spawnCholesky(seq_ctx, seq_blocks);
        seq_ctx.runSequential();
    }

    // Same program, captured and scheduled by the simulated pipeline.
    std::vector<Block> ooo_blocks = makeSpdMatrix();
    tss::starss::TaskContext ctx;
    spawnCholesky(ctx, ooo_blocks);
    std::cout << "spawned " << ctx.numTasks()
              << " tasks from the sequential thread\n";

    tss::PipelineConfig cfg;
    cfg.numCores = 32;
    const tss::TaskTrace relocated = ctx.relocatedTrace();
    tss::RunResult result =
        tss::SystemBuilder(cfg, relocated).build()->run();
    std::cout << "pipeline schedule: speedup " << result.speedup
              << "x on " << cfg.numCores << " cores, decode "
              << result.decodeRateNs << " ns/task\n";

    // Execute the real kernels in the pipeline's (out-of-order)
    // start order on one core, with true memory renaming.
    tss::starss::ParallelRunStats one_core =
        tss::starss::ParallelExecutor(ctx).runReplay(
            tss::starss::oneCoreSchedule(result.startOrder));
    std::cout << "one-core replay of that order used "
              << one_core.versions << " operand versions\n";

    // The out-of-order result must equal the sequential one exactly.
    auto matches_sequential = [&](const std::vector<Block> &blocks) {
        for (unsigned b = 0; b < numBlocks * numBlocks; ++b) {
            if (std::memcmp(seq_blocks[b].data(), blocks[b].data(),
                            blockDim * blockDim * sizeof(float)) != 0) {
                std::cout << "MISMATCH in block " << b << "\n";
                return false;
            }
        }
        return true;
    };
    if (!matches_sequential(ooo_blocks))
        return 1;
    std::cout << "out-of-order result matches sequential execution "
              << "bit for bit\n";

    // Replay the pipeline's decision on REAL threads: one thread per
    // simulated core, obeying the simulated dispatch order and core
    // assignment, on fresh data (a decision on the relocated trace
    // holds for every instance of the program).
    std::vector<Block> replay_blocks = makeSpdMatrix();
    tss::starss::TaskContext replay_ctx;
    spawnCholesky(replay_ctx, replay_blocks);
    tss::starss::ParallelRunStats replay_stats =
        tss::starss::ParallelExecutor(replay_ctx).runReplay(result);
    if (!matches_sequential(replay_blocks))
        return 1;
    std::cout << "replayed the simulated schedule on "
              << replay_stats.threads
              << " real threads: bit-identical again\n";

    // And let the dataflow graph run it as fast as the machine
    // allows: work-stealing deques over the renamed graph. The
    // simulated speedup printed next to it uses a matching 4-core
    // machine, so the two numbers are comparable.
    std::vector<Block> par_blocks = makeSpdMatrix();
    tss::starss::TaskContext par_ctx;
    spawnCholesky(par_ctx, par_blocks);
    tss::starss::ParallelRunStats par_stats = par_ctx.runParallel(4);
    if (!matches_sequential(par_blocks))
        return 1;
    tss::PipelineConfig small_cfg;
    small_cfg.numCores = par_stats.threads;
    double sim_speedup =
        tss::SystemBuilder(small_cfg, relocated).build()->run().speedup;
    std::cout << "graph mode on " << par_stats.threads << " threads: "
              << par_stats.wallSeconds * 1e3 << " ms wall, "
              << par_stats.steals << " steals — simulated speedup on "
              << par_stats.threads << " cores " << sim_speedup
              << "x, and the result is still exact\n";
    return 0;
}
