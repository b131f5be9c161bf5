/**
 * @file
 * The pinned minimum-safe OVT capacity for the wide shared-object
 * wedge repro (wideTrace(80, 64, 5) over 3 generating threads and 2
 * directory slices — see tests/test_noc_system.cc). Shared between
 * the OvtCapacity tests and the bench metadata selftest
 * (bench/compare_bench.py checks BENCH_noc.json carries this value),
 * so capacity-sizing changes surface loudly in both places.
 *
 * Why 10 is the structural minimum: under the reserve/escape liveness
 * protocol (core/ort.hh) the machine-wide oldest unfinished task may
 * always claim a version slot as long as one is free, and slots
 * recycle at retirement. The only irreducible demand is therefore the
 * per-slice live-version footprint of a *single* task: the oldest
 * task must be able to hold all of the versions its own operands pin
 * on one slice simultaneously before it can finish decoding. The
 * repro's worst offender — task 32 — places 10 of its 12 memory
 * operands on one slice, so 10 slots per slice are necessary; the
 * reserve escape makes them sufficient (verified by the wedge/
 * complete bisection in OvtCapacity.MinimumSafeOvtBoundForWideRepro:
 * 9 slots wedge with task 32 permanently starved, 10 complete). The
 * pre-protocol bound was 86 — the workload's peak concurrent demand
 * rather than any single task's.
 */

#ifndef TSS_TESTS_OVT_BOUND_HH
#define TSS_TESTS_OVT_BOUND_HH

namespace tss
{

/// Minimum slots per slice at which the wedge repro completes; one
/// fewer deterministically wedges.
constexpr unsigned kMinSafeOvtSlotsPerSlice = 10;

} // namespace tss

#endif // TSS_TESTS_OVT_BOUND_HH
