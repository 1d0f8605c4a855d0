/**
 * @file
 * Wafer-scale performance extrapolation (docs/architecture.md §3,
 * "Timing model"): functionally simulate a small PE sub-grid, measure
 * steady-state per-timestep cycles on an interior PE (every interior PE
 * executes an identical task schedule), and extrapolate wafer
 * throughput for the full problem size.
 * A test validates the extrapolation against direct whole-grid
 * simulations at sizes where both are feasible.
 */

#ifndef WSC_MODEL_WAFER_MODEL_H
#define WSC_MODEL_WAFER_MODEL_H

#include <cstdint>
#include <string>

#include "frontends/benchmarks.h"
#include "model/flops.h"
#include "wse/arch_params.h"

namespace wsc::model {

/** Options for one measurement run. */
struct MeasureOptions
{
    /** Simulated sub-grid edge (0 = derive from the stencil radius). */
    int simGrid = 0;
    /** Timesteps to simulate. */
    int64_t steps = 10;
    /** Leading steps excluded from the steady-state window. */
    int64_t warmupSteps = 3;
};

/** Measured + extrapolated performance of one benchmark on one arch. */
struct WaferPerf
{
    std::string benchmark;
    std::string arch;
    int64_t problemNx = 0;
    int64_t problemNy = 0;
    int64_t problemNz = 0;
    /** Steady-state cycles per timestep on an interior PE. */
    double cyclesPerStep = 0.0;
    /** Wafer throughput in giga grid-points per second (whole domain
     *  per iteration, the paper's GPts/s). */
    double gptsPerSec = 0.0;
    /** Extrapolated FP32 FLOP/s. */
    double flopsPerSec = 0.0;
    /** Static per-PE work profile (roofline inputs). */
    WorkProfile work;
    /** Per-PE memory in use (bytes), for the 48 kB budget. */
    size_t peMemoryBytes = 0;
    /** Task activations per PE per step (steady state). */
    double taskActivationsPerStep = 0.0;
};

/**
 * Compile `bench` through the full pipeline, simulate it on a small
 * sub-grid of `arch`, and extrapolate to the full problem size
 * (bench.program.grid() gives nx, ny, nz).
 */
WaferPerf measureBenchmark(const fe::Benchmark &bench,
                           const wse::ArchParams &arch,
                           const MeasureOptions &options = {});

/**
 * Same measurement against an already-lowered module (used by ablation
 * benches that tweak pipeline options).
 */
WaferPerf measureLoweredModule(ir::Operation *module,
                               const fe::Benchmark &bench,
                               const wse::ArchParams &arch,
                               const MeasureOptions &options = {});

} // namespace wsc::model

#endif // WSC_MODEL_WAFER_MODEL_H
