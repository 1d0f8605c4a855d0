#include "model/wafer_model.h"

#include <algorithm>
#include <cmath>

#include "dialects/all.h"
#include "interp/csl_interpreter.h"
#include "support/error.h"
#include "transforms/pipeline.h"
#include "wse/simulator.h"

namespace wsc::model {

namespace {

/** Maximum (x, y) stencil radius over the program's updates. */
int
xyRadius(const fe::Program &program)
{
    int r = 1;
    for (size_t f = 0; f < program.numFields(); ++f) {
        if (!program.update(f))
            continue;
        int rx = 0;
        int ry = 0;
        int rz = 0;
        program.update(f)->radius(rx, ry, rz);
        r = std::max({r, rx, ry});
    }
    return r;
}

} // namespace

WaferPerf
measureLoweredModule(ir::Operation *module, const fe::Benchmark &bench,
                     const wse::ArchParams &arch,
                     const MeasureOptions &options)
{
    const fe::Grid &grid = bench.program.grid();
    int radius = xyRadius(bench.program);
    int simGrid = options.simGrid > 0 ? options.simGrid
                                      : std::max(4 * radius + 1, 7);
    simGrid = static_cast<int>(
        std::min<int64_t>({simGrid, grid.nx, grid.ny}));

    wse::Simulator sim(arch, simGrid, simGrid);
    interp::CslProgramInstance instance(sim, module);
    for (size_t f = 0; f < bench.program.numFields(); ++f) {
        int fi = static_cast<int>(f);
        auto init = bench.init;
        instance.setFieldInit(bench.program.fieldName(f),
                              [init, fi](int x, int y, int z) {
                                  return init(fi, x, y, z);
                              });
    }
    instance.configure();
    instance.launch();
    const wse::SimReport report = sim.runWithReport(4000000000ULL);
    if (report.outcome != wse::SimOutcome::Completed)
        fatal(strcat("measuring ", bench.name, " on ", arch.name, ": ",
                     report.diagnosis.toString()));

    WaferPerf perf;
    perf.benchmark = bench.name;
    perf.arch = arch.name;
    perf.problemNx = grid.nx;
    perf.problemNy = grid.ny;
    perf.problemNz = grid.nz;
    perf.work = analyzeProgramWork(module);
    int cx = simGrid / 2;
    perf.peMemoryBytes = instance.memoryBytesUsed(cx, cx);

    // Steady-state cycles per step from the interior PE's step markers.
    const std::vector<wse::Cycles> &marks = instance.stepMarks(cx, cx);
    int64_t steps = bench.program.timesteps();
    if (marks.size() >= 3) {
        size_t w = std::min<size_t>(
            static_cast<size_t>(options.warmupSteps), marks.size() - 2);
        perf.cyclesPerStep =
            static_cast<double>(marks.back() - marks[w]) /
            static_cast<double>(marks.size() - 1 - w);
    } else {
        // Single-iteration programs (UVKBE): total runtime is the step.
        perf.cyclesPerStep = static_cast<double>(sim.now()) /
                             static_cast<double>(std::max<int64_t>(
                                 steps, 1));
    }

    double secPerStep = perf.cyclesPerStep / (arch.clockGHz * 1e9);
    double pointsPerStep = static_cast<double>(grid.nx) * grid.ny *
                           grid.nz;
    perf.gptsPerSec = pointsPerStep / secPerStep / 1e9;

    // FLOP/s: interior PEs carry the compute.
    double interiorPes =
        static_cast<double>(std::max<int64_t>(grid.nx - 2 * radius, 1)) *
        static_cast<double>(std::max<int64_t>(grid.ny - 2 * radius, 1));
    perf.flopsPerSec = static_cast<double>(perf.work.flops) *
                       interiorPes / secPerStep;

    perf.taskActivationsPerStep =
        static_cast<double>(sim.pe(cx, cx).taskActivations()) /
        static_cast<double>(std::max<int64_t>(steps, 1));
    return perf;
}

WaferPerf
measureBenchmark(const fe::Benchmark &bench, const wse::ArchParams &arch,
                 const MeasureOptions &options)
{
    ir::Context ctx;
    dialects::registerAllDialects(ctx);
    ir::OwningOp module = bench.program.emit(ctx);
    ir::PipelineResult result = transforms::runPipeline(module.get());
    if (!result)
        fatal("wafer model: benchmark failed to compile:\n" +
              result.str());
    return measureLoweredModule(module.get(), bench, arch, options);
}

} // namespace wsc::model
