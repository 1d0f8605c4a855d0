/**
 * Figure 5: the compiler-generated 25-point seismic kernel vs the
 * hand-written implementation of Jacquelin et al. (WSE2-only), across
 * the three problem sizes. Reported as speedup over the hand-written
 * WSE2 kernel, as in the paper.
 */

#include <cmath>

#include "baselines/handwritten_seismic.h"
#include "bench_common.h"

using namespace wsc;

namespace {

/** Steady-state cycles/step of the hand-written kernel on a sub-grid. */
double
handwrittenCyclesPerStep(int simGrid, int64_t nz, int64_t steps)
{
    wse::Simulator sim(wse::ArchParams::wse2(), simGrid, simGrid);
    baselines::HandwrittenSeismicConfig config;
    config.nz = nz;
    config.timesteps = steps;
    baselines::HandwrittenSeismic hw(sim, config);
    hw.setInit([](int f, int x, int y, int z) {
        return static_cast<float>(std::sin(0.1 * (x + y + z + f)));
    });
    hw.configure();
    hw.launch();
    sim.runWithReport(8000000000ULL);
    const std::vector<wse::Cycles> &marks =
        hw.stepMarks(simGrid / 2, simGrid / 2);
    size_t w = 4;
    return static_cast<double>(marks.back() - marks[w]) /
           static_cast<double>(marks.size() - 1 - w);
}

} // namespace

int
main()
{
    printf("Figure 5: generated seismic kernel vs hand-written "
           "(Jacquelin et al.)\nSpeedup over the hand-written WSE2 "
           "kernel, z = 450.\n");
    bench::printRule('=');
    printf("%-14s %12s %12s %12s\n", "size", "hand WSE2",
           "ours WSE2", "ours WSE3");
    bench::printRule();

    fe::ProblemSize sizes[] = {fe::smallSize(), fe::mediumSize(),
                               fe::largeSize()};
    const int64_t steps = 14;
    const int simGrid = 13;
    for (const fe::ProblemSize &size : sizes) {
        double hwCycles = handwrittenCyclesPerStep(simGrid, 450, steps);

        fe::Benchmark ours2 = fe::makeSeismic(size.nx, size.ny, steps);
        model::WaferPerf w2 = model::measureBenchmark(
            ours2, wse::ArchParams::wse2(),
            bench::defaultMeasure(simGrid));
        fe::Benchmark ours3 = fe::makeSeismic(size.nx, size.ny, steps);
        model::WaferPerf w3 = model::measureBenchmark(
            ours3, wse::ArchParams::wse3(),
            bench::defaultMeasure(simGrid));

        // Same problem size: speedup = inverse cycles-per-step ratio,
        // with the WSE3's clock advantage applied.
        double clock2 = wse::ArchParams::wse2().clockGHz;
        double clock3 = wse::ArchParams::wse3().clockGHz;
        double oursWse2 = hwCycles / w2.cyclesPerStep;
        double oursWse3 =
            (hwCycles / clock2) / (w3.cyclesPerStep / clock3);
        printf("%-14s %12.2f %12.3f %12.3f\n",
               (std::to_string(size.nx) + "x" + std::to_string(size.ny) +
                "x450")
                   .c_str(),
               1.0, oursWse2, oursWse3);
    }
    bench::printRule('=');
    printf("Paper shape: ours(WSE2) up to ~1.08x the hand-written code "
           "(single\nchunk, trimmed columns, ~50%% fewer tasks); "
           "ours(WSE3) up to ~1.38x.\n");
    printf("Note: the steady-state interior metric is size-invariant "
           "here; the\npaper's mild size dependence comes from "
           "whole-wafer fill effects the\nsub-grid methodology "
           "deliberately factors out (docs/architecture.md §3,\n"
           "\"Timing model\").\n");
    return 0;
}
