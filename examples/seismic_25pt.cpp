/**
 * The 25-point seismic kernel (Jacquelin et al.): generated code vs the
 * hand-written baseline on the WSE2 — the Figure 5 comparison as a
 * runnable example, including the mechanisms behind the generated
 * code's edge.
 *
 * Build & run:  ./build/example_seismic_25pt
 */

#include <cmath>
#include <cstdio>

#include "baselines/handwritten_seismic.h"
#include "dialects/all.h"
#include "frontends/benchmarks.h"
#include "interp/csl_interpreter.h"
#include "transforms/pipeline.h"
#include "wse/simulator.h"

using namespace wsc;

int
main()
{
    const int N = 13;
    const int64_t NZ = 192;
    const int64_t STEPS = 12;

    // --- generated ---
    fe::Benchmark bench = fe::makeSeismic(N, N, STEPS, NZ);
    ir::Context ctx;
    dialects::registerAllDialects(ctx);
    ir::OwningOp module = bench.program.emit(ctx);
    ir::PipelineResult result = transforms::runPipeline(module.get());
    if (!result) {
        fprintf(stderr, "%s\n", result.str().c_str());
        return 1;
    }

    wse::Simulator sim(wse::ArchParams::wse2(), N, N);
    interp::CslProgramInstance generated(sim, module.get());
    for (size_t f = 0; f < bench.program.numFields(); ++f) {
        int fi = static_cast<int>(f);
        auto init = bench.init;
        generated.setFieldInit(bench.program.fieldName(f),
                               [init, fi](int x, int y, int z) {
                                   return init(fi, x, y, z);
                               });
    }
    generated.configure();
    generated.launch();
    sim.runWithReport();
    const std::vector<wse::Cycles> &genMarks =
        generated.stepMarks(N / 2, N / 2);
    double genPerStep =
        static_cast<double>(genMarks.back() - genMarks[3]) /
        static_cast<double>(genMarks.size() - 4);
    uint64_t genTasks = sim.pe(N / 2, N / 2).taskActivations();

    // --- hand-written ---
    wse::Simulator hwSim(wse::ArchParams::wse2(), N, N);
    baselines::HandwrittenSeismicConfig config;
    config.nz = NZ;
    config.timesteps = STEPS;
    baselines::HandwrittenSeismic handwritten(hwSim, config);
    handwritten.setInit(bench.init);
    handwritten.configure();
    handwritten.launch();
    hwSim.runWithReport();
    const std::vector<wse::Cycles> &hwMarks =
        handwritten.stepMarks(N / 2, N / 2);
    double hwPerStep =
        static_cast<double>(hwMarks.back() - hwMarks[3]) /
        static_cast<double>(hwMarks.size() - 4);
    uint64_t hwTasks = hwSim.pe(N / 2, N / 2).taskActivations();

    printf("25-point seismic on WSE2, %dx%d PEs, z=%lld, %lld steps\n",
           N, N, static_cast<long long>(NZ),
           static_cast<long long>(STEPS));
    printf("%-26s %14s %16s\n", "", "generated", "hand-written");
    printf("%-26s %14.0f %16.0f\n", "cycles/step", genPerStep,
           hwPerStep);
    printf("%-26s %14.2f %16.2f\n", "task activations/step",
           static_cast<double>(genTasks) / STEPS,
           static_cast<double>(hwTasks) / STEPS);
    printf("%-26s %14s %16s\n", "column trimming", "yes (r=4)", "no");
    printf("%-26s %14s %16s\n", "chunks", "1", "2");
    printf("speedup of generated code: %.3fx\n",
           hwPerStep / genPerStep);

    // The two implementations also agree numerically.
    double maxDiff = 0;
    for (int x = 0; x < N; ++x)
        for (int y = 0; y < N; ++y) {
            std::vector<float> a = generated.readFieldColumn("p", x, y);
            std::vector<float> b = handwritten.readP(x, y);
            for (size_t z = 0; z < a.size(); ++z)
                maxDiff = std::max(
                    maxDiff, static_cast<double>(std::abs(a[z] - b[z])));
        }
    printf("max |generated - hand-written| = %.3g (%s)\n", maxDiff,
           maxDiff < 1e-4 ? "agree" : "MISMATCH");
    return maxDiff < 1e-4 ? 0 : 1;
}
