/**
 * Large-grid acoustic scenario: the paper-scale sharded-simulation
 * trajectory (one column strip per thread, conservative one-hop
 * windows). Runs a 96x96-PE acoustic wave kernel — the README scenario
 * table's large-grid row — at several thread counts and prints the
 * scheduler telemetry next to the (identical) simulation results.
 *
 * Build & run:  ./build/example_large_grid_acoustic
 * Environment:  WSC_GRID=N      grid edge (default 96)
 *               WSC_STEPS=N     timesteps (default 2)
 *               WSC_Z=N         column depth (default 8)
 */

#include <cstdio>

#include "dialects/all.h"
#include "frontends/benchmarks.h"
#include "interp/csl_interpreter.h"
#include "support/env.h"
#include "transforms/pipeline.h"
#include "wse/simulator.h"

using namespace wsc;

namespace {

void
runWithThreads(int threads, const fe::Benchmark &bench,
               ir::Operation *module, int n)
{
    wse::Simulator sim(wse::ArchParams::wse3(), n, n,
                       wse::SimOptions{threads});
    interp::CslProgramInstance instance(sim, module);
    auto init = bench.init;
    instance.setFieldInit("p", [init](int x, int y, int z) {
        return init(0, x, y, z);
    });
    instance.configure();
    instance.launch();
    wse::Cycles final = sim.runWithReport(4000000000ULL).finalCycle;
    wse::ShardingTelemetry t = sim.telemetry();
    printf("  threads=%-2d strips=%-2d cycles=%-8llu events=%-10llu "
           "windows=%-8llu shard_windows=%llu\n",
           threads, sim.shardCount(),
           static_cast<unsigned long long>(final),
           static_cast<unsigned long long>(sim.stats().eventsProcessed),
           static_cast<unsigned long long>(t.windows),
           static_cast<unsigned long long>(t.shardWindowsRun));
}

} // namespace

int
main()
{
    const int n = static_cast<int>(envU64("WSC_GRID", 96));
    const int steps = static_cast<int>(envU64("WSC_STEPS", 2));
    const int z = static_cast<int>(envU64("WSC_Z", 8));
    printf("Acoustic wave (r=2 star) on %dx%d PEs, z=%d, %d steps\n", n,
           n, z, steps);

    fe::Benchmark bench = fe::makeAcoustic(n, n, steps, z);
    ir::Context ctx;
    dialects::registerAllDialects(ctx);
    ir::OwningOp module = bench.program.emit(ctx);
    ir::PipelineResult result = transforms::runPipeline(module.get());
    if (!result) {
        fprintf(stderr, "%s\n", result.str().c_str());
        return 1;
    }

    // Every row simulates the same wafer: cycles and events are
    // bit-identical by the sharded determinism contract — only the
    // scheduler telemetry (windows, shard-windows) changes with the
    // thread count.
    for (int threads : {1, 2, 4})
        runWithThreads(threads, bench, module.get(), n);
    return 0;
}
