/**
 * Heat diffusion through the Devito-like frontend: demonstrates the
 * chunked exchange policy (receive-buffer budget), coefficient
 * promotion, and per-PE memory accounting on both WSE generations.
 *
 * Build & run:  ./build/example_heat_diffusion
 */

#include <cstdio>

#include "dialects/all.h"
#include "frontends/benchmarks.h"
#include "interp/csl_interpreter.h"
#include "transforms/pipeline.h"
#include "wse/simulator.h"

using namespace wsc;

namespace {

void
runOn(const wse::ArchParams &arch, const fe::Benchmark &bench,
      ir::Operation *module)
{
    wse::Simulator sim(arch, 10, 10);
    interp::CslProgramInstance instance(sim, module);
    auto init = bench.init;
    instance.setFieldInit("u", [init](int x, int y, int z) {
        return init(0, x, y, z);
    });
    instance.configure();
    instance.launch();
    sim.runWithReport();
    const std::vector<wse::Cycles> &marks = instance.stepMarks(5, 5);
    double perStep =
        static_cast<double>(marks.back() - marks[2]) /
        static_cast<double>(marks.size() - 3);
    printf("  %-5s: %8.0f cycles/step, %6.2f us/step @ %.2f GHz, "
           "%zu B/PE\n",
           arch.name.c_str(), perStep,
           perStep / (arch.clockGHz * 1e3), arch.clockGHz,
           instance.memoryBytesUsed(5, 5));
}

} // namespace

int
main()
{
    printf("Heat diffusion (13-point star, r=2) on 10x10 PEs, z=704\n");
    printf("--- Devito source the scientist writes ---\n");
    fe::Benchmark bench = fe::makeDiffusion(10, 10, 12);
    printf("%s\n", bench.dslSource.c_str());

    ir::Context ctx;
    dialects::registerAllDialects(ctx);
    ir::OwningOp module = bench.program.emit(ctx);
    ir::PipelineResult result = transforms::runPipeline(module.get());
    if (!result) {
        fprintf(stderr, "%s\n", result.str().c_str());
        return 1;
    }

    // The compiler's chunking decision for the real column length.
    ir::Operation *comms = nullptr;
    module->walk([&](ir::Operation *op) {
        if (op->opId() == dialects::csl::kCommsExchange)
            comms = op;
    });
    auto spec = dialects::csl::commsExchangeSpec(comms);
    printf("--- compiler decisions ---\n");
    printf("  remote accesses: %zu  pattern radius: %lld  chunks: %lld "
           " trims: %lld/%lld\n",
           spec.accesses.size(), static_cast<long long>(spec.pattern),
           static_cast<long long>(spec.numChunks),
           static_cast<long long>(spec.trimFirst),
           static_cast<long long>(spec.trimLast));
    printf("  promoted coefficients: %s\n",
           spec.coeffs.empty() ? "no" : "yes");

    printf("--- simulated per-step cost ---\n");
    runOn(wse::ArchParams::wse2(), bench, module.get());
    runOn(wse::ArchParams::wse3(), bench, module.get());
    return 0;
}
