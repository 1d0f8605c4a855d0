/**
 * Quickstart: express a stencil, lower it through the full pipeline,
 * look at the generated CSL, and run it on a simulated WSE3 — the
 * complete zero-to-results tour of the public API.
 *
 * Build & run:  ./build/example_quickstart
 */

#include <cstdio>

#include "codegen/csl_emitter.h"
#include "dialects/all.h"
#include "frontends/sym.h"
#include "interp/csl_interpreter.h"
#include "ir/printer.h"
#include "transforms/pipeline.h"
#include "wse/simulator.h"

using namespace wsc;

int
main()
{
    // 1. Express the stencil in the Devito-like symbolic frontend: a
    //    four-neighbour average run for 10 timesteps on an 8x8 grid of
    //    PEs, each holding a 32-element z-column.
    fe::Program program(fe::Grid{8, 8, 32});
    program.setTimesteps(10);
    fe::Field u = program.addField("u");
    program.setUpdate(u, fe::constant(0.25) *
                             (u.at(1, 0, 0) + u.at(-1, 0, 0) +
                              u.at(0, 1, 0) + u.at(0, -1, 0)));

    // 2. Emit the stencil dialect and run the WSE lowering pipeline.
    ir::Context ctx;
    dialects::registerAllDialects(ctx);
    ir::OwningOp module = program.emit(ctx);
    printf("=== stencil dialect (input) ===\n%s\n",
           ir::printOp(module.get()).c_str());

    ir::PipelineResult result = transforms::runPipeline(module.get());
    if (!result) {
        fprintf(stderr, "%s\n", result.str().c_str());
        return 1;
    }

    // 3. Print the generated CSL sources.
    codegen::EmittedCsl csl = codegen::emitCsl(module.get());
    printf("=== generated pe.csl (first lines) ===\n");
    printf("%.1200s...\n\n", csl.programFile.c_str());

    // 4. Run the same lowered program on the simulated WSE3.
    wse::Simulator sim(wse::ArchParams::wse3(), 8, 8);
    interp::CslProgramInstance instance(sim, module.get());
    instance.setFieldInit("u", [](int x, int y, int z) {
        return static_cast<float>(x + y) + 0.01f * static_cast<float>(z);
    });
    instance.configure();
    instance.launch();
    sim.runWithReport();

    printf("=== simulation ===\n");
    printf("finished at cycle %llu; %llu PEs returned control to the "
           "host\n",
           static_cast<unsigned long long>(sim.now()),
           static_cast<unsigned long long>(instance.unblockCount()));
    std::vector<float> column = instance.readFieldColumn("u", 4, 4);
    printf("u(4,4,0..3) after 10 steps: %.4f %.4f %.4f %.4f\n",
           column[0], column[1], column[2], column[3]);
    printf("per-PE memory in use: %zu bytes (of 48 kB)\n",
           instance.memoryBytesUsed(4, 4));
    return 0;
}
