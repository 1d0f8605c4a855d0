/**
 * UVKBE through the PSyclone-style Fortran frontend: four fields, two
 * of which are communicated, two consecutive stencil.apply operations
 * chained through their done-exchange callbacks (the paper's
 * continuation-passing structure for programs without a timestep loop).
 *
 * Build & run:  ./build/example_uvkbe_psyclone
 */

#include <cstdio>

#include "codegen/csl_emitter.h"
#include "codegen/loc_counter.h"
#include "dialects/all.h"
#include "frontends/benchmarks.h"
#include "interp/csl_interpreter.h"
#include "model/reference.h"
#include "transforms/pipeline.h"
#include "wse/simulator.h"

using namespace wsc;

int
main()
{
    fe::Benchmark bench = fe::makeUvkbe(10, 10, 64);
    printf("--- PSyclone-style Fortran kernel ---\n%s\n",
           bench.dslSource.c_str());

    ir::Context ctx;
    dialects::registerAllDialects(ctx);
    ir::OwningOp module = bench.program.emit(ctx);
    ir::PipelineResult result = transforms::runPipeline(module.get());
    if (!result) {
        fprintf(stderr, "%s\n", result.str().c_str());
        return 1;
    }

    // Two exchange sites chained by continuations.
    int sites = 0;
    module->walk([&](ir::Operation *op) {
        if (op->opId() == dialects::csl::kCommsExchange) {
            auto spec = dialects::csl::commsExchangeSpec(op);
            printf("exchange %d: %zu sections -> %s then %s\n", sites,
                   spec.accesses.size(), spec.recvCallback.c_str(),
                   spec.doneCallback.c_str());
            sites++;
        }
    });
    printf("(%d consecutive applies; fused by stencil-inlining, split "
           "again\n per buffer communication)\n\n",
           sites);

    wse::Simulator sim(wse::ArchParams::wse3(), 10, 10);
    interp::CslProgramInstance instance(sim, module.get());
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
    sim.runWithReport();

    model::ReferenceExecutor ref(bench.program, bench.init);
    ref.run(1);
    double maxErr = 0;
    for (size_t f = 0; f < bench.program.numFields(); ++f) {
        if (bench.program.isIntermediate(f))
            continue; // ke never leaves the PEs
        const std::string &name = bench.program.fieldName(f);
        // Compare the joint interior: the fused kernel computes only
        // where *all* fused accesses are in bounds, one cell in from
        // every edge.
        for (int x = 1; x < 9; ++x)
            for (int y = 1; y < 9; ++y) {
                std::vector<float> col =
                    instance.readFieldColumn(name, x, y);
                for (size_t z = 0; z < col.size(); ++z)
                    maxErr = std::max(
                        maxErr,
                        static_cast<double>(std::abs(
                            col[z] - ref.at(f, x, y,
                                            static_cast<int64_t>(z)))));
            }
    }
    printf("single iteration simulated in %llu cycles; max error vs "
           "reference: %.3g (%s)\n",
           static_cast<unsigned long long>(sim.now()), maxErr,
           maxErr < 1e-4 ? "OK" : "MISMATCH");

    codegen::EmittedCsl csl = codegen::emitCsl(module.get());
    printf("generated CSL kernel: %lld LoC; the Fortran above: %lld "
           "LoC\n",
           static_cast<long long>(codegen::countLoc(csl.programFile)),
           static_cast<long long>(codegen::countLoc(bench.dslSource)));
    return maxErr < 1e-4 ? 0 : 1;
}
