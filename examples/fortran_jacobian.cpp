/**
 * The paper's Figure 1 journey: a scientist's unmodified Fortran loop
 * nest (Flang-style frontend) becomes an asynchronous task graph on the
 * WSE. The example prints the task/callback structure that replaces the
 * timestep loop and validates the numerics against a scalar reference.
 *
 * Build & run:  ./build/example_fortran_jacobian
 */

#include <cmath>
#include <cstdio>

#include "dialects/all.h"
#include "frontends/fortran_frontend.h"
#include "interp/csl_interpreter.h"
#include "model/reference.h"
#include "transforms/pipeline.h"
#include "wse/simulator.h"

using namespace wsc;

int
main()
{
    // The Fortran the scientist wrote (cf. paper Figure 1 / Listing 1).
    const char *source = R"(
      do step = 1, 8
       do i = 2, 11
        do j = 2, 11
         do k = 2, 31
          a(k,j,i) = 0.16666667 * (a(k-1,j,i) + a(k+1,j,i)
                   + a(k,j-1,i) + a(k,j+1,i)
                   + a(k,j,i-1) + a(k,j,i+1))
         enddo
        enddo
       enddo
      enddo
    )";
    printf("--- Fortran input (unmodified) ---\n%s\n", source);

    fe::FortranKernelConfig config{12, 12, 32, 8};
    fe::FortranParseResult parsed =
        fe::parseFortranStencilChecked(source, config);
    if (!parsed) {
        fprintf(stderr, "%s\n", parsed.diagnostic.str().c_str());
        return 1;
    }
    fe::Program program = std::move(*parsed.program);

    ir::Context ctx;
    dialects::registerAllDialects(ctx);
    ir::OwningOp module = program.emit(ctx);
    ir::PipelineResult result = transforms::runPipeline(module.get());
    if (!result) {
        fprintf(stderr, "%s\n", result.str().c_str());
        return 1;
    }

    // Show the actor structure the timestep loop was recast into.
    printf("--- task graph replacing the loop (cf. Figure 1) ---\n");
    module->walk([](ir::Operation *op) {
        if (op->opId() == dialects::csl::kTask)
            printf("  task %-22s (local, id %lld)\n",
                   op->strAttr("sym_name").c_str(),
                   static_cast<long long>(op->intAttr("id")));
        else if (op->opId() == dialects::csl::kFunc)
            printf("  fn   %s\n", op->strAttr("sym_name").c_str());
    });

    // Run on the simulated WSE3 and compare with a scalar reference.
    auto init = [](int x, int y, int z) {
        return static_cast<float>(std::sin(0.2 * x) + std::cos(0.1 * y) +
                                  0.05 * z);
    };
    wse::Simulator sim(wse::ArchParams::wse3(), 12, 12);
    interp::CslProgramInstance instance(sim, module.get());
    instance.setFieldInit("a", init);
    instance.configure();
    instance.launch();
    sim.runWithReport();

    model::ReferenceExecutor ref(
        program, [&](int, int64_t x, int64_t y, int64_t z) {
            return init(static_cast<int>(x), static_cast<int>(y),
                        static_cast<int>(z));
        });
    ref.run(8);

    double maxErr = 0;
    for (int x = 0; x < 12; ++x)
        for (int y = 0; y < 12; ++y) {
            std::vector<float> col = instance.readFieldColumn("a", x, y);
            for (size_t z = 0; z < col.size(); ++z)
                maxErr = std::max(
                    maxErr,
                    static_cast<double>(std::abs(
                        col[z] -
                        ref.at(0, x, y, static_cast<int64_t>(z)))));
        }
    printf("--- validation ---\n");
    printf("max |WSE - reference| after 8 steps: %.3g  (%s)\n", maxErr,
           maxErr < 1e-4 ? "OK" : "MISMATCH");
    printf("simulated cycles: %llu; task activations on PE(6,6): %llu\n",
           static_cast<unsigned long long>(sim.now()),
           static_cast<unsigned long long>(
               sim.pe(6, 6).taskActivations()));
    return maxErr < 1e-4 ? 0 : 1;
}
