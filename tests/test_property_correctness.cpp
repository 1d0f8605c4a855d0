#include "test_helpers.h"

#include "property_cases.h"

namespace wsc::test {
namespace {

/**
 * Property suite: for any star-shaped linear stencil (random-ish
 * coefficients derived from the parameters), any grid shape and chunk
 * count, the compiled WSE program must agree with the reference
 * executor. This sweeps the space the paper's pipeline must handle:
 * radius 1..3, multiple z depths, uneven grids and chunked exchanges.
 */
class StencilProperty : public ::testing::TestWithParam<PropertyCase>
{
};

TEST_P(StencilProperty, CompiledMatchesReference)
{
    PropertyCase pc = GetParam();
    fe::Benchmark bench = makePropertyBenchmark(pc);

    ir::Context ctx;
    dialects::registerAllDialects(ctx);
    ir::OwningOp module = bench.program.emit(ctx);
    transforms::PipelineOptions options;
    options.forceNumChunks = pc.forceChunks;
    transforms::runPipeline(module.get(), options);

    wse::Simulator sim(wse::ArchParams::wse3(), pc.nx, pc.ny);
    interp::CslProgramInstance instance(sim, module.get());
    auto init = bench.init;
    instance.setFieldInit("u", [init](int x, int y, int z) {
        return init(0, x, y, z);
    });
    instance.configure();
    instance.launch();
    sim.runWithReport(4000000000ULL);

    model::ReferenceExecutor ref(bench.program, bench.init);
    ref.run(pc.steps);
    double maxErr = 0;
    for (int x = 0; x < pc.nx; ++x)
        for (int y = 0; y < pc.ny; ++y) {
            std::vector<float> col = instance.readFieldColumn("u", x, y);
            for (size_t z = 0; z < col.size(); ++z) {
                double r = ref.at(0, x, y, static_cast<int64_t>(z));
                maxErr = std::max(maxErr,
                                  std::abs(col[z] - r) /
                                      std::max(1.0, std::abs(r)));
            }
        }
    EXPECT_LT(maxErr, 2e-4);
}

INSTANTIATE_TEST_SUITE_P(
    RadiusGridChunkSweep, StencilProperty,
    ::testing::ValuesIn(propertyCases()),
    [](const ::testing::TestParamInfo<PropertyCase> &info) {
        return propertyCaseName(info.param);
    });

} // namespace
} // namespace wsc::test
