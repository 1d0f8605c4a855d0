#include "test_helpers.h"

namespace wsc::test {
namespace {

/**
 * Property suite: for any star-shaped linear stencil (random-ish
 * coefficients derived from the parameters), any grid shape and chunk
 * count, the compiled WSE program must agree with the reference
 * executor. This sweeps the space the paper's pipeline must handle:
 * radius 1..3, multiple z depths, uneven grids and chunked exchanges.
 */
struct PropertyCase
{
    int radius;
    int nx;
    int ny;
    int nz;
    int steps;
    int forceChunks; // 0 = policy default
};

class StencilProperty : public ::testing::TestWithParam<PropertyCase>
{
};

/** Deterministic pseudo-random coefficient for term i. */
double
coeffFor(int i, int radius)
{
    double c = 0.03 + 0.021 * ((i * 7 + radius * 13) % 11);
    return ((i + radius) % 2 == 0) ? c : -c;
}

fe::Benchmark
makePropertyBenchmark(const PropertyCase &pc)
{
    fe::Program program(
        fe::Grid{pc.nx, pc.ny, pc.nz});
    program.setTimesteps(pc.steps);
    fe::Field u = program.addField("u");
    // Coefficients are assigned in a fixed order (chained `+` would
    // leave the evaluation order of `term++` unspecified).
    int term = 0;
    auto next = [&] { return fe::constant(coeffFor(term++, pc.radius)); };
    fe::Expr update = next() * u();
    for (int d = 1; d <= pc.radius; ++d) {
        update = update + next() * u.at(d, 0, 0);
        update = update + next() * u.at(-d, 0, 0);
        update = update + next() * u.at(0, d, 0);
        update = update + next() * u.at(0, -d, 0);
        update = update + next() * u.at(0, 0, d);
        update = update + next() * u.at(0, 0, -d);
    }
    program.setUpdate(u, update);

    fe::Benchmark bench;
    bench.name = "property";
    bench.frontend = "sym";
    bench.program = std::move(program);
    bench.paperIterations = pc.steps;
    bench.init = [](int f, int64_t x, int64_t y, int64_t z) {
        return static_cast<float>(
            std::sin(0.13 * static_cast<double>(x + 2 * y) + 0.2 * f) +
            0.4 * std::cos(0.09 * static_cast<double>(z)));
    };
    return bench;
}

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
    ::testing::Values(
        PropertyCase{1, 6, 6, 10, 3, 0},
        PropertyCase{1, 6, 6, 10, 3, 2},
        PropertyCase{1, 9, 4, 14, 4, 0},
        PropertyCase{1, 4, 9, 14, 4, 3},
        PropertyCase{2, 7, 7, 12, 3, 0},
        PropertyCase{2, 7, 7, 12, 3, 2},
        PropertyCase{2, 10, 6, 18, 3, 4},
        PropertyCase{2, 6, 10, 18, 2, 0},
        PropertyCase{3, 8, 8, 16, 3, 0},
        PropertyCase{3, 8, 8, 16, 3, 2},
        PropertyCase{3, 11, 8, 20, 2, 5},
        PropertyCase{3, 8, 11, 20, 2, 0}),
    [](const ::testing::TestParamInfo<PropertyCase> &info) {
        const PropertyCase &pc = info.param;
        return "r" + std::to_string(pc.radius) + "_g" +
               std::to_string(pc.nx) + "x" + std::to_string(pc.ny) +
               "x" + std::to_string(pc.nz) + "_s" +
               std::to_string(pc.steps) + "_c" +
               std::to_string(pc.forceChunks);
    });

} // namespace
} // namespace wsc::test
