#include "test_helpers.h"

#include "baselines/handwritten_seismic.h"
#include "model/wafer_model.h"

namespace wsc::test {
namespace {

/** Steady-state cycles/step of the hand-written kernel on WSE2. */
double
handwrittenCyclesPerStep(int grid, int64_t nz, int64_t steps)
{
    wse::Simulator sim(wse::ArchParams::wse2(), grid, grid);
    baselines::HandwrittenSeismicConfig config;
    config.nz = nz;
    config.timesteps = steps;
    baselines::HandwrittenSeismic hw(sim, config);
    hw.setInit([](int f, int x, int y, int z) {
        return static_cast<float>(std::sin(0.1 * (x + y + z + f)));
    });
    hw.configure();
    hw.launch();
    sim.runWithReport(4000000000ULL);
    const std::vector<wse::Cycles> &marks =
        hw.stepMarks(grid / 2, grid / 2);
    size_t w = 3;
    return static_cast<double>(marks.back() - marks[w]) /
           static_cast<double>(marks.size() - 1 - w);
}

/**
 * These tests pin the *shape* of the paper's performance results (§6):
 * orderings and rough factors, not absolute numbers.
 */
class PerfTrend : public ::testing::Test
{
  protected:
    model::MeasureOptions fastOptions(int grid = 0)
    {
        model::MeasureOptions o;
        o.steps = 10;
        o.warmupSteps = 3;
        o.simGrid = grid;
        return o;
    }
};

TEST_F(PerfTrend, Wse3BeatsWse2OnEveryBenchmark)
{
    // Figure 4's ordering, on reduced problem instances.
    std::vector<fe::Benchmark> benches;
    benches.push_back(fe::makeJacobian(100, 100, 10, 128));
    benches.push_back(fe::makeDiffusion(100, 100, 10, 128));
    benches.push_back(fe::makeSeismic(100, 100, 10, 96));
    for (fe::Benchmark &bench : benches) {
        model::WaferPerf w2 = model::measureBenchmark(
            bench, wse::ArchParams::wse2(), fastOptions());
        model::WaferPerf w3 = model::measureBenchmark(
            bench, wse::ArchParams::wse3(), fastOptions());
        EXPECT_GT(w3.gptsPerSec, w2.gptsPerSec) << bench.name;
    }
}

TEST_F(PerfTrend, GeneratedSeismicBeatsHandwrittenOnWse2)
{
    // Figure 5: the generated kernel's single chunk, trimmed columns
    // and per-chunk callbacks give it the edge (up to ~8% in the
    // paper). At the paper's column length the advantage is a modest
    // factor; short columns would exaggerate the fixed task/switch
    // overheads the hand-written kernel pays per chunk.
    const int64_t NZ = 450; // the paper's seismic column
    fe::Benchmark bench = fe::makeSeismic(11, 11, 12, NZ);
    model::WaferPerf ours = model::measureBenchmark(
        bench, wse::ArchParams::wse2(), fastOptions(11));
    double hw = handwrittenCyclesPerStep(11, NZ, 12);
    EXPECT_LT(ours.cyclesPerStep, hw);
    // The simulator's queueing model amplifies the hand-written
    // kernel's chunk-synchronization stalls beyond the paper's 7.9%,
    // so the bound only keeps the advantage to the same order.
    EXPECT_GT(ours.cyclesPerStep, 0.5 * hw);
}

TEST_F(PerfTrend, GeneratedUsesFewerTaskActivations)
{
    // §6.1: our communications library reduces task count by ~50%.
    const int64_t NZ = 96;
    fe::Benchmark bench = fe::makeSeismic(11, 11, 12, NZ);
    model::WaferPerf ours = model::measureBenchmark(
        bench, wse::ArchParams::wse2(), fastOptions(11));

    wse::Simulator sim(wse::ArchParams::wse2(), 11, 11);
    baselines::HandwrittenSeismicConfig config;
    config.nz = NZ;
    config.timesteps = 12;
    baselines::HandwrittenSeismic hw(sim, config);
    hw.setInit([](int, int, int, int) { return 1.0f; });
    hw.configure();
    hw.launch();
    sim.runWithReport(4000000000ULL);
    double hwActivations =
        static_cast<double>(sim.pe(5, 5).taskActivations()) / 12.0;

    EXPECT_LT(ours.taskActivationsPerStep, 0.6 * hwActivations);
}

TEST_F(PerfTrend, MoreChunksCostMoreTime)
{
    // The chunk-count ablation: chunking saves memory, costs cycles.
    fe::Benchmark bench = fe::makeDiffusion(9, 9, 10, 128);
    ir::Context ctx;
    dialects::registerAllDialects(ctx);

    auto measure = [&](int64_t chunks) {
        fe::Benchmark local = fe::makeDiffusion(9, 9, 10, 128);
        ir::OwningOp module = local.program.emit(ctx);
        transforms::PipelineOptions options;
        options.forceNumChunks = chunks;
        transforms::runPipeline(module.get(), options);
        return model::measureLoweredModule(
            module.get(), local, wse::ArchParams::wse3(),
            model::MeasureOptions{9, 10, 3});
    };
    model::WaferPerf one = measure(1);
    model::WaferPerf four = measure(4);
    EXPECT_LT(one.cyclesPerStep, four.cyclesPerStep);
    EXPECT_GT(one.peMemoryBytes, four.peMemoryBytes);
    (void)bench;
}

TEST_F(PerfTrend, JacobianIsTheMostFabricHungryBenchmark)
{
    // Figure 7: Jacobian is the only fabric-bound kernel — it has the
    // lowest fabric arithmetic intensity of the five.
    std::vector<fe::Benchmark> all = fe::makeAllBenchmarks(12, 12, 4);
    double jacobianAi = 0;
    double minOtherAi = 1e30;
    for (fe::Benchmark &bench : all) {
        ir::Context ctx;
        dialects::registerAllDialects(ctx);
        ir::OwningOp module = bench.program.emit(ctx);
        transforms::runPipeline(module.get());
        model::WorkProfile work =
            model::analyzeProgramWork(module.get());
        double ai = work.fabricArithmeticIntensity();
        if (bench.name == "Jacobian")
            jacobianAi = ai;
        else
            minOtherAi = std::min(minOtherAi, ai);
    }
    EXPECT_LT(jacobianAi, minOtherAi);
}

TEST_F(PerfTrend, AllBenchmarksComputeBoundVsMemoryRoof)
{
    // Figure 7: every benchmark sits right of the WSE3 memory ridge
    // under the algorithmic traffic accounting.
    wse::ArchParams wse3 = wse::ArchParams::wse3();
    double ridge = wse3.peakFlops() / wse3.memoryBandwidth();
    // Note: the paper's z depths matter — use them.
    std::vector<fe::Benchmark> benches;
    benches.push_back(fe::makeJacobian(12, 12, 4));
    benches.push_back(fe::makeDiffusion(12, 12, 4));
    benches.push_back(fe::makeAcoustic(12, 12, 4));
    benches.push_back(fe::makeSeismic(12, 12, 4));
    benches.push_back(fe::makeUvkbe(12, 12));
    for (fe::Benchmark &bench : benches) {
        ir::Context ctx;
        dialects::registerAllDialects(ctx);
        ir::OwningOp module = bench.program.emit(ctx);
        transforms::runPipeline(module.get());
        model::WorkProfile work =
            model::analyzeProgramWork(module.get());
        EXPECT_GT(work.algoMemArithmeticIntensity(), ridge)
            << bench.name;
    }
}

TEST_F(PerfTrend, SelfTransmitAblationExplainsPartOfWse2Gap)
{
    // Removing only the WSE2 self-transmit requirement (keeping its
    // clock) must speed it up: the §6 mechanism in isolation.
    fe::Benchmark bench = fe::makeJacobian(9, 9, 10, 128);
    wse::ArchParams wse2 = wse::ArchParams::wse2();
    model::WaferPerf base =
        model::measureBenchmark(bench, wse2, fastOptions(9));
    wse::ArchParams patched = wse2;
    patched.switchRequiresSelfTransmit = false;
    patched.name = "WSE2-noself";
    fe::Benchmark bench2 = fe::makeJacobian(9, 9, 10, 128);
    model::WaferPerf noSelf =
        model::measureBenchmark(bench2, patched, fastOptions(9));
    EXPECT_LT(noSelf.cyclesPerStep, base.cyclesPerStep);
}

} // namespace
} // namespace wsc::test
