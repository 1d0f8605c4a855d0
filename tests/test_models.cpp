#include "test_helpers.h"

#include "model/cluster_model.h"
#include "model/flops.h"
#include "model/roofline.h"
#include "model/wafer_model.h"

namespace wsc::test {
namespace {

class ModelTest : public IrTest
{
};

TEST_F(ModelTest, WorkProfileCountsJacobianFlops)
{
    fe::Benchmark bench = fe::makeJacobian(8, 8, 4, 16);
    ir::OwningOp module = bench.program.emit(ctx);
    transforms::runPipeline(module.get());
    model::WorkProfile work = model::analyzeProgramWork(module.get());

    // Interior column is 14 points; receive reduce touches 4 sections.
    EXPECT_EQ(work.pointsPerPe, 14u);
    // One-shot reduce: 4*14 adds; plus local compute and the fill.
    EXPECT_GE(work.flops, 4u * 14u + 2u * 14u);
    // Fabric: 4 directions x 14 trimmed elements x 4 bytes.
    EXPECT_EQ(work.fabricBytes, 4u * 14u * 4u);
    EXPECT_GT(work.memBytes, 0u);
    EXPECT_GT(work.memArithmeticIntensity(), 0.0);
}

TEST_F(ModelTest, ChunkCountDoesNotChangeTotalWork)
{
    fe::Benchmark a = fe::makeJacobian(8, 8, 4, 32);
    ir::OwningOp m1 = a.program.emit(ctx);
    transforms::runPipeline(m1.get());
    fe::Benchmark b = fe::makeJacobian(8, 8, 4, 32);
    ir::OwningOp m2 = b.program.emit(ctx);
    transforms::PipelineOptions options;
    options.forceNumChunks = 2;
    transforms::runPipeline(m2.get(), options);

    model::WorkProfile w1 = model::analyzeProgramWork(m1.get());
    model::WorkProfile w2 = model::analyzeProgramWork(m2.get());
    EXPECT_EQ(w1.fabricBytes, w2.fabricBytes);
    EXPECT_EQ(w1.flops, w2.flops);
}

TEST_F(ModelTest, RooflineRidgeAndRegimes)
{
    model::Roof roof{"test", 1e15, 1e13};
    EXPECT_DOUBLE_EQ(roof.ridgeIntensity(), 100.0);
    EXPECT_TRUE(roof.isBandwidthBound(10.0));
    EXPECT_FALSE(roof.isBandwidthBound(200.0));
    EXPECT_DOUBLE_EQ(roof.attainable(10.0), 1e14);
    EXPECT_DOUBLE_EQ(roof.attainable(1000.0), 1e15);
}

TEST_F(ModelTest, ClusterModelsAreMemoryBoundAtStencilIntensity)
{
    model::ClusterSpec a100 = model::singleA100();
    model::Roof roof{"A100", a100.perDevicePeakFlops,
                     a100.perDeviceBandwidth};
    // Acoustic AI ~ 2 FLOP/byte: far below the A100 ridge (~8.6).
    EXPECT_TRUE(roof.isBandwidthBound(2.0));
}

TEST_F(ModelTest, ClusterThroughputScalesWithDevices)
{
    model::ClusterSpec one = model::singleA100();
    model::ClusterSpec many = model::tursaA100Cluster();
    double bytes = model::acousticBytesPerPointCacheMachine();
    EXPECT_GT(many.gptsPerSec(bytes), one.gptsPerSec(bytes));
    EXPECT_LT(many.gptsPerSec(bytes),
              128.0 * one.gptsPerSec(bytes)); // scaling losses
}

TEST_F(ModelTest, WaferMeasurementProducesSaneNumbers)
{
    fe::Benchmark bench = fe::makeJacobian(750, 994, 8, 64);
    model::MeasureOptions options;
    options.simGrid = 7;
    options.steps = 8;
    model::WaferPerf perf =
        model::measureBenchmark(bench, wse::ArchParams::wse3(), options);
    EXPECT_GT(perf.cyclesPerStep, 64.0); // at least the column length
    EXPECT_GT(perf.gptsPerSec, 0.0);
    EXPECT_GT(perf.flopsPerSec, 0.0);
    EXPECT_LT(perf.flopsPerSec, wse::ArchParams::wse3().peakFlops());
    EXPECT_LE(perf.peMemoryBytes, 48u * 1024u);
}

TEST_F(ModelTest, ExtrapolationMatchesLargerDirectSimulation)
{
    // The homogeneous-work argument (docs/architecture.md §3, "Timing
    // model"): per-step interior cycles measured on a small grid
    // predict a larger grid's.
    fe::Benchmark small = fe::makeJacobian(7, 7, 10, 48);
    model::MeasureOptions optSmall;
    optSmall.simGrid = 7;
    optSmall.steps = 10;
    model::WaferPerf onSmall = model::measureBenchmark(
        small, wse::ArchParams::wse3(), optSmall);

    fe::Benchmark large = fe::makeJacobian(13, 13, 10, 48);
    model::MeasureOptions optLarge;
    optLarge.simGrid = 13;
    optLarge.steps = 10;
    model::WaferPerf onLarge = model::measureBenchmark(
        large, wse::ArchParams::wse3(), optLarge);

    EXPECT_NEAR(onSmall.cyclesPerStep / onLarge.cyclesPerStep, 1.0,
                0.15);
}

TEST_F(ModelTest, PerStepCyclesScaleWithColumnLength)
{
    fe::Benchmark shallow = fe::makeJacobian(7, 7, 8, 32);
    fe::Benchmark deep = fe::makeJacobian(7, 7, 8, 128);
    model::MeasureOptions options;
    options.simGrid = 7;
    options.steps = 8;
    model::WaferPerf a = model::measureBenchmark(
        shallow, wse::ArchParams::wse3(), options);
    model::WaferPerf b = model::measureBenchmark(
        deep, wse::ArchParams::wse3(), options);
    EXPECT_GT(b.cyclesPerStep, 2.0 * a.cyclesPerStep);
    EXPECT_LT(b.cyclesPerStep, 8.0 * a.cyclesPerStep);
}

} // namespace
} // namespace wsc::test
