#include "test_helpers.h"

#include "baselines/handwritten_seismic.h"

namespace wsc::test {
namespace {

TEST(HandwrittenSeismic, MatchesTheReferenceExecutor)
{
    const int N = 10;
    const int64_t NZ = 24;
    const int64_t STEPS = 4;
    fe::Benchmark bench = fe::makeSeismic(N, N, STEPS, NZ);

    wse::Simulator sim(wse::ArchParams::wse2(), N, N);
    baselines::HandwrittenSeismicConfig config;
    config.nz = NZ;
    config.timesteps = STEPS;
    baselines::HandwrittenSeismic hw(sim, config);
    hw.setInit(bench.init);
    hw.configure();
    hw.launch();
    sim.runWithReport(4000000000ULL);

    model::ReferenceExecutor ref(bench.program, bench.init);
    ref.run(STEPS);
    double maxErr = 0;
    for (int x = 0; x < N; ++x)
        for (int y = 0; y < N; ++y) {
            std::vector<float> col = hw.readP(x, y);
            for (size_t z = 0; z < col.size(); ++z) {
                double r = ref.at(0, x, y, static_cast<int64_t>(z));
                maxErr = std::max(maxErr,
                                  std::abs(col[z] - r) /
                                      std::max(1.0, std::abs(r)));
            }
        }
    EXPECT_LT(maxErr, 1e-4);
}

TEST(HandwrittenSeismic, UsesTwoChunksAndFullColumns)
{
    wse::Simulator sim(wse::ArchParams::wse2(), 10, 10);
    baselines::HandwrittenSeismicConfig config;
    config.nz = 24;
    config.timesteps = 2;
    baselines::HandwrittenSeismic hw(sim, config);
    EXPECT_EQ(hw.comm().config().numChunks, 2);
    EXPECT_EQ(hw.comm().config().trimFirst, 0);
    EXPECT_EQ(hw.comm().config().trimLast, 0);
    EXPECT_EQ(hw.comm().commElems(), 24); // untrimmed
    EXPECT_TRUE(hw.comm().config().perSectionCallbacks);
    EXPECT_TRUE(hw.comm().config().coeffs.empty());
}

TEST(HandwrittenSeismic, StepMarksAdvanceMonotonically)
{
    wse::Simulator sim(wse::ArchParams::wse2(), 10, 10);
    baselines::HandwrittenSeismicConfig config;
    config.nz = 24;
    config.timesteps = 5;
    baselines::HandwrittenSeismic hw(sim, config);
    hw.setInit([](int, int, int, int) { return 1.0f; });
    hw.configure();
    hw.launch();
    sim.runWithReport(4000000000ULL);
    const std::vector<wse::Cycles> &marks = hw.stepMarks(5, 5);
    ASSERT_GE(marks.size(), 5u);
    for (size_t i = 1; i < marks.size(); ++i)
        EXPECT_GT(marks[i], marks[i - 1]);
}

} // namespace
} // namespace wsc::test
