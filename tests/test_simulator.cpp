#include <gtest/gtest.h>

#include <algorithm>
#include <random>

#include "support/error.h"
#include "wse/simulator.h"

namespace wsc::test {
namespace {

using wse::ArchParams;
using wse::Cycles;
using wse::Simulator;

TEST(ArchParamsTest, Wse3RooflineNumbersMatchThePaper)
{
    ArchParams p = ArchParams::wse3();
    // Figure 7: peak 1.52 PFLOP/s, memory 18.22 PB/s, fabric 3.30 PB/s.
    EXPECT_NEAR(p.peakFlops() / 1e15, 1.52, 0.25);
    EXPECT_NEAR(p.memoryBandwidth() / 1e15, 18.22, 3.0);
    EXPECT_NEAR(p.fabricBandwidth() / 1e15, 3.30, 0.9);
    EXPECT_EQ(p.peMemoryBytes, 48 * 1024);
}

TEST(ArchParamsTest, Wse2DiffersInSwitchingAndClock)
{
    ArchParams w2 = ArchParams::wse2();
    ArchParams w3 = ArchParams::wse3();
    EXPECT_TRUE(w2.switchRequiresSelfTransmit);
    EXPECT_FALSE(w3.switchRequiresSelfTransmit);
    EXPECT_GT(w2.switchReconfigCycles, w3.switchReconfigCycles);
    EXPECT_LT(w2.clockGHz, w3.clockGHz);
    // The large problem size fills the WSE2 grid exactly.
    EXPECT_EQ(w2.fabricWidth, 750);
    EXPECT_EQ(w2.fabricHeight, 994);
}

TEST(SimulatorTest, EventsRunInTimeOrder)
{
    Simulator sim(ArchParams::wse3(), 2, 2);
    std::vector<int> order;
    sim.schedule(30, [&] { order.push_back(3); });
    sim.schedule(10, [&] { order.push_back(1); });
    sim.schedule(20, [&] { order.push_back(2); });
    Cycles end = sim.runWithReport().finalCycle;
    EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
    EXPECT_EQ(end, 30u);
}

TEST(SimulatorTest, TiesRunInScheduleOrder)
{
    Simulator sim(ArchParams::wse3(), 1, 1);
    std::vector<int> order;
    sim.schedule(5, [&] { order.push_back(1); });
    sim.schedule(5, [&] { order.push_back(2); });
    sim.runWithReport();
    EXPECT_EQ(order, (std::vector<int>{1, 2}));
}

TEST(SimulatorTest, QueueRunsInCycleThenCreationOrder)
{
    // Every event below is host-owned and host-created, so its key is
    // (cycle, creation index): the queue must pop exactly that order,
    // including the events pushed into the cycle being drained.
    Simulator sim(ArchParams::wse3(), 1, 1);
    std::mt19937_64 rng(41);
    uint64_t created = 0;
    std::vector<std::pair<Cycles, uint64_t>> ran;
    auto leaf = [&](Cycles at) {
        uint64_t id = created++;
        sim.schedule(at, [&ran, &sim, at, id] {
            EXPECT_EQ(sim.now(), at);
            ran.emplace_back(at, id);
        });
    };
    for (int i = 0; i < 10000; ++i) {
        Cycles at = rng() % 4096;
        Cycles k = 1 + rng() % 64;
        uint64_t id = created++;
        sim.schedule(at, [&ran, &leaf, at, k, id] {
            ran.emplace_back(at, id);
            leaf(at);
            leaf(at + k);
        });
    }
    sim.runWithReport();
    ASSERT_EQ(ran.size(), 30000u);
    EXPECT_EQ(std::adjacent_find(ran.begin(), ran.end(),
                                 [](const auto &x, const auto &y) {
                                     return !(x < y);
                                 }),
              ran.end());
}

TEST(SimulatorTest, SchedulingIntoThePastPanics)
{
    Simulator sim(ArchParams::wse3(), 1, 1);
    sim.schedule(10, [&] {
        EXPECT_THROW(sim.schedule(5, [] {}), PanicError);
    });
    sim.runWithReport();
}

TEST(SimulatorTest, EventBudgetCatchesLivelock)
{
    Simulator sim(ArchParams::wse3(), 1, 1);
    std::function<void()> respawn = [&] {
        sim.schedule(sim.now() + 1, respawn);
    };
    sim.schedule(0, respawn);
    const wse::SimReport rep = sim.runWithReport(/*maxEvents=*/100);
    EXPECT_EQ(rep.outcome, wse::SimOutcome::EventBudgetExceeded);
    EXPECT_EQ(rep.diagnosis.eventsProcessed, 100u);
}

TEST(SimulatorTest, GridMustFitTheFabric)
{
    EXPECT_THROW(Simulator(ArchParams::wse2(), 751, 1), FatalError);
    EXPECT_NO_THROW(Simulator(ArchParams::wse2(), 4, 4));
}

TEST(PeTest, BufferAllocationTracksMemory)
{
    Simulator sim(ArchParams::wse3(), 1, 1);
    wse::Pe &pe = sim.pe(0, 0);
    pe.allocBuffer("a", 1000);
    EXPECT_EQ(pe.memoryBytesUsed(), 4000u);
    pe.allocBuffer("b", 500);
    EXPECT_EQ(pe.memoryBytesUsed(), 6000u);
}

TEST(PeTest, The48kbLimitIsEnforced)
{
    Simulator sim(ArchParams::wse3(), 1, 1);
    wse::Pe &pe = sim.pe(0, 0);
    pe.allocBuffer("big", 11000); // 44 kB
    EXPECT_THROW(pe.allocBuffer("more", 2000), FatalError);
}

TEST(PeTest, DuplicateBufferNamesAreRejected)
{
    Simulator sim(ArchParams::wse3(), 1, 1);
    wse::Pe &pe = sim.pe(0, 0);
    pe.allocBuffer("a", 10);
    EXPECT_THROW(pe.allocBuffer("a", 10), PanicError);
}

TEST(PeTest, TasksDispatchWithActivationOverhead)
{
    ArchParams params = ArchParams::wse3();
    Simulator sim(params, 1, 1);
    wse::Pe &pe = sim.pe(0, 0);
    Cycles started = 0;
    pe.registerTask("t",
                    [&](wse::TaskContext &ctx) {
                        started = ctx.startCycle();
                        ctx.consume(100);
                    });
    pe.activate("t", 50);
    sim.runWithReport();
    EXPECT_EQ(started, 50 + params.taskActivateCycles);
    EXPECT_EQ(pe.workFree(), started + 100);
    EXPECT_EQ(pe.taskActivations(), 1u);
}

TEST(PeTest, TasksSerializeOnTheWorkTimeline)
{
    ArchParams params = ArchParams::wse3();
    Simulator sim(params, 1, 1);
    wse::Pe &pe = sim.pe(0, 0);
    std::vector<Cycles> starts;
    wse::TaskFn fn = [&](wse::TaskContext &ctx) {
        starts.push_back(ctx.startCycle());
        ctx.consume(100);
    };
    pe.registerTask("a", fn);
    pe.registerTask("b", fn);
    pe.activate("a", 0);
    pe.activate("b", 0);
    sim.runWithReport();
    ASSERT_EQ(starts.size(), 2u);
    // The second task waits for the first's work plus its own dispatch.
    EXPECT_GE(starts[1], starts[0] + 100);
}

TEST(PeTest, FifoOrderIsPreserved)
{
    Simulator sim(ArchParams::wse3(), 1, 1);
    wse::Pe &pe = sim.pe(0, 0);
    std::vector<std::string> order;
    pe.registerTask("x",
                    [&](wse::TaskContext &) { order.push_back("x"); });
    pe.registerTask("y",
                    [&](wse::TaskContext &) { order.push_back("y"); });
    pe.activate("x", 100);
    pe.activate("y", 100);
    sim.runWithReport();
    EXPECT_EQ(order, (std::vector<std::string>{"x", "y"}));
}

TEST(PeTest, ActivatingUnknownTaskPanics)
{
    Simulator sim(ArchParams::wse3(), 1, 1);
    EXPECT_THROW(sim.pe(0, 0).activate("ghost", 0), PanicError);
}

TEST(PeTest, DsdOpChargesSetupAndPerElementCycles)
{
    ArchParams params = ArchParams::wse3();
    Simulator sim(params, 1, 1);
    wse::Pe &pe = sim.pe(0, 0);
    Cycles consumed = 0;
    pe.registerTask("t",
                    [&](wse::TaskContext &ctx) {
                        ctx.dsdOp(450, 2);
                        consumed = ctx.consumed();
                    });
    pe.activate("t", 0);
    sim.runWithReport();
    EXPECT_EQ(consumed, params.dsdSetupCycles + 450);
    EXPECT_EQ(sim.stats().flops, 900u);
    EXPECT_EQ(sim.stats().memBytes, 450u * 12);
}

} // namespace
} // namespace wsc::test
