#include "test_helpers.h"

namespace wsc::test {
namespace {

using wse::ArchParams;
using wse::Cycles;
using wse::Direction;
using wse::Simulator;

struct Delivery
{
    int x;
    int y;
    int distance;
    Cycles at;
    std::vector<float> data;
    uint64_t tag;
};

class FabricTest : public ::testing::Test
{
  protected:
    std::vector<Delivery> deliveries;

    wse::DeliveryFn
    collect()
    {
        return [this](const wse::StreamDelivery &d) {
            deliveries.push_back({d.peX, d.peY, d.distance, d.completeAt,
                                  d.payload.data(), d.tag});
        };
    }
};

TEST_F(FabricTest, SingleHopDeliveryCarriesPayload)
{
    Simulator sim(ArchParams::wse3(), 3, 1);
    std::vector<float> payload = {1.0f, 2.0f, 3.0f};
    sendHostStream(sim, 0, 0, Direction::East, {1}, payload, 0,
                   collect());
    sim.runWithReport();
    ASSERT_EQ(deliveries.size(), 1u);
    EXPECT_EQ(deliveries[0].x, 1);
    EXPECT_EQ(deliveries[0].y, 0);
    EXPECT_EQ(deliveries[0].data, payload);
    // 3 wavelets: inject 3 cycles, 1 hop, landing.
    EXPECT_GE(deliveries[0].at, 4u);
}

TEST_F(FabricTest, MulticastDeliversAtEachListedDistance)
{
    Simulator sim(ArchParams::wse3(), 5, 1);
    sendHostStream(sim, 0, 0, Direction::East, {1, 2, 3},
                   {1.0f, 2.0f}, 0, collect());
    sim.runWithReport();
    ASSERT_EQ(deliveries.size(), 3u);
    EXPECT_EQ(deliveries[0].distance, 1);
    EXPECT_EQ(deliveries[2].distance, 3);
    EXPECT_EQ(deliveries[2].x, 3);
    // Farther hops land strictly later.
    EXPECT_LT(deliveries[0].at, deliveries[1].at);
    EXPECT_LT(deliveries[1].at, deliveries[2].at);
}

TEST_F(FabricTest, TagReachesEveryDeliveryOfItsStream)
{
    // One shared callback serves both streams; the tag tells them apart
    // at every hop (StarComm packs chunk and epoch into it).
    Simulator sim(ArchParams::wse3(), 5, 1);
    const uint64_t eastTag = (uint64_t{7} << 32) | 3;
    sendHostStream(sim, 0, 0, Direction::East, {1, 2}, {1.0f}, 0,
                   collect(), eastTag);
    sendHostStream(sim, 4, 0, Direction::West, {1}, {2.0f}, 0, collect(),
                   /*tag=*/42);
    sim.runWithReport();
    ASSERT_EQ(deliveries.size(), 3u);
    for (const Delivery &d : deliveries)
        EXPECT_EQ(d.tag, d.data[0] == 1.0f ? eastTag : 42u) << d.x;
}

TEST_F(FabricTest, SkippedDistancesForwardWithoutDelivering)
{
    Simulator sim(ArchParams::wse3(), 5, 1);
    sendHostStream(sim, 0, 0, Direction::East, {3}, {1.0f}, 0,
                   collect());
    sim.runWithReport();
    ASSERT_EQ(deliveries.size(), 1u);
    EXPECT_EQ(deliveries[0].x, 3);
}

TEST_F(FabricTest, StreamsTruncateAtTheGridEdge)
{
    Simulator sim(ArchParams::wse3(), 2, 1);
    sendHostStream(sim, 0, 0, Direction::East, {1, 2, 3}, {1.0f}, 0,
                   collect());
    sim.runWithReport();
    ASSERT_EQ(deliveries.size(), 1u); // only distance 1 exists
}

TEST_F(FabricTest, AllFourDirectionsWork)
{
    Simulator sim(ArchParams::wse3(), 3, 3);
    for (Direction d : wse::allDirections())
        sendHostStream(sim, 1, 1, d, {1}, {1.0f}, 0, collect());
    sim.runWithReport();
    ASSERT_EQ(deliveries.size(), 4u);
    std::set<std::pair<int, int>> targets;
    for (const Delivery &d : deliveries)
        targets.insert({d.x, d.y});
    EXPECT_TRUE(targets.count({2, 1})); // east
    EXPECT_TRUE(targets.count({0, 1})); // west
    EXPECT_TRUE(targets.count({1, 0})); // north
    EXPECT_TRUE(targets.count({1, 2})); // south
}

TEST_F(FabricTest, LinkContentionSerializesStreams)
{
    Simulator sim(ArchParams::wse3(), 3, 1);
    const Cycles m = 100;
    std::vector<float> payload(m, 1.0f);
    // Two streams from the same sender on the same link.
    sendHostStream(sim, 0, 0, Direction::East, {1}, payload, 0,
                   collect());
    sendHostStream(sim, 0, 0, Direction::East, {1}, payload, 0,
                   collect());
    sim.runWithReport();
    ASSERT_EQ(deliveries.size(), 2u);
    Cycles first = std::min(deliveries[0].at, deliveries[1].at);
    Cycles second = std::max(deliveries[0].at, deliveries[1].at);
    // The second stream cannot land less than m cycles after the first.
    EXPECT_GE(second, first + m);
}

TEST_F(FabricTest, OppositeDirectionsDoNotContend)
{
    Simulator sim(ArchParams::wse3(), 3, 1);
    const Cycles m = 100;
    std::vector<float> payload(m, 1.0f);
    // PE1 sends east and west simultaneously: different links.
    sendHostStream(sim, 1, 0, Direction::East, {1}, payload, 0,
                   collect());
    sendHostStream(sim, 1, 0, Direction::West, {1}, payload, 0,
                   collect());
    sim.runWithReport();
    ASSERT_EQ(deliveries.size(), 2u);
    // Both land around the same time; sender ramp serializes injection,
    // so allow the injection gap but not a full extra stream.
    Cycles diff = deliveries[0].at > deliveries[1].at
                      ? deliveries[0].at - deliveries[1].at
                      : deliveries[1].at - deliveries[0].at;
    EXPECT_LE(diff, m + 10);
}

TEST_F(FabricTest, SelfTransmitOccupiesSenderOnWse2)
{
    // Identical send on WSE2 vs WSE3: the WSE2 sender's work timeline
    // must additionally absorb the self-copy.
    const Cycles m = 200;
    std::vector<float> payload(m, 1.0f);

    Simulator sim3(ArchParams::wse3(), 2, 1);
    sendHostStream(sim3, 0, 0, Direction::East, {1}, payload, 0,
                   collect());
    sim3.runWithReport();
    Cycles free3 = sim3.pe(0, 0).workFree();

    Simulator sim2(ArchParams::wse2(), 2, 1);
    sendHostStream(sim2, 0, 0, Direction::East, {1}, payload, 0,
                   collect());
    sim2.runWithReport();
    Cycles free2 = sim2.pe(0, 0).workFree();

    EXPECT_EQ(free3, m);
    EXPECT_EQ(free2, 2 * m);
}

TEST_F(FabricTest, SwitchReconfigCostsMoreOnWse2)
{
    Simulator sim2(ArchParams::wse2(), 2, 1);
    Simulator sim3(ArchParams::wse3(), 2, 1);
    Cycles t2 = sim2.fabric().switchReconfig(0, 0, Direction::East, 0);
    Cycles t3 = sim3.fabric().switchReconfig(0, 0, Direction::East, 0);
    EXPECT_GT(t2, t3);
}

TEST_F(FabricTest, WaveletStatsCountHops)
{
    Simulator sim(ArchParams::wse3(), 4, 1);
    sendHostStream(sim, 0, 0, Direction::East, {1, 3},
                   {1.0f, 2.0f}, 0, collect());
    sim.runWithReport();
    // 2 wavelets over 3 hops.
    EXPECT_EQ(sim.stats().waveletsSent, 6u);
    EXPECT_EQ(sim.fabricHops(), 6u);
}

TEST_F(FabricTest, PayloadIsSnapshottedPerDelivery)
{
    Simulator sim(ArchParams::wse3(), 3, 1);
    std::vector<float> payload = {7.0f};
    sendHostStream(sim, 0, 0, Direction::East, {1, 2}, payload, 0,
                   collect());
    payload[0] = -1.0f; // mutation after the call must not be visible
    sim.runWithReport();
    ASSERT_EQ(deliveries.size(), 2u);
    EXPECT_EQ(deliveries[0].data[0], 7.0f);
    EXPECT_EQ(deliveries[1].data[0], 7.0f);
}

} // namespace
} // namespace wsc::test
