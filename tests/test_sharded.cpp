/**
 * @file
 * Coverage of the sharded parallel simulator.
 *
 * The determinism contract (docs/architecture.md §4): a threads=N run
 * (N column strips, wherever their boundaries fall) must be
 * cycle-identical and bit-identical in SimStats, step marks and field
 * contents to the threads=1 run. These tests pin that contract on all
 * five paper workloads across even and uneven strip splits and more
 * threads than columns, check how threads map to strips, exercise
 * cross-shard boundary delivery ordering directly at the fabric level,
 * check the window scheduler through its telemetry (which may vary;
 * results may not), and cover the allocation-recycling rings
 * (activation frames, payload slots, cross-shard outbox lanes).
 *
 * The ShardedDeterminism suite is also wired to `ctest -L sharded`;
 * the large-grid runs live in ShardedScale (same label, own budget).
 */

#include "test_helpers.h"

#include "wse/payload.h"

namespace wsc::test {
namespace {

/** Everything observable about one simulated run. */
struct RunResult
{
    wse::Cycles finalCycle = 0;
    wse::SimStats stats;
    uint64_t fabricHops = 0;
    uint64_t unblocks = 0;
    /** Concatenated per-PE step marks, row-major. */
    std::vector<wse::Cycles> marks;
    /** Concatenated bytes of the first field's columns, row-major. */
    std::vector<float> fields;

    bool
    operator==(const RunResult &o) const
    {
        return finalCycle == o.finalCycle &&
               stats.eventsProcessed == o.stats.eventsProcessed &&
               stats.waveletsSent == o.stats.waveletsSent &&
               stats.taskActivations == o.stats.taskActivations &&
               stats.dsdOps == o.stats.dsdOps &&
               stats.flops == o.stats.flops &&
               stats.memBytes == o.stats.memBytes &&
               fabricHops == o.fabricHops && unblocks == o.unblocks &&
               marks == o.marks && fields == o.fields;
    }
};

/** Compile once, run at the given thread count, capture everything.
 *  Also returns the run's scheduler telemetry through `telemetry`
 *  (execution shape — never part of the equality contract). */
RunResult
runWorkload(ir::Operation *module, fe::Benchmark &bench, int nx, int ny,
            int threads, wse::ShardingTelemetry *telemetry = nullptr)
{
    wse::Simulator sim(wse::ArchParams::wse3(), nx, ny,
                       wse::SimOptions{threads});
    interp::CslProgramInstance instance(sim, module);
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

    RunResult r;
    r.finalCycle = sim.runWithReport(4000000000ULL).finalCycle;
    r.stats = sim.stats();
    r.fabricHops = sim.fabricHops();
    r.unblocks = instance.unblockCount();
    const std::string &field = bench.program.fieldName(0);
    for (int x = 0; x < nx; ++x)
        for (int y = 0; y < ny; ++y) {
            const auto &m = instance.stepMarks(x, y);
            r.marks.insert(r.marks.end(), m.begin(), m.end());
            std::vector<float> col = instance.readFieldColumn(field, x, y);
            r.fields.insert(r.fields.end(), col.begin(), col.end());
        }
    if (telemetry)
        *telemetry = sim.telemetry();
    return r;
}

/** Expect a == b with per-member messages (thread count in `what`). */
void
expectRunsEqual(const RunResult &sequential, const RunResult &other,
                const std::string &what)
{
    EXPECT_EQ(sequential.finalCycle, other.finalCycle) << what;
    EXPECT_EQ(sequential.stats.eventsProcessed,
              other.stats.eventsProcessed)
        << what;
    EXPECT_EQ(sequential.stats.waveletsSent, other.stats.waveletsSent)
        << what;
    EXPECT_EQ(sequential.stats.taskActivations,
              other.stats.taskActivations)
        << what;
    EXPECT_EQ(sequential.stats.dsdOps, other.stats.dsdOps) << what;
    EXPECT_EQ(sequential.stats.flops, other.stats.flops) << what;
    EXPECT_EQ(sequential.stats.memBytes, other.stats.memBytes) << what;
    EXPECT_EQ(sequential.fabricHops, other.fabricHops) << what;
    EXPECT_EQ(sequential.unblocks, other.unblocks) << what;
    EXPECT_EQ(sequential.marks, other.marks) << what;
    EXPECT_EQ(sequential.fields, other.fields) << what;
    EXPECT_TRUE(sequential == other) << what;
}

/**
 * threads=1 vs threads in {2, 3, 4, width + 1} must all agree
 * bit-for-bit: even and uneven strip splits (3 strips of 7 or 8
 * columns), and more threads than columns (one strip per column).
 */
void
expectShardedEquivalence(fe::Benchmark bench, int nx, int ny)
{
    ir::Context ctx;
    dialects::registerAllDialects(ctx);
    ir::OwningOp module = bench.program.emit(ctx);
    transforms::runPipeline(module.get());

    RunResult sequential = runWorkload(module.get(), bench, nx, ny, 1);
    for (int threads : {2, 3, 4, nx + 1})
        expectRunsEqual(sequential,
                        runWorkload(module.get(), bench, nx, ny, threads),
                        "threads=" + std::to_string(threads));
}

TEST(ShardedDeterminism, Jacobian)
{
    expectShardedEquivalence(fe::makeJacobian(7, 7, 4, 64), 7, 7);
}

TEST(ShardedDeterminism, Diffusion)
{
    expectShardedEquivalence(fe::makeDiffusion(7, 7, 4, 16), 7, 7);
}

TEST(ShardedDeterminism, Acoustic)
{
    expectShardedEquivalence(fe::makeAcoustic(8, 8, 3, 32), 8, 8);
}

TEST(ShardedDeterminism, Seismic)
{
    expectShardedEquivalence(fe::makeSeismic(8, 8, 3, 20), 8, 8);
}

TEST(ShardedDeterminism, Uvkbe)
{
    expectShardedEquivalence(fe::makeUvkbe(8, 8, 24), 8, 8);
}

TEST(ShardedDeterminism, ThreadCountsBeyondWidthClamp)
{
    // threads > width clamps to one column strip per column: threads=16
    // on a 5x5 grid runs 5 strips and still matches bit-for-bit.
    fe::Benchmark bench = fe::makeDiffusion(5, 5, 2, 16);
    ir::Context ctx;
    dialects::registerAllDialects(ctx);
    ir::OwningOp module = bench.program.emit(ctx);
    transforms::runPipeline(module.get());
    RunResult a = runWorkload(module.get(), bench, 5, 5, 1);
    RunResult b = runWorkload(module.get(), bench, 5, 5, 16);
    EXPECT_TRUE(a == b);
}

//===----------------------------------------------------------------------===
// Threads -> column strips
//===----------------------------------------------------------------------===

TEST(ShardedDeterminism, StripsFollowThreads)
{
    struct Case
    {
        int width, height, threads, strips;
    };
    const Case cases[] = {
        {8, 8, 4, 4},  // even split
        {3, 8, 4, 3},  // more threads than columns
        {7, 7, 3, 3},  // uneven split: 3 + 2 + 2 columns
        {6, 1, 6, 6},  // one column per strip
        {1, 6, 4, 1},  // a width-1 grid is one strip
        {5, 5, 16, 5}, // threads clamp to the width
        {5, 5, 0, 1},  // non-positive thread counts run sequentially
    };
    for (const Case &c : cases) {
        SCOPED_TRACE(testing::Message() << c.width << "x" << c.height
                                        << " threads=" << c.threads);
        wse::Simulator sim(wse::ArchParams::wse3(), c.width, c.height,
                           wse::SimOptions{c.threads});
        ASSERT_EQ(sim.shardCount(), c.strips);
        EXPECT_EQ(sim.options().threads, c.strips);

        // PE (x, y) lands in strip x * shards / width, and each strip is
        // one contiguous range of dense PE ids starting where the
        // previous strip ends.
        uint32_t next = 0;
        for (int s = 0; s < c.strips; ++s) {
            for (int x = 0; x < c.width; ++x)
                for (int y = 0; y < c.height; ++y) {
                    if (x * c.strips / c.width != s)
                        continue;
                    EXPECT_EQ(&sim.shardOfPe(sim.peIndex(x, y)),
                              &sim.pe(x, y).shard());
                    EXPECT_EQ(sim.pe(x, y).shard().index(), s);
                    EXPECT_EQ(sim.peIndex(x, y), next) << x << "," << y;
                    next++;
                }
        }
        EXPECT_EQ(next, static_cast<uint32_t>(c.width * c.height));
    }
}

TEST(ShardedDeterminism, TilingStressMatrix)
{
    // The tsan-gated stress matrix: one workload re-run at every thread
    // count in {2, 3, 4, 9} on 8 columns (even, uneven, and more threads
    // than columns) must match threads=1 bit-for-bit.
    fe::Benchmark bench = fe::makeDiffusion(8, 8, 4, 16);
    ir::Context ctx;
    dialects::registerAllDialects(ctx);
    ir::OwningOp module = bench.program.emit(ctx);
    transforms::runPipeline(module.get());
    RunResult sequential = runWorkload(module.get(), bench, 8, 8, 1);
    for (int threads : {2, 3, 4, 9}) {
        wse::ShardingTelemetry telemetry;
        RunResult run =
            runWorkload(module.get(), bench, 8, 8, threads, &telemetry);
        expectRunsEqual(sequential, run,
                        "stress threads=" + std::to_string(threads));
        EXPECT_GT(telemetry.windows, 0u);
        EXPECT_GT(telemetry.shardWindowsRun, 0u);
    }
}

TEST(ShardedDeterminism, OutboxSteadyStateAllocationFree)
{
    // Satellite contract: outbox lanes are cleared (capacity kept)
    // between windows, so lane growth happens only while reaching the
    // high-water mark — a long run must see a realloc count bounded by
    // the working set, orders of magnitude below the window count.
    fe::Benchmark bench = fe::makeDiffusion(8, 8, 8, 16);
    ir::Context ctx;
    dialects::registerAllDialects(ctx);
    ir::OwningOp module = bench.program.emit(ctx);
    transforms::runPipeline(module.get());

    // One-hop windows mean one drain per hop of simulated time.
    wse::ShardingTelemetry telemetry;
    runWorkload(module.get(), bench, 8, 8, 4, &telemetry);
    EXPECT_GT(telemetry.windows, 100u);
    // Growth to a high-water mark H costs O(log H) reallocations per
    // lane; 6 neighbour lanes (4 strips) x a generous log bound still
    // sits far below one realloc per window.
    EXPECT_LT(telemetry.outboxReallocs, 150u);
    EXPECT_LT(telemetry.outboxReallocs, telemetry.windows / 4)
        << "windows=" << telemetry.windows
        << " reallocs=" << telemetry.outboxReallocs;
}

//===----------------------------------------------------------------------===
// Large-grid scenarios (ShardedScale: same `sharded` gate, own budget)
//===----------------------------------------------------------------------===

TEST(ShardedScale, Acoustic96Grid)
{
    // The paper-scale trajectory scenario: a 96x96 acoustic grid (the
    // README scenario table's large-grid run; examples/
    // large_grid_acoustic.cpp drives the same shape standalone) must
    // stay bit-identical across threads=1 and 2, 3, 4 and 7 column
    // strips (96 / 7 is an uneven split).
    fe::Benchmark bench = fe::makeAcoustic(96, 96, 2, 8);
    ir::Context ctx;
    dialects::registerAllDialects(ctx);
    ir::OwningOp module = bench.program.emit(ctx);
    transforms::runPipeline(module.get());

    RunResult sequential =
        runWorkload(module.get(), bench, 96, 96, 1);
    for (int threads : {2, 3, 4, 7}) {
        wse::ShardingTelemetry telemetry;
        RunResult run =
            runWorkload(module.get(), bench, 96, 96, threads, &telemetry);
        expectRunsEqual(sequential, run,
                        "96x96 threads=" + std::to_string(threads));
        EXPECT_GT(telemetry.windows, 0u);
    }
}

TEST(ShardedScale, Stress256Smoke)
{
    // Smoke-scale 256x256 stress config: one step, shallow columns —
    // enough to push 64k PEs through the cross-shard machinery on four
    // strips without blowing the CI budget.
    fe::Benchmark bench = fe::makeAcoustic(256, 256, 1, 8);
    ir::Context ctx;
    dialects::registerAllDialects(ctx);
    ir::OwningOp module = bench.program.emit(ctx);
    transforms::runPipeline(module.get());

    RunResult sequential =
        runWorkload(module.get(), bench, 256, 256, 1);
    wse::ShardingTelemetry telemetry;
    RunResult sharded =
        runWorkload(module.get(), bench, 256, 256, 4, &telemetry);
    expectRunsEqual(sequential, sharded, "256x256 threads=4");
    EXPECT_GT(telemetry.windows, 0u);
    EXPECT_GT(telemetry.shardWindowsRun, telemetry.windows)
        << "a 4-strip window should run several shard-windows";
}

//===----------------------------------------------------------------------===
// Cross-shard boundary deliveries at the fabric level
//===----------------------------------------------------------------------===

struct Recorded
{
    int x;
    int distance;
    wse::Cycles at;
    float head;

    bool operator==(const Recorded &) const = default;
};

/**
 * Drives two overlapping eastward multicast streams across every shard
 * boundary of a 6x1 strip and records the deliveries. With one column
 * per shard every hop is a cross-shard mailbox handoff.
 */
std::vector<Recorded>
runBoundaryStreams(int threads)
{
    wse::Simulator sim(wse::ArchParams::wse3(), 6, 1,
                       wse::SimOptions{threads});
    // Recording is only touched by events owned by the receiving PEs;
    // collecting per-PE then flattening keeps the observation race-free.
    std::vector<std::vector<Recorded>> perPe(6);
    auto deliver = std::make_shared<const wse::DeliveryFn>(
        [&perPe](const wse::StreamDelivery &d) {
            perPe[static_cast<size_t>(d.peX)].push_back(
                {d.peX, d.distance, d.completeAt, d.payload.data()[0]});
        });
    std::vector<float> first(40, 1.0f);
    std::vector<float> second(40, 2.0f);
    std::vector<float> third(40, 3.0f);
    // Same link chain, same injection cycle: contention must resolve
    // identically at every thread count.
    sendHostStream(sim, 0, 0, wse::Direction::East, {1, 3, 5}, first,
                   0, *deliver);
    sendHostStream(sim, 0, 0, wse::Direction::East, {2, 4}, second, 0,
                   *deliver);
    sendHostStream(sim, 1, 0, wse::Direction::East, {2, 4}, third, 10,
                   *deliver);
    sim.runWithReport();
    std::vector<Recorded> flat;
    for (const auto &pe : perPe)
        flat.insert(flat.end(), pe.begin(), pe.end());
    return flat;
}

TEST(ShardedDeterminism, BoundaryDeliveryOrdering)
{
    std::vector<Recorded> sequential = runBoundaryStreams(1);
    std::vector<Recorded> sharded = runBoundaryStreams(6);
    // Stream 1 delivers at 3 hops, streams 2 and 3 at 2 each.
    ASSERT_EQ(sequential.size(), 7u);
    EXPECT_EQ(sequential, sharded);

    // Per stream, farther hops land strictly later.
    for (size_t i = 0; i < sequential.size(); ++i)
        for (size_t j = 0; j < sequential.size(); ++j)
            if (sequential[i].head == sequential[j].head &&
                sequential[i].distance < sequential[j].distance)
                EXPECT_LT(sequential[i].at, sequential[j].at);
}

TEST(ShardedDeterminism, HostSendsConvergingAcrossShardsTieBreak)
{
    // Two host-initiated streams from senders living in different
    // shards converge on the middle PE at the same cycle with identical
    // (cycle, owner, creator=host) key prefixes: the tie must break by
    // the single host sequence counter, not by per-shard counters
    // (regression: per-shard host sequences made this order depend on
    // the thread count).
    std::vector<std::pair<float, wse::Cycles>> trace[2];
    for (int i = 0; i < 2; ++i) {
        wse::Simulator sim(wse::ArchParams::wse3(), 3, 1,
                           wse::SimOptions{i == 0 ? 1 : 3});
        auto record = [&trace, i](const wse::StreamDelivery &d) {
            // All deliveries land on PE (1,0): single-owner recording.
            trace[i].push_back({d.payload.data()[0], 0});
        };
        std::vector<float> fromEast(50, 2.0f);
        std::vector<float> fromWest(50, 1.0f);
        sendHostStream(sim, 2, 0, wse::Direction::West, {1},
                       fromEast, 0, record);
        sendHostStream(sim, 0, 0, wse::Direction::East, {1},
                       fromWest, 0, record);
        trace[i].back().second = sim.runWithReport().finalCycle;
    }
    ASSERT_EQ(trace[0].size(), 2u);
    EXPECT_EQ(trace[0], trace[1]);
}

TEST(ShardedDeterminism, ContendedLinkSerializesAcrossShards)
{
    // Two streams from the same sender crossing a shard boundary: the
    // second cannot land earlier than m cycles after the first.
    for (int threads : {1, 3}) {
        wse::Simulator sim(wse::ArchParams::wse3(), 3, 1,
                           wse::SimOptions{threads});
        const wse::Cycles m = 100;
        std::vector<wse::Cycles> landed;
        auto deliver = [&landed](const wse::StreamDelivery &d) {
            landed.push_back(d.completeAt);
        };
        std::vector<float> payload(m, 1.0f);
        sendHostStream(sim, 0, 0, wse::Direction::East, {2}, payload,
                       0, deliver);
        sendHostStream(sim, 0, 0, wse::Direction::East, {2}, payload,
                       0, deliver);
        sim.runWithReport();
        ASSERT_EQ(landed.size(), 2u);
        EXPECT_GE(std::max(landed[0], landed[1]),
                  std::min(landed[0], landed[1]) + m);
    }
}

//===----------------------------------------------------------------------===
// Recycling rings: activation frames and payload slots
//===----------------------------------------------------------------------===

TEST(ShardedDeterminism, FrameArenaRecyclesAcrossNestedActivations)
{
    // A stepped workload dispatches hundreds of compiled activations per
    // PE, each of which may nest further frames through csl.call. Each
    // shard's frame stack must serve virtually all of them from recycled
    // storage: fresh allocations are bounded by the nesting depth per
    // shard, not by the activation or PE count.
    fe::Benchmark bench = fe::makeJacobian(5, 5, 20, 32);
    ir::Context ctx;
    dialects::registerAllDialects(ctx);
    ir::OwningOp module = bench.program.emit(ctx);
    transforms::runPipeline(module.get());

    for (int threads : {1, 4}) {
        SCOPED_TRACE(threads);
        wse::Simulator sim(wse::ArchParams::wse3(), 5, 5,
                           wse::SimOptions{threads});
        interp::CslProgramInstance instance(sim, module.get());
        auto init = bench.init;
        instance.setFieldInit(bench.program.fieldName(0),
                              [init](int x, int y, int z) {
                                  return init(0, x, y, z);
                              });
        instance.configure();
        instance.launch();
        sim.runWithReport(4000000000ULL);

        auto [acquires, fresh] = instance.frameStats();
        EXPECT_GT(acquires, sim.stats().taskActivations);
        EXPECT_GT(acquires, 8 * fresh)
            << "activation frames are not being recycled (acquires="
            << acquires << ", fresh=" << fresh << ")";
        EXPECT_LE(fresh, 8u * static_cast<uint64_t>(sim.shardCount()));
    }
}

TEST(ShardedDeterminism, PayloadRingRecyclesSlots)
{
    // A chunked exchange workload acquires one payload slot per chunk
    // per sender. The ring's high-water mark tracks the genuine
    // in-flight working set (boundary PEs run ahead of interior PEs,
    // so early-arrival stashes legitimately pin slots — the hardware
    // equivalent of wavelets queued at the input ramps); recycling must
    // still serve most acquires, and every slot must come back once
    // the run drains.
    fe::Benchmark bench = fe::makeDiffusion(5, 5, 20, 16);
    ir::Context ctx;
    dialects::registerAllDialects(ctx);
    ir::OwningOp module = bench.program.emit(ctx);
    transforms::runPipeline(module.get());

    wse::Simulator sim(wse::ArchParams::wse3(), 5, 5);
    interp::CslProgramInstance instance(sim, module.get());
    auto init = bench.init;
    instance.setFieldInit(bench.program.fieldName(0),
                          [init](int x, int y, int z) {
                              return init(0, x, y, z);
                          });
    instance.configure();
    instance.launch();
    sim.runWithReport(4000000000ULL);

    wse::PayloadPool &pool = sim.pe(0, 0).payloadPool();
    EXPECT_GT(pool.acquires(), 0u);
    EXPECT_GT(pool.acquires(), 2 * pool.created())
        << "payload slots are not being recycled (acquires="
        << pool.acquires() << ", created=" << pool.created() << ")";
    EXPECT_EQ(pool.liveSlots(), 0u)
        << "payload slots leaked past the end of the run";
}

TEST(ShardedDeterminism, PayloadRefCountingReturnsSlots)
{
    wse::Simulator sim(wse::ArchParams::wse3(), 1, 1);
    wse::PayloadPool &pool = sim.pe(0, 0).payloadPool();
    {
        wse::PayloadRef a = pool.acquire();
        a.mutableData() = {1.0f, 2.0f};
        wse::PayloadRef b = a; // second reference pins the slot
        a.reset();
        EXPECT_TRUE(b.valid());
        EXPECT_EQ(b.data()[1], 2.0f);
    }
    // Both references dropped: the next acquire reuses the slot.
    wse::PayloadRef c = pool.acquire();
    EXPECT_EQ(pool.slotCount(), 1u);
    EXPECT_TRUE(c.data().empty()); // recycled slots come back cleared
}

TEST(ShardedDeterminism, SameCycleEventsOrderByOwnerPe)
{
    // The deterministic key orders same-cycle events of different PEs by
    // the owner's dense grid id, independent of activation order.
    wse::Simulator sim(wse::ArchParams::wse3(), 2, 1);
    std::vector<int> order;
    sim.pe(0, 0).registerTask("t",
                              [&](wse::TaskContext &) {
                                  order.push_back(0);
                              });
    sim.pe(1, 0).registerTask("t",
                              [&](wse::TaskContext &) {
                                  order.push_back(1);
                              });
    sim.pe(1, 0).activate("t", 100); // activated first, runs second
    sim.pe(0, 0).activate("t", 100);
    sim.runWithReport();
    EXPECT_EQ(order, (std::vector<int>{0, 1}));
}

} // namespace
} // namespace wsc::test
