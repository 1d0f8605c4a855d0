/**
 * @file
 * PR 6 coverage: deterministic fault injection, deadlock diagnosis and
 * graceful degradation (wse/fault.h; `ctest -L faults`).
 *
 * The contract: a fault plan is part of the simulated world, so a
 * faulty threads=4 run must match the faulty threads=1 run bit-exactly
 * — same SimReport (fault counters included), same field bytes when the run
 * completes. Injected deadlocks must end with a SimDiagnosis naming the
 * blocked PEs and pending tasks instead of hanging or dying on a
 * one-line fatal, and exchange timeouts must let the rest of the wafer
 * finish around a dead neighbour.
 */

#include "test_helpers.h"

#include <map>
#include <tuple>

#include "comms/star_comm.h"
#include "wse/fault.h"
#include "wse/payload.h"

namespace wsc::test {
namespace {

//===----------------------------------------------------------------------===
// Thread-count determinism under fault plans
//===----------------------------------------------------------------------===

/** Everything observable about one faulted run. */
struct FaultRun
{
    wse::SimOutcome outcome = wse::SimOutcome::Completed;
    wse::Cycles finalCycle = 0;
    wse::SimStats stats;
    std::vector<uint32_t> haltedPes;
    std::vector<uint32_t> degradedPes;
    /** (x, y, what, since, peHalted) rows of the diagnosis. */
    std::vector<std::tuple<int, int, std::string, wse::Cycles, bool>>
        blocked;
    uint64_t unblocks = 0;
    /** Concatenated bytes of the first field's columns, row-major. */
    std::vector<float> fields;

    bool operator==(const FaultRun &) const = default;
};

/** Compile once, run faulted at the given thread count, capture all. */
FaultRun
runFaulted(ir::Operation *module, fe::Benchmark &bench, int nx, int ny,
           int threads, const wse::FaultPlan &plan,
           wse::Cycles timeoutCycles)
{
    wse::SimOptions options{threads};
    options.faults = plan;
    options.exchangeTimeoutCycles = timeoutCycles;
    wse::Simulator sim(wse::ArchParams::wse3(), nx, ny,
                       std::move(options));
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

    const wse::SimReport &rep = sim.runWithReport(4000000000ULL);
    FaultRun r;
    r.outcome = rep.outcome;
    r.finalCycle = rep.finalCycle;
    r.stats = rep.stats;
    r.haltedPes = rep.haltedPes;
    r.degradedPes = rep.degradedPes;
    for (const wse::BlockedPeInfo &b : rep.diagnosis.blockedPes)
        r.blocked.emplace_back(b.x, b.y, b.what, b.since, b.peHalted);
    r.unblocks = instance.unblockCount();
    const std::string &field = bench.program.fieldName(0);
    for (int x = 0; x < nx; ++x)
        for (int y = 0; y < ny; ++y) {
            std::vector<float> col = instance.readFieldColumn(field, x, y);
            r.fields.insert(r.fields.end(), col.begin(), col.end());
        }
    return r;
}

/** threads=1 vs each of `threadCounts` must agree bit-for-bit under
 *  the plan; returns the sequential run for scenario-specific
 *  assertions. */
FaultRun
expectFaultEquivalence(fe::Benchmark bench, int nx, int ny,
                       const wse::FaultPlan &plan,
                       wse::Cycles timeoutCycles,
                       std::initializer_list<int> threadCounts = {4})
{
    ir::Context ctx;
    dialects::registerAllDialects(ctx);
    ir::OwningOp module = bench.program.emit(ctx);
    transforms::runPipeline(module.get());

    FaultRun sequential =
        runFaulted(module.get(), bench, nx, ny, 1, plan, timeoutCycles);
    for (int threads : threadCounts) {
        SCOPED_TRACE(testing::Message() << "threads=" << threads);
        FaultRun sharded = runFaulted(module.get(), bench, nx, ny, threads,
                                      plan, timeoutCycles);
        EXPECT_EQ(static_cast<int>(sequential.outcome),
                  static_cast<int>(sharded.outcome))
            << wse::simOutcomeName(sequential.outcome) << " vs "
            << wse::simOutcomeName(sharded.outcome);
        EXPECT_EQ(sequential.finalCycle, sharded.finalCycle);
        EXPECT_TRUE(sequential.stats == sharded.stats);
        EXPECT_EQ(sequential.haltedPes, sharded.haltedPes);
        EXPECT_EQ(sequential.degradedPes, sharded.degradedPes);
        EXPECT_EQ(sequential.blocked, sharded.blocked);
        EXPECT_EQ(sequential.unblocks, sharded.unblocks);
        EXPECT_EQ(sequential.fields, sharded.fields);
        EXPECT_TRUE(sequential == sharded);
    }
    return sequential;
}

TEST(FaultDeterminism, PeHaltDiffusion)
{
    wse::FaultPlan plan;
    plan.haltPe(3, 3, 0);
    FaultRun r = expectFaultEquivalence(fe::makeDiffusion(7, 7, 4, 16), 7,
                                        7, plan, /*timeout=*/4000);
    // The wafer finishes around the dead PE: its neighbours degrade
    // their exchanges and every live PE returns control to the host.
    EXPECT_EQ(r.outcome, wse::SimOutcome::Degraded);
    EXPECT_EQ(r.haltedPes, (std::vector<uint32_t>{3 * 7 + 3}));
    EXPECT_GT(r.stats.exchangeTimeouts, 0u);
    EXPECT_GT(r.stats.exchangesDegraded, 0u);
    EXPECT_EQ(r.unblocks, 48u); // all but the halted PE
}

TEST(FaultDeterminism, PeHaltJacobian)
{
    wse::FaultPlan plan;
    plan.haltPe(2, 4, 1);
    FaultRun r = expectFaultEquivalence(fe::makeJacobian(7, 7, 4, 64), 7,
                                        7, plan, /*timeout=*/6000);
    EXPECT_EQ(r.outcome, wse::SimOutcome::Degraded);
    EXPECT_EQ(r.haltedPes.size(), 1u);
    EXPECT_EQ(r.unblocks, 48u);
}

TEST(FaultDeterminism, LinkDropDiffusion)
{
    wse::FaultPlan plan;
    plan.dropLink(2, 3, wse::Direction::East, 0);
    FaultRun r = expectFaultEquivalence(fe::makeDiffusion(7, 7, 4, 16), 7,
                                        7, plan, /*timeout=*/4000);
    EXPECT_EQ(r.outcome, wse::SimOutcome::Degraded);
    EXPECT_TRUE(r.haltedPes.empty());
    EXPECT_GT(r.stats.streamsDroppedByLinks, 0u);
    EXPECT_FALSE(r.degradedPes.empty());
    EXPECT_EQ(r.unblocks, 49u); // no PE died, all complete (degraded)
}

TEST(FaultDeterminism, LinkDropJacobian)
{
    wse::FaultPlan plan;
    plan.dropLink(4, 2, wse::Direction::North, 100);
    FaultRun r = expectFaultEquivalence(fe::makeJacobian(7, 7, 4, 64), 7,
                                        7, plan, /*timeout=*/6000);
    EXPECT_EQ(r.outcome, wse::SimOutcome::Degraded);
    EXPECT_GT(r.stats.streamsDroppedByLinks, 0u);
    EXPECT_EQ(r.unblocks, 49u);
}

TEST(FaultDeterminism, PayloadCorruptionDiffusion)
{
    wse::FaultPlan plan;
    plan.seed = 1234;
    plan.corruptPayload(3, 3, wse::Direction::East, 0);
    plan.corruptPayload(2, 3, wse::Direction::North, 1);
    FaultRun r = expectFaultEquivalence(fe::makeDiffusion(7, 7, 4, 16), 7,
                                        7, plan, /*timeout=*/0);
    // Corruption garbles values without losing streams: the program
    // completes normally and the garbage propagates bit-identically.
    EXPECT_EQ(r.outcome, wse::SimOutcome::Completed);
    EXPECT_EQ(r.stats.payloadsCorrupted, 2u);
    EXPECT_EQ(r.unblocks, 49u);
}

TEST(FaultDeterminism, PayloadCorruptionJacobian)
{
    wse::FaultPlan plan;
    plan.seed = 99;
    plan.corruptPayload(1, 3, wse::Direction::South, 2);
    FaultRun r = expectFaultEquivalence(fe::makeJacobian(7, 7, 4, 64), 7,
                                        7, plan, /*timeout=*/0);
    EXPECT_EQ(r.outcome, wse::SimOutcome::Completed);
    EXPECT_EQ(r.stats.payloadsCorrupted, 1u);
    EXPECT_EQ(r.unblocks, 49u);
}

TEST(FaultDeterminism, StutterDiffusion)
{
    wse::FaultPlan plan;
    plan.stutterPe(3, 3, 0, wse::kNeverCycle, 3);
    FaultRun r = expectFaultEquivalence(fe::makeDiffusion(7, 7, 4, 16), 7,
                                        7, plan, /*timeout=*/0);
    // A slow PE reorders nothing semantically: everything completes
    // with identical numerics, just later.
    EXPECT_EQ(r.outcome, wse::SimOutcome::Completed);
    EXPECT_EQ(r.unblocks, 49u);
}

//===----------------------------------------------------------------------===
// SimReport surface
//===----------------------------------------------------------------------===

TEST(FaultReport, CleanRunReportsCompleted)
{
    fe::Benchmark bench = fe::makeDiffusion(5, 5, 4, 16);
    ir::Context ctx;
    dialects::registerAllDialects(ctx);
    ir::OwningOp module = bench.program.emit(ctx);
    transforms::runPipeline(module.get());

    wse::FaultPlan empty;
    FaultRun r = runFaulted(module.get(), bench, 5, 5, 1, empty, 0);
    EXPECT_EQ(r.outcome, wse::SimOutcome::Completed);
    EXPECT_TRUE(r.haltedPes.empty());
    EXPECT_TRUE(r.degradedPes.empty());
    EXPECT_EQ(r.stats.streamsDroppedByLinks, 0u);
    EXPECT_EQ(r.stats.payloadsDropped, 0u);
    EXPECT_EQ(r.stats.payloadsCorrupted, 0u);
    EXPECT_EQ(r.stats.exchangeTimeouts, 0u);
    EXPECT_EQ(r.stats.exchangesDegraded, 0u);
    EXPECT_EQ(r.unblocks, 25u);
}

TEST(FaultReport, EmptyPlanMatchesDefaultRun)
{
    // SimOptions carrying an empty plan must be byte-identical to a
    // simulator that never heard of faults (the golden-safety property;
    // also pinned by `ctest -L golden`).
    fe::Benchmark bench = fe::makeDiffusion(5, 5, 4, 16);
    ir::Context ctx;
    dialects::registerAllDialects(ctx);
    ir::OwningOp module = bench.program.emit(ctx);
    transforms::runPipeline(module.get());

    wse::FaultPlan empty;
    FaultRun withPlan = runFaulted(module.get(), bench, 5, 5, 1, empty, 0);

    wse::Simulator sim(wse::ArchParams::wse3(), 5, 5);
    interp::CslProgramInstance instance(sim, module.get());
    auto init = bench.init;
    instance.setFieldInit(bench.program.fieldName(0),
                          [init](int x, int y, int z) {
                              return init(0, x, y, z);
                          });
    instance.configure();
    instance.launch();
    const wse::SimReport rep = sim.runWithReport(4000000000ULL);

    EXPECT_EQ(withPlan.finalCycle, rep.finalCycle);
    EXPECT_TRUE(withPlan.stats == rep.stats);
    EXPECT_EQ(rep.outcome, wse::SimOutcome::Completed);
}

//===----------------------------------------------------------------------===
// Deadlock and budget diagnosis
//===----------------------------------------------------------------------===

TEST(FaultDiagnosis, DeadlockNamesBlockedPeAndTask)
{
    // Watchdog off: a dead PE starves its neighbours forever. The run
    // must terminate (queues drain) and diagnose the deadlock, naming
    // the live PEs stuck mid-exchange and the halted PE's pending task.
    // (Radius-2 diffusion computes on the 3x3 interior of a 7x7 grid,
    // so the halted (3, 3) starves the four star neighbours it feeds.)
    fe::Benchmark bench = fe::makeDiffusion(7, 7, 4, 16);
    ir::Context ctx;
    dialects::registerAllDialects(ctx);
    ir::OwningOp module = bench.program.emit(ctx);
    transforms::runPipeline(module.get());

    wse::FaultPlan plan;
    plan.haltPe(3, 3, 0);
    FaultRun r = runFaulted(module.get(), bench, 7, 7, 1, plan, 0);

    EXPECT_EQ(r.outcome, wse::SimOutcome::Deadlock);
    ASSERT_FALSE(r.blocked.empty());
    bool liveBlockedOnExchange = false;
    for (const auto &[x, y, what, since, halted] : r.blocked)
        if (!halted && what.find("halo exchange") != std::string::npos)
            liveBlockedOnExchange = true;
    EXPECT_TRUE(liveBlockedOnExchange)
        << "no live PE reported blocked on its exchange";

    // The same scenario sharded: deadlocks reproduce bit-identically
    // across thread counts too.
    FaultRun again = runFaulted(module.get(), bench, 7, 7, 4, plan, 0);
    EXPECT_TRUE(r == again);
}

TEST(FaultDiagnosis, DeadlockDumpMentionsPendingTask)
{
    wse::SimOptions options{1};
    options.faults.haltPe(0, 0, 5);
    wse::Simulator sim(wse::ArchParams::wse3(), 1, 1, options);
    bool ran = false;
    sim.pe(0, 0).registerTask("t_stuck",
                              [&ran](wse::TaskContext &) { ran = true; });
    sim.pe(0, 0).activate("t_stuck", 10);
    const wse::SimReport &rep = sim.runWithReport();

    EXPECT_FALSE(ran);
    // Every blocked party was halted by the plan: degraded, not
    // deadlocked — the dead PE is expected to leave work behind.
    EXPECT_EQ(rep.outcome, wse::SimOutcome::Degraded);
    EXPECT_EQ(rep.haltedPes, (std::vector<uint32_t>{0}));
    ASSERT_FALSE(rep.diagnosis.pendingTasks.empty());
    EXPECT_EQ(rep.diagnosis.pendingTasks[0].task, "t_stuck");
    EXPECT_TRUE(rep.diagnosis.pendingTasks[0].peHalted);
    EXPECT_NE(rep.diagnosis.toString().find("t_stuck"),
              std::string::npos);
}

TEST(FaultDiagnosis, EventBudgetDumpsQueues)
{
    fe::Benchmark bench = fe::makeDiffusion(5, 5, 4, 16);
    ir::Context ctx;
    dialects::registerAllDialects(ctx);
    ir::OwningOp module = bench.program.emit(ctx);
    transforms::runPipeline(module.get());

    for (int threads : {1, 4}) {
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

        const wse::SimReport &rep = sim.runWithReport(/*maxEvents=*/500);
        EXPECT_EQ(rep.outcome, wse::SimOutcome::EventBudgetExceeded);
        EXPECT_EQ(rep.diagnosis.eventBudget, 500u);
        EXPECT_FALSE(rep.diagnosis.queues.empty());
        EXPECT_FALSE(rep.ok());
        // The dump names the budget and the queues it stopped on.
        const std::string dump = rep.diagnosis.toString();
        EXPECT_NE(dump.find("event budget"), std::string::npos) << dump;
        EXPECT_NE(dump.find("queue"), std::string::npos) << dump;
    }
}

//===----------------------------------------------------------------------===
// Graceful degradation mechanics
//===----------------------------------------------------------------------===

TEST(FaultDegrade, TimeoutDegradesAndCompletes)
{
    fe::Benchmark bench = fe::makeDiffusion(7, 7, 4, 16);
    ir::Context ctx;
    dialects::registerAllDialects(ctx);
    ir::OwningOp module = bench.program.emit(ctx);
    transforms::runPipeline(module.get());

    wse::SimOptions options{1};
    options.faults.haltPe(3, 3, 0);
    options.exchangeTimeoutCycles = 3000;
    wse::Simulator sim(wse::ArchParams::wse3(), 7, 7, options);
    interp::CslProgramInstance instance(sim, module.get());
    auto init = bench.init;
    instance.setFieldInit(bench.program.fieldName(0),
                          [init](int x, int y, int z) {
                              return init(0, x, y, z);
                          });
    instance.configure();
    instance.launch();

    const wse::SimReport &rep = sim.runWithReport(4000000000ULL);
    EXPECT_EQ(rep.outcome, wse::SimOutcome::Degraded);
    EXPECT_TRUE(rep.ok());
    EXPECT_EQ(instance.unblockCount(), 48u); // all but the dead PE
    EXPECT_FALSE(rep.degradedPes.empty());

    // The exchange site saw the watchdog fire and counted it.
    ASSERT_FALSE(instance.commSites().empty());
    const comms::StarCommStats &cs = instance.commSites()[0]->stats();
    EXPECT_GT(cs.timeouts, 0u);
    EXPECT_GE(rep.stats.exchangeTimeouts, cs.timeouts);
    EXPECT_GT(rep.stats.exchangesDegraded, 0u);
}

TEST(FaultDegrade, CommTimeoutsMatchSimStats)
{
    // StarCommStats::timeouts (per exchange site) and
    // SimStats::exchangeTimeouts (per shard) count the same watchdog
    // firings: summed over every site they agree, at any thread count.
    fe::Benchmark bench = fe::makeDiffusion(7, 7, 4, 16);
    ir::Context ctx;
    dialects::registerAllDialects(ctx);
    ir::OwningOp module = bench.program.emit(ctx);
    transforms::runPipeline(module.get());

    for (int threads : {1, 4}) {
        SCOPED_TRACE(testing::Message() << "threads=" << threads);
        wse::SimOptions options;
        options.threads = threads;
        options.faults.haltPe(3, 3, 0);
        options.exchangeTimeoutCycles = 3000;
        wse::Simulator sim(wse::ArchParams::wse3(), 7, 7, options);
        interp::CslProgramInstance instance(sim, module.get());
        auto init = bench.init;
        instance.setFieldInit(bench.program.fieldName(0),
                              [init](int x, int y, int z) {
                                  return init(0, x, y, z);
                              });
        instance.configure();
        instance.launch();

        const wse::SimReport rep = sim.runWithReport(4000000000ULL);
        EXPECT_EQ(rep.outcome, wse::SimOutcome::Degraded);
        uint64_t siteTimeouts = 0;
        for (const auto &site : instance.commSites())
            siteTimeouts += site->stats().timeouts;
        EXPECT_GT(siteTimeouts, 0u);
        EXPECT_EQ(siteTimeouts, rep.stats.exchangeTimeouts);
    }
}

TEST(FaultDegrade, PerSectionDropLinkZeroFillsMissingSection)
{
    // Per-section mode (one receive task per landed section): the
    // interior PE of a 3x3 wafer never hears from its east neighbour.
    wse::SimOptions options{1};
    options.faults.dropLink(2, 1, wse::Direction::West, 0);
    options.exchangeTimeoutCycles = 2000;
    wse::Simulator sim(wse::ArchParams::wse3(), 3, 3, options);

    comms::StarCommConfig config;
    config.accesses = comms::canonicalAccessOrder(
        {{1, 0}, {-1, 0}, {0, -1}, {0, 1}});
    config.zSize = 8;
    config.perSectionCallbacks = true;
    comms::StarComm comm(sim, config);

    auto stamp = [](int x, int y, int64_t z) {
        return static_cast<float>(1000 * x + 100 * y + z + 1);
    };
    std::map<std::pair<int, int>, int> recvCount;
    std::map<std::pair<int, int>, int> doneCount;
    for (int x = 0; x < 3; ++x) {
        for (int y = 0; y < 3; ++y) {
            wse::Pe &pe = sim.pe(x, y);
            std::vector<float> &send = pe.allocBuffer("send", 8);
            for (int64_t z = 0; z < 8; ++z)
                send[static_cast<size_t>(z)] = stamp(x, y, z);
            pe.registerTask("driver", [&comm](wse::TaskContext &ctx) {
                comm.exchange(ctx, "send", "recv", "done");
            });
            pe.registerTask("recv", [&, x, y](wse::TaskContext &ctx) {
                comm.popCompletedSection(ctx.pe());
                recvCount[{x, y}]++;
            });
            pe.registerTask("done", [&doneCount, x, y](wse::TaskContext &) {
                doneCount[{x, y}]++;
            });
        }
    }
    comm.setup();
    // Stale landing-buffer contents: the zero fill must overwrite them.
    std::vector<float> &recv = sim.pe(1, 1).buffer("recv_buffer");
    std::fill(recv.begin(), recv.end(), -7.0f);
    for (int x = 0; x < 3; ++x)
        for (int y = 0; y < 3; ++y)
            sim.pe(x, y).activate("driver", 0);

    const wse::SimReport &rep = sim.runWithReport(4000000000ULL);
    EXPECT_EQ(rep.outcome, wse::SimOutcome::Degraded);
    EXPECT_EQ(rep.stats.exchangesDegraded, 1u);
    EXPECT_EQ(rep.stats.streamsDroppedByLinks, 1u);
    EXPECT_EQ(rep.degradedPes, (std::vector<uint32_t>{sim.peIndex(1, 1)}));

    // Three sections landed, the fourth was force-announced: four
    // receive tasks and exactly one done callback.
    EXPECT_EQ((recvCount[{1, 1}]), 4);
    for (int x = 0; x < 3; ++x)
        for (int y = 0; y < 3; ++y)
            EXPECT_EQ((doneCount[{x, y}]), 1) << "PE " << x << "," << y;

    int missing = comm.sectionIndex(1, 0);
    for (int s = 0; s < 4; ++s) {
        const comms::Access &a = config.accesses[static_cast<size_t>(s)];
        for (int64_t z = 0; z < 8; ++z) {
            float want = s == missing ? 0.0f : stamp(1 + a.dx, 1 + a.dy, z);
            EXPECT_EQ(recv[static_cast<size_t>(s * 8 + z)], want)
                << "section " << s << " z " << z;
        }
    }
}

TEST(FaultDegrade, InFlightSectionReadsAsDelivered)
{
    // A slow link holds the east section of PE (1, 0)'s only chunk back
    // by 400 cycles. Its head arrives at 424 and it lands at 680, after
    // its 256-wavelet ramp transfer. The watchdog (80 cycles, two
    // doubling retries) degrades the exchange at 575, in between. The
    // receive task cannot start before that transfer ends on the PE's
    // one work timeline, so the pop reads the section, not zeros.
    wse::SimOptions options;
    options.faults.degradeLink(2, 0, wse::Direction::West, 0,
                               /*extraHopCycles=*/400);
    options.exchangeTimeoutCycles = 80;
    wse::Simulator sim(wse::ArchParams::wse3(), 3, 1, options);

    const int64_t z = 256;
    comms::StarCommConfig config;
    config.accesses = comms::canonicalAccessOrder({{1, 0}, {-1, 0}});
    config.zSize = z;
    comms::StarComm comm(sim, config);

    auto stamp = [](int x, int64_t k) {
        return static_cast<float>(1000 * x + k + 1);
    };
    std::vector<float> popped;
    for (int x = 0; x < 3; ++x) {
        wse::Pe &pe = sim.pe(x, 0);
        std::vector<float> &send =
            pe.allocBuffer("send", static_cast<size_t>(z));
        for (int64_t k = 0; k < z; ++k)
            send[static_cast<size_t>(k)] = stamp(x, k);
        pe.registerTask("driver", [&comm](wse::TaskContext &ctx) {
            comm.exchange(ctx, "send", "recv", "done");
        });
        pe.registerTask("recv", [&](wse::TaskContext &ctx) {
            comm.popCompletedChunkOffset(ctx.pe());
            popped = ctx.pe().buffer("recv_buffer");
        });
        pe.registerTask("done", [](wse::TaskContext &) {});
    }
    comm.setup();
    for (int x = 0; x < 3; ++x)
        sim.pe(x, 0).activate("driver", 0);

    const wse::SimReport &rep = sim.runWithReport(4000000000ULL);
    EXPECT_EQ(rep.outcome, wse::SimOutcome::Degraded);
    EXPECT_EQ(rep.stats.exchangeTimeouts, 3u);
    EXPECT_EQ(rep.stats.exchangesDegraded, 1u);
    EXPECT_EQ(rep.degradedPes, (std::vector<uint32_t>{sim.peIndex(1, 0)}));

    ASSERT_EQ(popped.size(), static_cast<size_t>(2 * z));
    for (int64_t s = 0; s < 2; ++s) {
        int source = 1 + config.accesses[static_cast<size_t>(s)].dx;
        std::vector<float> want(static_cast<size_t>(z));
        for (int64_t k = 0; k < z; ++k)
            want[static_cast<size_t>(k)] = stamp(source, k);
        EXPECT_EQ(std::vector<float>(popped.begin() + s * z,
                                     popped.begin() + (s + 1) * z),
                  want)
            << "section " << s;
    }
}

//===----------------------------------------------------------------------===
// Sharded worker error path (regression: no std::terminate, no hang)
//===----------------------------------------------------------------------===

TEST(FaultRobustness, WorkerExceptionUnderThreads4)
{
    // A callback throwing on a worker thread must surface as the same
    // FatalError on the calling thread — siblings keep arriving at the
    // barrier, the workers join, the simulator stays destructible.
    wse::Simulator sim(wse::ArchParams::wse3(), 8, 1,
                       wse::SimOptions{4});
    for (int x = 0; x < 8; ++x)
        sim.pe(x, 0).registerTask(
            "tick",
            [x](wse::TaskContext &ctx) {
                ctx.consume(10);
                if (x == 5 && ctx.startCycle() > 100)
                    fatal(strcat("injected task failure on PE ", x));
                ctx.pe().activate("tick", ctx.currentCycle() + 50);
            });
    for (int x = 0; x < 8; ++x)
        sim.pe(x, 0).activate("tick", 0);
    EXPECT_THROW(sim.runWithReport(1000000), FatalError);
}

//===----------------------------------------------------------------------===
// Fault mechanics at the fabric/PE level
//===----------------------------------------------------------------------===

TEST(FaultUnit, DeadLinkDropsAtInjection)
{
    wse::SimOptions options{1};
    options.faults.dropLink(0, 0, wse::Direction::East, 0);
    wse::Simulator sim(wse::ArchParams::wse3(), 3, 1, options);
    int deliveries = 0;
    auto deliver = [&deliveries](const wse::StreamDelivery &) {
        deliveries++;
    };
    sendHostStream(sim, 0, 0, wse::Direction::East, {1, 2},
                   std::vector<float>(8, 1.0f), 0, deliver);
    sim.runWithReport();
    EXPECT_EQ(deliveries, 0);
    EXPECT_EQ(sim.stats().streamsDroppedByLinks, 1u);
}

TEST(FaultUnit, DeadLinkDropsMidPathAfterEarlierDeliveries)
{
    wse::SimOptions options{1};
    options.faults.dropLink(1, 0, wse::Direction::East, 0);
    wse::Simulator sim(wse::ArchParams::wse3(), 4, 1, options);
    std::vector<int> landedAt;
    auto deliver = [&landedAt](const wse::StreamDelivery &d) {
        landedAt.push_back(d.peX);
    };
    sendHostStream(sim, 0, 0, wse::Direction::East, {1, 3},
                   std::vector<float>(8, 1.0f), 0, deliver);
    sim.runWithReport();
    // Hop 1 lands before the dead link; hop 3 is lost behind it.
    EXPECT_EQ(landedAt, (std::vector<int>{1}));
    EXPECT_EQ(sim.stats().streamsDroppedByLinks, 1u);
}

TEST(FaultUnit, DegradedLinkDelaysDelivery)
{
    wse::Cycles completeAt[2] = {0, 0};
    for (int i = 0; i < 2; ++i) {
        wse::SimOptions options{1};
        if (i == 1)
            options.faults.degradeLink(0, 0, wse::Direction::East, 0,
                                       /*extraHopCycles=*/50);
        wse::Simulator sim(wse::ArchParams::wse3(), 2, 1, options);
        auto deliver = [&completeAt, i](const wse::StreamDelivery &d) {
            completeAt[i] = d.completeAt;
        };
        sendHostStream(sim, 0, 0, wse::Direction::East, {1},
                       std::vector<float>(8, 1.0f), 0, deliver);
        sim.runWithReport();
    }
    EXPECT_EQ(completeAt[1], completeAt[0] + 50);
}

TEST(FaultUnit, PayloadCorruptionCopiesSharedChunk)
{
    // One chunk fanned out in two directions shares one payload slot;
    // corrupting the East stream must not leak into the West one.
    wse::SimOptions options{1};
    options.faults.seed = 7;
    options.faults.corruptPayload(1, 0, wse::Direction::East, 0);
    wse::Simulator sim(wse::ArchParams::wse3(), 3, 1, options);

    std::map<int, std::vector<float>> dataOf;
    std::map<int, bool> corruptedOf;
    auto deliver = std::make_shared<const wse::DeliveryFn>(
        [&](const wse::StreamDelivery &d) {
            dataOf[d.peX] = d.payload.data();
            corruptedOf[d.peX] = d.payload.corrupted();
        });
    wse::PayloadRef chunk = sim.pe(1, 0).payloadPool().acquire();
    chunk.mutableData().assign(16, 1.0f);
    sim.fabric().sendStream(1, 0, wse::Direction::East, 1u << 1, chunk, 0,
                            deliver, /*tag=*/0);
    sim.fabric().sendStream(1, 0, wse::Direction::West, 1u << 1, chunk, 0,
                            deliver, /*tag=*/0);
    chunk.reset();
    sim.runWithReport();

    ASSERT_EQ(dataOf.size(), 2u);
    // West (PE 0): pristine. East (PE 2): exactly one garbled element.
    EXPECT_EQ(dataOf[0], std::vector<float>(16, 1.0f));
    EXPECT_FALSE(corruptedOf[0]);
    EXPECT_TRUE(corruptedOf[2]);
    int changed = 0;
    for (float v : dataOf[2])
        if (v != 1.0f) {
            changed++;
            EXPECT_TRUE(std::isfinite(v)); // never NaN/inf garbage
        }
    EXPECT_EQ(changed, 1);
    EXPECT_EQ(sim.stats().payloadsCorrupted, 1u);
}

TEST(FaultUnit, PayloadDropLosesOneStreamOnly)
{
    wse::SimOptions options{1};
    options.faults.dropPayload(0, 0, wse::Direction::East, 0);
    wse::Simulator sim(wse::ArchParams::wse3(), 2, 1, options);
    int deliveries = 0;
    auto deliver = [&deliveries](const wse::StreamDelivery &) {
        deliveries++;
    };
    std::vector<float> payload(8, 1.0f);
    sendHostStream(sim, 0, 0, wse::Direction::East, {1}, payload, 0,
                   deliver);
    sendHostStream(sim, 0, 0, wse::Direction::East, {1}, payload, 0,
                   deliver);
    sim.runWithReport();
    // Stream 0 vanishes after the first hop; stream 1 is untouched.
    EXPECT_EQ(deliveries, 1);
    EXPECT_EQ(sim.stats().payloadsDropped, 1u);
}

TEST(FaultUnit, StutterSlowsWork)
{
    // A task's consumed cycles land on the work timeline, so the
    // stutter shows up in workFree(), not in the last event's cycle.
    wse::Cycles workFree[2] = {0, 0};
    for (int i = 0; i < 2; ++i) {
        wse::SimOptions options{1};
        if (i == 1)
            options.faults.stutterPe(0, 0, 0, wse::kNeverCycle, 4);
        wse::Simulator sim(wse::ArchParams::wse3(), 1, 1, options);
        sim.pe(0, 0).registerTask("work",
                                  [](wse::TaskContext &ctx) {
                                      ctx.consume(100);
                                  });
        sim.pe(0, 0).activate("work", 0);
        sim.runWithReport();
        workFree[i] = sim.pe(0, 0).workFree();
    }
    EXPECT_GE(workFree[1], 4 * workFree[0]);
    EXPECT_GT(workFree[0], 0u);
}

//===----------------------------------------------------------------------===
// Strip-boundary determinism under fault plans
//===----------------------------------------------------------------------===

// A fault plan is part of the simulated world, so it must replay
// bit-exactly wherever the strip boundaries fall: injection ordinals
// are counted on the owning link's shard in deterministic event order,
// never off scheduling artifacts. The sweep covers uneven splits of 7
// columns (t=3, t=4) and more threads than columns (t=8 clamps to one
// strip per column) — outcome, fault counters, diagnosis rows AND field
// bytes.

TEST(FaultTiling, CompositePlanDiffusion)
{
    // Halt + N/S link drop + payload corruption next to strip
    // boundaries: the shape that would expose any dependence on the
    // split in ordinal counting or recovery ordering.
    wse::FaultPlan plan;
    plan.seed = 7;
    plan.haltPe(5, 2, 40);
    plan.dropLink(3, 4, wse::Direction::North, 60);
    plan.corruptPayload(2, 2, wse::Direction::South, 1);
    expectFaultEquivalence(fe::makeDiffusion(7, 7, 4, 16), 7, 7, plan,
                           /*timeout=*/4000, {3, 4, 8});
}

TEST(FaultTiling, CompositePlanJacobian)
{
    wse::FaultPlan plan;
    plan.seed = 11;
    plan.haltPe(1, 5, 80);
    plan.stutterPe(4, 1, 0, 2000, 3);
    plan.dropPayload(3, 3, wse::Direction::East, 0);
    expectFaultEquivalence(fe::makeJacobian(7, 7, 4, 64), 7, 7, plan,
                           /*timeout=*/6000, {3, 4, 8});
}

} // namespace
} // namespace wsc::test
