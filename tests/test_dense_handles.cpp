/**
 * @file
 * PR 2 coverage: the dense-handle simulator core. SimStats equivalence
 * of the compiled interpreter against the reference evaluator under the
 * handle-based Pe/StarComm/fabric paths, Pe handle semantics (id
 * resolution, unknown-name errors, stable buffer addresses), the
 * allocation-free event queue's ordering and fallback behaviour, and the
 * worklist driver's per-pattern counters.
 */

#include "test_helpers.h"

#include <sstream>

#include "ir/pattern.h"
#include "support/vec_fifo.h"

namespace wsc::test {
namespace {

namespace ar = dialects::arith;
namespace bt = dialects::builtin;

//===----------------------------------------------------------------------===
// SimStats equivalence: compiled vs reference under dense handles
//===----------------------------------------------------------------------===

/**
 * Runs `bench` end to end in both interpreter modes and asserts the
 * aggregate SimStats (events, wavelets, activations, DSD ops, flops,
 * memory traffic) and the final cycle count are identical — the
 * dense-handle core must not change what is simulated, only how fast
 * the simulation runs.
 */
void
expectStatsEquivalence(fe::Benchmark &bench, int nx, int ny)
{
    ir::Context ctx;
    dialects::registerAllDialects(ctx);
    ir::OwningOp module = bench.program.emit(ctx);
    transforms::runPipeline(module.get());

    struct Run
    {
        wse::Cycles finalCycle = 0;
        wse::SimStats stats;
    };
    auto runOnce = [&](bool reference) {
        wse::Simulator sim(wse::ArchParams::wse3(), nx, ny);
        interp::CslProgramInstance instance(sim, module.get());
        instance.setReferenceMode(reference);
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
        Run run;
        run.finalCycle = sim.runWithReport(4000000000ULL).finalCycle;
        run.stats = sim.stats();
        return run;
    };

    Run compiled = runOnce(false);
    Run reference = runOnce(true);

    EXPECT_EQ(compiled.finalCycle, reference.finalCycle);
    EXPECT_EQ(compiled.stats.eventsProcessed,
              reference.stats.eventsProcessed);
    EXPECT_EQ(compiled.stats.waveletsSent, reference.stats.waveletsSent);
    EXPECT_EQ(compiled.stats.taskActivations,
              reference.stats.taskActivations);
    EXPECT_EQ(compiled.stats.dsdOps, reference.stats.dsdOps);
    EXPECT_EQ(compiled.stats.flops, reference.stats.flops);
    EXPECT_EQ(compiled.stats.memBytes, reference.stats.memBytes);
}

TEST(DenseHandleEquivalence, SeismicStatsMatchReference)
{
    fe::Benchmark bench = fe::makeSeismic(8, 8, 3, 20);
    expectStatsEquivalence(bench, 8, 8);
}

TEST(DenseHandleEquivalence, DiffusionStatsMatchReference)
{
    fe::Benchmark bench = fe::makeDiffusion(7, 7, 4, 16);
    expectStatsEquivalence(bench, 7, 7);
}

//===----------------------------------------------------------------------===
// Pe handle semantics
//===----------------------------------------------------------------------===

class PeHandleTest : public ::testing::Test
{
  protected:
    PeHandleTest() : sim(wse::ArchParams::wse3(), 1, 1) {}

    wse::Simulator sim;
};

TEST_F(PeHandleTest, TaskIdResolution)
{
    wse::Pe &pe = sim.pe(0, 0);
    int fired = 0;
    wse::TaskId id =
        pe.registerTask("t", [&](wse::TaskContext &) { fired++; });
    EXPECT_TRUE(id.valid());
    EXPECT_EQ(pe.taskId("t"), id);

    pe.activate(id, 0);
    sim.runWithReport();
    EXPECT_EQ(fired, 1);
}

TEST_F(PeHandleTest, UnknownNamesPanic)
{
    wse::Pe &pe = sim.pe(0, 0);
    EXPECT_THROW(pe.taskId("ghost"), PanicError);
    EXPECT_THROW(pe.activate("ghost", 0), PanicError);
    EXPECT_THROW(pe.bufferId("nope"), PanicError);
    EXPECT_THROW(pe.buffer("nope"), PanicError);
    EXPECT_THROW(pe.activate(wse::TaskId{}, 0), PanicError);
    EXPECT_THROW(pe.buffer(wse::BufferId{}), PanicError);
}

TEST_F(PeHandleTest, BufferIdResolutionAndAliasing)
{
    wse::Pe &pe = sim.pe(0, 0);
    wse::BufferId a = pe.allocBufferId("a", 100);
    EXPECT_TRUE(a.valid());
    EXPECT_EQ(pe.bufferId("a"), a);
    EXPECT_EQ(pe.findBuffer("a"), a);
    EXPECT_EQ(&pe.buffer(a), &pe.buffer("a"));
    EXPECT_EQ(pe.buffer(a).size(), 100u);
    EXPECT_EQ(pe.memoryBytesUsed(), 400u);
    // Double allocation of a live name is an error.
    EXPECT_THROW(pe.allocBufferId("a", 10), PanicError);
}

TEST_F(PeHandleTest, ScalarIdInterning)
{
    wse::Pe &pe = sim.pe(0, 0);
    wse::ScalarId x = pe.scalarId("x");
    EXPECT_TRUE(x.valid());
    EXPECT_EQ(pe.scalarId("x"), x); // Idempotent interning.
    pe.scalar(x) = 7.0;
    EXPECT_EQ(pe.scalar("x"), 7.0);
    wse::ScalarId y = pe.scalarId("y");
    EXPECT_NE(y, x);
    EXPECT_EQ(pe.scalar(y), 0.0);
}

TEST_F(PeHandleTest, BufferAddressesSurviveLaterAllocations)
{
    // DSDs and the interpreter's variable slots hold pointers to a
    // buffer's data vector: allocating more buffers (past the slots
    // stored inline in the Pe) must not move earlier ones.
    wse::Pe &pe = sim.pe(0, 0);
    std::vector<wse::BufferId> ids;
    std::vector<std::vector<float> *> addresses;
    for (int i = 0; i < 20; ++i) {
        ids.push_back(pe.allocBufferId("b" + std::to_string(i), 4));
        addresses.push_back(&pe.buffer(ids.back()));
    }
    for (int i = 0; i < 20; ++i) {
        EXPECT_EQ(ids[i].index, i);
        EXPECT_EQ(&pe.buffer(ids[i]), addresses[i]);
        EXPECT_EQ(pe.bufferId("b" + std::to_string(i)), ids[i]);
    }
    EXPECT_EQ(pe.memoryBytesUsed(), 20u * 4 * sizeof(float));
}

TEST_F(PeHandleTest, TaskCannotRegisterOnItsOwnPe)
{
    // The task table is a vector: growing it from a running task would
    // move the running closure, so registration from inside a task of
    // the same PE is rejected.
    wse::Pe &pe = sim.pe(0, 0);
    pe.registerTask("grow", [&](wse::TaskContext &) {
        pe.registerTask("late", [](wse::TaskContext &) {});
    });
    pe.activate("grow", 0);
    EXPECT_THROW(sim.runWithReport(), PanicError);
}

TEST(VecFifo, KeepsOrderAcrossCompaction)
{
    // A queue that never drains compacts its consumed prefix; the
    // remaining elements keep their order.
    VecFifo<int> fifo;
    int next = 0;
    int expected = 0;
    for (int round = 0; round < 200; ++round) {
        fifo.emplace_back(next++);
        fifo.emplace_back(next++);
        ASSERT_EQ(fifo.front(), expected++);
        fifo.pop_front();
    }
    EXPECT_EQ(fifo.size(), 200u);
    std::span<const int> view = fifo.view();
    for (size_t i = 0; i < view.size(); ++i)
        EXPECT_EQ(view[i], expected + static_cast<int>(i));
    while (!fifo.empty()) {
        EXPECT_EQ(fifo.front(), expected++);
        fifo.pop_front();
    }
    EXPECT_EQ(expected, next);
}

//===----------------------------------------------------------------------===
// Event queue: ordering and callback storage
//===----------------------------------------------------------------------===

TEST(EventQueue, ManySameCycleEventsRunFifo)
{
    wse::Simulator sim(wse::ArchParams::wse3(), 1, 1);
    std::vector<int> order;
    for (int i = 0; i < 100; ++i)
        sim.schedule(5, [&order, i] { order.push_back(i); });
    sim.runWithReport();
    ASSERT_EQ(order.size(), 100u);
    for (int i = 0; i < 100; ++i)
        EXPECT_EQ(order[static_cast<size_t>(i)], i);
}

TEST(EventQueue, InterleavedSchedulingKeepsCycleOrder)
{
    // Events scheduled from inside events, with recycled callback
    // slots, still run in (cycle, sequence) order.
    wse::Simulator sim(wse::ArchParams::wse3(), 1, 1);
    std::vector<wse::Cycles> at;
    for (int i = 0; i < 10; ++i)
        sim.schedule(static_cast<wse::Cycles>(10 * i), [&, i] {
            at.push_back(sim.now());
            sim.schedule(sim.now() + 5,
                         [&] { at.push_back(sim.now()); });
        });
    sim.runWithReport();
    ASSERT_EQ(at.size(), 20u);
    for (size_t i = 1; i < at.size(); ++i)
        EXPECT_LE(at[i - 1], at[i]);
    EXPECT_EQ(sim.stats().eventsProcessed, 20u);
}

TEST(EventQueue, CallbacksReleaseCapturedState)
{
    // Slot recycling must destroy the moved-out callback after it runs:
    // a shared_ptr captured by an executed event does not linger.
    wse::Simulator sim(wse::ArchParams::wse3(), 1, 1);
    auto token = std::make_shared<int>(7);
    sim.schedule(1, [token] {});
    EXPECT_EQ(token.use_count(), 2);
    sim.runWithReport();
    EXPECT_EQ(token.use_count(), 1);
}

//===----------------------------------------------------------------------===
// Worklist driver pattern counters
//===----------------------------------------------------------------------===

TEST_F(IrTest, PatternCountersTrackHitsAndMisses)
{
    ir::resetPatternStats();

    ir::OwningOp module = bt::createModule(ctx);
    ir::OpBuilder b(ctx);
    b.setInsertionPointToEnd(bt::moduleBody(module.get()));
    ir::Value c = ar::createConstantF32(b, 1.0);
    ar::createAddF(b, c, c);
    ar::createAddF(b, c, c);

    std::vector<ir::NamedPattern> patterns = {
        {"drop-dead-adds", [](ir::Operation *op, ir::OpBuilder &) {
             if (op->name() != "arith.addf" || op->hasResultUses())
                 return false;
             op->erase();
             return true;
         }},
    };
    EXPECT_TRUE(ir::applyPatternsGreedily(module.get(), patterns));

    const auto &stats = ir::patternStats();
    ASSERT_EQ(stats.count("drop-dead-adds"), 1u);
    const ir::PatternStat &s = stats.at("drop-dead-adds");
    EXPECT_EQ(s.hits, 2u);   // Both dead adds were erased.
    EXPECT_GE(s.misses, 1u); // At least the constant did not match.

    std::ostringstream os;
    ir::dumpPatternStats(os);
    EXPECT_NE(os.str().find("drop-dead-adds: 2 hits"),
              std::string::npos);

    ir::resetPatternStats();
    EXPECT_TRUE(ir::patternStats().empty());
}

TEST_F(IrTest, PatternCountersSurviveNonConvergencePanic)
{
    // The counters exist to debug diverging patterns, so the
    // non-convergence panic must not discard the run's counts.
    ir::resetPatternStats();
    ir::OwningOp module = bt::createModule(ctx);
    ir::OpBuilder b(ctx);
    b.setInsertionPointToEnd(bt::moduleBody(module.get()));
    ar::createConstantF32(b, 1.0);
    std::vector<ir::NamedPattern> patterns = {
        {"flip-flop", [](ir::Operation *op, ir::OpBuilder &) {
             return op->name() == "arith.constant";
         }},
    };
    EXPECT_THROW(ir::applyPatternsGreedily(module.get(), patterns, 16),
                 PanicError);
    ASSERT_EQ(ir::patternStats().count("flip-flop"), 1u);
    EXPECT_EQ(ir::patternStats().at("flip-flop").hits, 16u);
    ir::resetPatternStats();
}

TEST_F(IrTest, PatternCountersAccumulateAcrossRuns)
{
    ir::resetPatternStats();
    for (int round = 0; round < 2; ++round) {
        ir::OwningOp module = bt::createModule(ctx);
        ir::OpBuilder b(ctx);
        b.setInsertionPointToEnd(bt::moduleBody(module.get()));
        ar::createConstantF32(b, 1.0);
        std::vector<ir::NamedPattern> patterns = {
            {"never-matches",
             [](ir::Operation *, ir::OpBuilder &) { return false; }},
        };
        ir::applyPatternsGreedily(module.get(), patterns);
    }
    EXPECT_EQ(ir::patternStats().at("never-matches").misses, 2u);
    ir::resetPatternStats();
}

} // namespace
} // namespace wsc::test
