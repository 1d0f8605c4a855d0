#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <bit>
#include <deque>
#include <functional>
#include <map>
#include <random>
#include <set>

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

/**
 * Drives PE-owned events through the queue while a model keeps the set
 * of queued keys in the queue's total order (cycle, owner, creator,
 * creation index); the index stands in for the per-creator sequence.
 * With one shard every executed event must be the model's least key.
 * Children are derived from a hash of their parent's key, so the event
 * tree is the same at any thread count.
 */
class QueueModel
{
  public:
    struct Key
    {
        Cycles at;
        uint32_t owner;
        uint32_t creator;
        uint64_t index;
        auto operator<=>(const Key &) const = default;
    };

    static constexpr int kWidth = 8;
    static constexpr int kHeight = 2;

    explicit QueueModel(int threads)
        : sim_(ArchParams::wse3(), kWidth, kHeight,
               wse::SimOptions{.threads = threads}),
          checkOrder_(sim_.shardCount() == 1),
          created_(sim_.hostId() + 1), ran_(sim_.hostId() + 1),
          hop_(std::max<Cycles>(1, sim_.params().hopCycles))
    {
    }

    Simulator &sim() { return sim_; }
    uint32_t host() const { return sim_.hostId(); }
    const std::set<Key> &queued() const { return queued_; }
    uint64_t misorders() const { return misorders_; }
    /** Executed keys, per owner (host last). */
    const std::vector<std::vector<Key>> &ran() const { return ran_; }

    /** Schedule from the host: a PE-owned event that spawns `depth`
     *  generations, or a host-owned leaf. */
    void
    seed(uint32_t owner, Cycles at, int depth)
    {
        add(host(), owner, at, owner == host() ? 0 : depth);
    }

  private:
    void
    add(uint32_t creator, uint32_t owner, Cycles at, int depth)
    {
        const Key key{at, owner, creator, created_[creator]++};
        if (checkOrder_)
            queued_.insert(key);
        sim_.scheduleOnPe(
            owner, at, [this, key, depth] { run(key, depth); },
            sim_.currentShard());
    }

    /** Column strips of a threads=4 run on kWidth columns are column
     *  pairs; events inside a pair may be scheduled at the current
     *  cycle at any thread count. */
    static uint32_t
    pairBase(uint32_t pe)
    {
        return pe / (2 * kHeight) * (2 * kHeight);
    }

    void
    run(const Key &key, int depth)
    {
        EXPECT_EQ(sim_.now(), key.at);
        if (checkOrder_) {
            if (queued_.empty() || *queued_.begin() != key)
                misorders_++;
            queued_.erase(key);
        }
        ran_[key.owner].push_back(key);
        if (depth == 0)
            return;
        uint64_t h = key.at * 0x9e3779b97f4a7c15ULL ^
                     (uint64_t{key.owner} << 40) ^
                     (uint64_t{key.creator} << 20) ^ key.index;
        auto next = [&h] {
            h ^= h >> 31;
            h *= 0xbf58476d1ce4e5b9ULL;
            h ^= h >> 29;
            return h;
        };
        const uint32_t pes = host();
        const uint32_t pair = 2 * kHeight;
        // The draining cycle, inside the owner's strip: the new owner is
        // often below the running one, so its key sorts before the rest
        // of the cycle's batch.
        if (next() % 3 != 0)
            add(key.owner, pairBase(key.owner) + next() % pair, key.at,
                depth - 1);
        // Later in the strip, across power-of-two boundaries of the
        // cycle and into the far future.
        Cycles pow2 = std::bit_ceil(key.at + 1);
        const Cycles later[] = {1,
                                2,
                                3,
                                pow2 - key.at - 1,
                                pow2 - key.at,
                                pow2 - key.at + 1,
                                2 * pow2 - key.at,
                                (Cycles{1} << 32) + next() % 3};
        Cycles delta = later[next() % std::size(later)];
        add(key.owner, pairBase(key.owner) + next() % pair,
            key.at + std::max<Cycles>(delta, 1), depth - 1);
        // Across strips, no earlier than one hop.
        uint32_t other =
            (pairBase(key.owner) + pair * (1 + next() % (kWidth / 2 - 1)) +
             next() % pair) % pes;
        add(key.owner, other, key.at + hop_ + later[next() % 3],
            depth - 1);
    }

    Simulator sim_;
    bool checkOrder_;
    std::set<Key> queued_;
    uint64_t misorders_ = 0;
    /** Creations per creator (written only on the creator's shard). */
    std::vector<uint64_t> created_;
    std::vector<std::vector<Key>> ran_;
    Cycles hop_;
};

/** Seeds every PE and the host around the power-of-two boundaries and
 *  the 2^k-aligned boundaries above `from`, with a few far-future
 *  (>= 2^32) keys. */
void
seedAcrossBoundaries(QueueModel &m, Cycles from, uint64_t salt)
{
    std::mt19937_64 rng(salt);
    const uint32_t owners = m.host() + 1;
    for (int k = 0; k < 44; ++k) {
        const Cycles pow2 = Cycles{1} << k;
        const Cycles aligned = (from | (pow2 - 1)) + 1;
        for (Cycles at : {pow2 - 1, pow2, pow2 + 1, aligned - 1, aligned,
                          aligned + 1})
            if (at >= from)
                m.seed(static_cast<uint32_t>(rng() % owners), at, 3);
    }
    for (int i = 0; i < 64; ++i)
        m.seed(static_cast<uint32_t>(rng() % owners), from + rng() % 300,
               3);
    for (Cycles far : {Cycles{1} << 32, (Cycles{1} << 32) + 1,
                       Cycles{1} << 40})
        m.seed(static_cast<uint32_t>(rng() % owners), std::max(far, from),
               2);
}

TEST(SimulatorTest, QueuePopsTheLeastKeyAcrossCycleBoundariesAndRuns)
{
    QueueModel seq(1);
    QueueModel par(4);
    ASSERT_EQ(par.sim().shardCount(), 4);

    // Run 1: seeded from the host at cycle 0, run to completion.
    seedAcrossBoundaries(seq, 0, 7);
    seedAcrossBoundaries(par, 0, 7);
    EXPECT_EQ(seq.sim().runWithReport().outcome,
              wse::SimOutcome::Completed);
    EXPECT_EQ(par.sim().runWithReport().outcome,
              wse::SimOutcome::Completed);
    ASSERT_EQ(seq.sim().now(), par.sim().now());
    EXPECT_TRUE(seq.queued().empty());

    // Run 2: scheduled between runs, from the current cycle on. The
    // sequential run stops on its event budget first; the diagnosis
    // must count every queued key, and the next run resumes in order.
    const Cycles resume = seq.sim().now();
    seedAcrossBoundaries(seq, resume, 8);
    seedAcrossBoundaries(par, resume, 8);
    const uint64_t done = seq.sim().stats().eventsProcessed;
    const wse::SimReport stopped = seq.sim().runWithReport(700);
    ASSERT_EQ(stopped.outcome, wse::SimOutcome::EventBudgetExceeded);
    ASSERT_EQ(stopped.diagnosis.queues.size(), 1u);
    const wse::ShardQueueInfo &q = stopped.diagnosis.queues[0];
    EXPECT_EQ(seq.sim().stats().eventsProcessed - done, 700u);
    EXPECT_EQ(q.depth, seq.queued().size());
    ASSERT_FALSE(seq.queued().empty());
    EXPECT_EQ(q.nextAt, seq.queued().begin()->at);
    std::map<uint32_t, size_t> perOwner;
    for (const QueueModel::Key &key : seq.queued())
        if (key.owner != seq.host())
            perOwner[key.owner]++;
    ASSERT_FALSE(stopped.diagnosis.busiestPes.empty());
    size_t busiest = 0;
    for (const auto &[owner, count] : perOwner)
        busiest = std::max(busiest, count);
    EXPECT_EQ(stopped.diagnosis.busiestPes[0].queuedEvents, busiest);
    EXPECT_EQ(seq.sim().runWithReport().outcome,
              wse::SimOutcome::Completed);
    EXPECT_EQ(par.sim().runWithReport().outcome,
              wse::SimOutcome::Completed);
    EXPECT_EQ(seq.sim().now(), par.sim().now());
    EXPECT_TRUE(seq.queued().empty());
    EXPECT_EQ(seq.misorders(), 0u);
    EXPECT_GT(seq.sim().now(), Cycles{1} << 40);

    // Every owner ran the same keys in the same order on four shards,
    // cross-strip events included.
    EXPECT_EQ(seq.ran(), par.ran());
    EXPECT_EQ(seq.sim().stats(), par.sim().stats());

    // Run 3: a budget stop, then host pushes into the draining cycle
    // and beyond it before the run resumes.
    seedAcrossBoundaries(seq, seq.sim().now(), 9);
    ASSERT_EQ(seq.sim().runWithReport(300).outcome,
              wse::SimOutcome::EventBudgetExceeded);
    const Cycles now = seq.sim().now();
    for (uint32_t pe = 0; pe < seq.host(); pe += 3)
        for (Cycles d : {Cycles{0}, Cycles{1}, Cycles{64}})
            seq.seed(pe, now + d, 1);
    EXPECT_EQ(seq.sim().runWithReport().outcome,
              wse::SimOutcome::Completed);
    EXPECT_TRUE(seq.queued().empty());
    EXPECT_EQ(seq.misorders(), 0u);
}

/** Default options at `threads` worker threads. */
wse::SimOptions
withThreads(int threads)
{
    wse::SimOptions options;
    options.threads = threads;
    return options;
}

/**
 * Schedules PE-owned events through scheduleOnPe and logs the key of
 * each one that runs: (cycle, owner, creator, per-creator creation
 * index). An event may carry a follow-up, called inside it with its own
 * key, so the events the follow-up adds are created by that owner.
 */
class KeyLog
{
  public:
    using Key = QueueModel::Key;
    using Then = std::function<void(const Key &)>;

    static constexpr int kWidth = 8;
    static constexpr int kHeight = 2;
    /** PEs per column strip of a threads=4 run. */
    static constexpr uint32_t kStrip = 2 * kHeight;

    explicit KeyLog(int threads)
        : sim_(ArchParams::wse3(), kWidth, kHeight, withThreads(threads)),
          created_(sim_.hostId() + 1), ran_(sim_.hostId() + 1)
    {
    }

    Simulator &sim() { return sim_; }
    uint32_t host() const { return sim_.hostId(); }
    /** Executed keys, per owner (host last). */
    const std::vector<std::vector<Key>> &ran() const { return ran_; }
    /** Executed keys in run order (one shard only). */
    const std::vector<Key> &order() const { return order_; }

    /** Keep a follow-up alive for the log's lifetime. */
    const Then *
    keep(Then then)
    {
        thens_.push_back(std::move(then));
        return &thens_.back();
    }

    /** Add an event owned by `owner` at `at`, created by `creator` (the
     *  host outside a run, else the running event's owner). */
    void
    add(uint32_t creator, uint32_t owner, Cycles at,
        const Then *then = nullptr)
    {
        const Key key{at, owner, creator, created_[creator]++};
        sim_.scheduleOnPe(
            owner, at,
            [this, key, then] {
                EXPECT_EQ(sim_.now(), key.at);
                ran_[key.owner].push_back(key);
                if (sim_.shardCount() == 1)
                    order_.push_back(key);
                if (then)
                    (*then)(key);
            },
            sim_.currentShard());
    }

    /** Every owner ran its keys in key order (and, with one shard, the
     *  whole run did). */
    void
    expectKeyOrder() const
    {
        auto ascending = [](const std::vector<Key> &keys) {
            return std::adjacent_find(keys.begin(), keys.end(),
                                      [](const Key &x, const Key &y) {
                                          return !(x < y);
                                      }) == keys.end();
        };
        for (const std::vector<Key> &keys : ran_)
            EXPECT_TRUE(ascending(keys));
        EXPECT_TRUE(ascending(order_));
    }

  private:
    Simulator sim_;
    /** Creations per creator (written only on the creator's shard). */
    std::vector<uint64_t> created_;
    std::vector<std::vector<Key>> ran_;
    std::vector<Key> order_;
    std::deque<Then> thens_;
};

/** Runs `scenario` on one shard and on four: both must run every key
 *  in order, and every owner the same keys. */
template <typename Scenario>
void
expectKeyOrderOnOneAndFourShards(Scenario scenario, size_t events)
{
    KeyLog seq(1);
    KeyLog par(4);
    ASSERT_EQ(par.sim().shardCount(), 4);
    scenario(seq);
    scenario(par);
    EXPECT_EQ(seq.sim().runWithReport().outcome, wse::SimOutcome::Completed);
    EXPECT_EQ(par.sim().runWithReport().outcome, wse::SimOutcome::Completed);
    EXPECT_EQ(seq.order().size(), events);
    seq.expectKeyOrder();
    par.expectKeyOrder();
    EXPECT_EQ(seq.ran(), par.ran());
    EXPECT_EQ(seq.sim().stats(), par.sim().stats());
}

TEST(SimulatorTest, OneOwnersSameCycleEventsRunInCreatorOrder)
{
    // Owner base+1 of every strip gets a host-created event at cycle
    // 100, then one from creator base+3 (pushed at cycle 10) and one
    // from the lower creator base (pushed at cycle 20): push order is
    // the reverse of key order. Every other PE and the host get an
    // event at 100 too, so the cycle is large enough for the owner
    // counting sort on one shard and on four.
    constexpr Cycles kAt = 100;
    expectKeyOrderOnOneAndFourShards(
        [](KeyLog &log) {
            const KeyLog::Then *toBelow =
                log.keep([&log](const KeyLog::Key &k) {
                    log.add(k.owner, k.owner - 2, kAt);
                });
            const KeyLog::Then *toAbove =
                log.keep([&log](const KeyLog::Key &k) {
                    log.add(k.owner, k.owner + 1, kAt);
                });
            for (uint32_t owner = 0; owner <= log.host(); ++owner)
                log.add(log.host(), owner, kAt);
            for (uint32_t base = 0; base < log.host();
                 base += KeyLog::kStrip) {
                log.add(log.host(), base + 3, 10, toBelow);
                log.add(log.host(), base, 20, toAbove);
            }
        },
        17 + 4 * 4);
}

TEST(SimulatorTest, CyclesThatShareALowBitPatternStayOneCycle)
{
    // Three live cycles 1024 apart (the queue's cycle lookup is direct
    // mapped on the low bits), with pushes alternating between them:
    // from the host in descending owner order, then from every PE,
    // higher creators first (they run at earlier cycles), each to its
    // own strip. Each cycle must still run as one ordered batch.
    constexpr Cycles kAt[] = {5000, 5000 + 1024, 5000 + 3 * 1024};
    expectKeyOrderOnOneAndFourShards(
        [&kAt](KeyLog &log) {
            const KeyLog::Then *spread =
                log.keep([&log, &kAt](const KeyLog::Key &k) {
                    const uint32_t base = k.owner / KeyLog::kStrip *
                                          KeyLog::kStrip;
                    for (uint32_t i = 0; i < KeyLog::kStrip; ++i)
                        for (Cycles at : kAt)
                            log.add(k.owner, base + (k.owner + i) %
                                                        KeyLog::kStrip,
                                    at);
                });
            for (uint32_t owner = log.host(); owner-- > 0;)
                for (Cycles at : kAt)
                    log.add(log.host(), owner, at);
            for (uint32_t pe = 0; pe < log.host(); ++pe)
                log.add(log.host(), pe, 100 + log.host() - pe, spread);
        },
        16 * 3 + 16 * (1 + 4 * 3));
}

TEST(SimulatorTest, EventRecordsStayPutWhileTheirCallbackSchedules)
{
    // One callback schedules thousands of events, so the event store
    // grows by several record chunks while the callback runs from its
    // own record; its captures must stay intact (ASan checks that the
    // record did not move).
    for (int threads : {1, 4}) {
        Simulator sim(ArchParams::wse3(), 8, 2, withThreads(threads));
        const std::array<uint64_t, 4> magic = {0x5eed, 0xbeef, 0xf00d, 42};
        uint64_t ran = 0;
        uint64_t checked = 0;
        sim.schedule(1, [&sim, &ran, &checked, magic] {
            for (int i = 0; i < 3000; ++i)
                sim.schedule(2 + i % 3, [&ran] { ran++; });
            EXPECT_EQ(magic, (std::array<uint64_t, 4>{0x5eed, 0xbeef,
                                                      0xf00d, 42}));
            checked = magic[0] + magic[3];
        });
        EXPECT_EQ(sim.runWithReport().outcome, wse::SimOutcome::Completed);
        EXPECT_EQ(ran, 3000u);
        EXPECT_EQ(checked, 0x5eedu + 42);
        EXPECT_EQ(sim.stats().eventsProcessed, 3001u);
    }
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
