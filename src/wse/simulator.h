/**
 * @file
 * Event-driven simulator for a (sub-)grid of WSE processing elements,
 * shardable across threads.
 *
 * The PE grid is partitioned into min(SimOptions::threads, width)
 * balanced column strips. PE indices are x-major, so each strip owns
 * one contiguous range of dense PE ids. Each shard owns its own radix
 * event queue (cycle buckets, one sort per simulated cycle), callback
 * slot pool, payload ring and statistics, so the hot schedule/dispatch
 * paths are entirely shard-local and lock-free.
 *
 * Every run uses one loop of conservative lock-step windows: every
 * event that crosses a strip boundary (a fabric stream segment handed
 * to the E/W neighbour strip) carries at least the fabric hop latency,
 * so all shards can safely execute the window [globalMin, globalMin +
 * hopCycles) in parallel. A lone shard has no cross-shard events and
 * runs one unbounded window. Cross-shard events travel through
 * per-pair SPSC outboxes that are drained into the target queues at the
 * window barrier (the barrier itself provides the memory
 * synchronisation, so the mailboxes are plain vectors).
 *
 * Worker w runs exactly shard w for the whole run.
 *
 * Determinism: events are ordered by (cycle, owner PE, creator PE,
 * per-creator sequence). The owner is the PE whose state the event
 * mutates (all mutable simulator state is owner-partitioned), the
 * creator is the PE whose event scheduled it, and the sequence numbers
 * each creator's creations. This key is independent of thread
 * interleaving and of where the strip boundaries fall, so a threads=N
 * run is cycle-identical and SimStats-identical to the threads=1 run —
 * pinned by the `sharded` test suite and the golden cycle counts.
 *
 * The schedule/run path is allocation-free in steady state: an event is
 * a POD key in a reused queue vector, and its callback lives in a
 * small-buffer EventCallback slot recycled through a free list.
 *
 * Timing model (docs/architecture.md §3, "Timing model"): each PE has
 * a single work timeline on which task execution, DSD compute and ramp
 * data transfers serialize — justified by the shared memory ports
 * (128-bit read + 64-bit write per cycle) that all of these contend
 * for. Transfers between PEs proceed concurrently across the fabric.
 */

#ifndef WSC_WSE_SIMULATOR_H
#define WSC_WSE_SIMULATOR_H

#include <array>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <new>
#include <string>
#include <type_traits>
#include <unordered_set>
#include <utility>
#include <vector>

#include "wse/arch_params.h"
#include "wse/fabric.h"
#include "wse/fault.h"
#include "wse/payload.h"
#include "wse/pe.h"

namespace wsc::wse {

/** Aggregate statistics across a simulation: one set per shard,
 *  summed by Simulator::stats(). */
struct SimStats
{
    uint64_t eventsProcessed = 0;
    uint64_t waveletsSent = 0;
    uint64_t taskActivations = 0;
    uint64_t dsdOps = 0;
    uint64_t flops = 0;
    /** Local-memory traffic of DSD ops (reads + writes). */
    uint64_t memBytes = 0;

    /// @name Injected faults and their consequences (wse/fault.h)
    /// All 0 on a run without a FaultPlan or exchange watchdog.
    /// @{
    /** Streams killed by a dead link (injection- or mid-path). */
    uint64_t streamsDroppedByLinks = 0;
    /** Streams killed by a targeted payload-loss fault. */
    uint64_t payloadsDropped = 0;
    /** Streams whose payload was corrupted before injection. */
    uint64_t payloadsCorrupted = 0;
    /** Exchange-timeout checks that found an incomplete exchange
     *  (each either re-arms with backoff or degrades). */
    uint64_t exchangeTimeouts = 0;
    /** Exchanges abandoned after the retry budget: missing sections
     *  zero-filled and the owning PE marked degraded. */
    uint64_t exchangesDegraded = 0;
    /// @}

    bool operator==(const SimStats &) const = default;
};

/** Execution options of one Simulator instance. */
struct SimOptions
{
    /**
     * Worker threads, one per column strip. 1 (the default) runs one
     * shard in one unbounded window on the calling thread; higher
     * values run lock-step conservative windows over several strips
     * with identical (cycle- and stats-identical) results. Clamped to
     * [1, width] — a strip is at least one PE column wide.
     */
    int threads = 1;

    /** Faults to inject (wse/fault.h). Empty injects nothing and keeps
     *  the run bit-identical to a simulator without this member. */
    FaultPlan faults;

    /**
     * StarComm watchdog: cycles an exchange may sit incomplete before
     * its timeout fires. 0 (the default) disables the watchdog — a
     * neighbour halted mid-exchange then deadlocks the dependent PEs
     * (diagnosed, not hung). Non-zero arms bounded retry/backoff ending
     * in a degraded (zero-filled) exchange.
     */
    Cycles exchangeTimeoutCycles = 0;
};

/**
 * Scheduler-level counters of the most recent run (merged across
 * shards by Simulator::telemetry()). These describe HOW the run was
 * executed — windows, allocation behaviour — never WHAT it computed;
 * every field may vary with the thread count while the simulation
 * results stay bit-identical.
 */
struct ShardingTelemetry
{
    /** Barrier windows executed (a lone shard runs one unbounded
     *  window per run). */
    uint64_t windows = 0;
    /** Shard-windows executed (shards with work inside a window). */
    uint64_t shardWindowsRun = 0;
    /** Always 0 (no work stealing); kept because perfbench reads it. */
    uint64_t steals = 0;
    /** Cross-shard outbox lane growths (capacity reallocations). Steady
     *  state is 0: lanes are cleared, never shrunk, between windows. */
    uint64_t outboxReallocs = 0;
};

/**
 * Everything a caller can observe about one finished run; returned by
 * Simulator::runWithReport().
 */
struct SimReport
{
    SimOutcome outcome = SimOutcome::Completed;
    Cycles finalCycle = 0;
    SimStats stats;
    /** Dense PE ids whose halt threshold lies within the run (sorted). */
    std::vector<uint32_t> haltedPes;
    /** Dense PE ids that finished with a degraded (zero-filled)
     *  exchange (sorted, deduplicated). */
    std::vector<uint32_t> degradedPes;
    /** Populated whenever outcome != Completed. */
    SimDiagnosis diagnosis;

    /** True when every non-faulted PE ran to completion. */
    bool
    ok() const
    {
        return outcome == SimOutcome::Completed ||
               outcome == SimOutcome::Degraded;
    }
};

/**
 * A move-only callable stored in place in a kInlineSize-byte buffer, so
 * the schedule path never allocates. A callable that does not fit is a
 * compile error: capture by reference or through a pointer instead.
 * Dispatch goes through a static per-type ops table (tagged dispatch
 * without per-instance virtual objects).
 */
class EventCallback
{
  public:
    /** Sized to hold every simulator-internal callback inline (the
     *  largest is a fabric stream segment). */
    static constexpr size_t kInlineSize = 64;

    EventCallback() = default;

    template <typename F,
              typename = std::enable_if_t<
                  !std::is_same_v<std::decay_t<F>, EventCallback>>>
    EventCallback(F &&fn) // NOLINT: implicit by design (schedule sites)
    {
        using Fn = std::decay_t<F>;
        static_assert(sizeof(Fn) <= kInlineSize,
                      "event callbacks must fit EventCallback::kInlineSize");
        static_assert(alignof(Fn) <= alignof(std::max_align_t),
                      "event callbacks must not be over-aligned");
        // Slot-pool relocation is a noexcept path.
        static_assert(std::is_nothrow_move_constructible_v<Fn>,
                      "event callbacks must be nothrow-movable");
        new (storage_) Fn(std::forward<F>(fn));
        ops_ = &InlineOps<Fn>::ops;
    }

    EventCallback(EventCallback &&other) noexcept { moveFrom(other); }

    EventCallback &
    operator=(EventCallback &&other) noexcept
    {
        if (this != &other) {
            reset();
            moveFrom(other);
        }
        return *this;
    }

    EventCallback(const EventCallback &) = delete;
    EventCallback &operator=(const EventCallback &) = delete;

    ~EventCallback() { reset(); }

    explicit operator bool() const { return ops_ != nullptr; }

    void
    operator()()
    {
        ops_->invoke(storage_);
    }

    void
    reset()
    {
        if (ops_) {
            ops_->destroy(storage_);
            ops_ = nullptr;
        }
    }

  private:
    struct Ops
    {
        void (*invoke)(void *);
        /** Move-construct into dst from src, then destroy src. */
        void (*relocate)(void *dst, void *src);
        void (*destroy)(void *);
    };

    template <typename Fn>
    struct InlineOps
    {
        static void
        invoke(void *p)
        {
            (*static_cast<Fn *>(p))();
        }
        static void
        relocate(void *dst, void *src)
        {
            Fn *s = static_cast<Fn *>(src);
            new (dst) Fn(std::move(*s));
            s->~Fn();
        }
        static void
        destroy(void *p)
        {
            static_cast<Fn *>(p)->~Fn();
        }
        static constexpr Ops ops = {invoke, relocate, destroy};
    };

    void
    moveFrom(EventCallback &other)
    {
        ops_ = other.ops_;
        if (ops_) {
            ops_->relocate(storage_, other.storage_);
            other.ops_ = nullptr;
        }
    }

    alignas(std::max_align_t) unsigned char storage_[kInlineSize];
    const Ops *ops_ = nullptr;
};

class Simulator;

/**
 * One shard (column strip): a private event queue plus the per-shard
 * resources its PEs touch on the hot path (stats, payload ring). All
 * members are accessed only by the shard's one worker, by the barrier
 * completion step while every worker is parked, or by the host thread
 * while no run is active.
 * Cross-shard event creation goes through the outboxes, drained at
 * window barriers.
 */
class Shard
{
  public:
    Shard(Simulator &sim, int index);
    Shard(const Shard &) = delete;
    Shard &operator=(const Shard &) = delete;

    /** Local simulation time (== global time at window barriers). */
    Cycles now() const { return now_; }

    /** Shard-local statistics (summed by Simulator::stats()). Mutated
     *  only by events owned by this shard's PEs. */
    SimStats &stats() { return stats_; }

    /** Shard-local payload ring (see wse/payload.h). */
    PayloadPool &payloadPool() { return payloadPool_; }

    /**
     * Schedule an event owned by `owner` (a PE of this shard, or the
     * host id) at absolute cycle `at` (>= now). The creator recorded in
     * the ordering key is the currently executing event's owner.
     */
    void push(uint32_t owner, Cycles at, EventCallback fn);

    int index() const { return index_; }

  private:
    friend class Simulator;

    /**
     * Queue entry: POD, so bucket moves, sorts and sifts copy 32 bytes,
     * never the callback. Ordered by (at, owner, creator, seq): owner
     * and creator are packed into one word (owner in the high half) so
     * the deterministic tie-break is two integer compares. `seq` is the
     * creating shard's monotone counter — only compared between events
     * of the same creator, whose creations are totally ordered within
     * one shard, so the key is independent of the shard count. The
     * queue's buckets read only `at`; before() orders each cycle.
     * `slot` indexes the callback slot pool.
     */
    struct EventKey
    {
        Cycles at;
        uint64_t ownerCreator;
        uint64_t seq;
        uint32_t slot;
    };

    /** A cross-shard event in flight (drained at window barriers). */
    struct MailEntry
    {
        Cycles at;
        uint64_t ownerCreator;
        uint64_t seq;
        EventCallback cb;
    };

    static uint64_t
    packKey(uint32_t owner, uint32_t creator)
    {
        return (static_cast<uint64_t>(owner) << 32) | creator;
    }

    static bool
    before(const EventKey &a, const EventKey &b)
    {
        if (a.at != b.at)
            return a.at < b.at;
        if (a.ownerCreator != b.ownerCreator)
            return a.ownerCreator < b.ownerCreator;
        return a.seq < b.seq;
    }

    void pushKeyed(uint64_t ownerCreator, uint64_t seq, Cycles at,
                   EventCallback fn);
    /** Sift within late_, the 4-ary heap of draining-cycle pushes. */
    void siftUp(size_t i);
    void siftDown(size_t i);
    bool
    queueEmpty() const
    {
        return batch_.empty() && late_.empty() && nonEmpty_ == 0;
    }
    /** Smallest queued cycle; the queue must not be empty. */
    Cycles minAt() const;
    /** File a key with at > base_ into its bucket. */
    void pushLater(const EventKey &key);
    /** Make the next cycle below `end` the draining cycle: false (and
     *  nothing moved) when no queued key lies below `end`. Requires an
     *  empty draining cycle. */
    bool advance(Cycles end);
    /** Remove and return the least key of the draining cycle. */
    EventKey popDraining();
    /** Visit every queued key (diagnosis only). */
    template <typename F>
    void
    forEachQueued(F &&visit) const
    {
        for (const EventKey &key : batch_)
            visit(key);
        for (const EventKey &key : late_)
            visit(key);
        for (const std::vector<EventKey> &bucket : buckets_)
            for (const EventKey &key : bucket)
                visit(key);
    }
    /** Execute events with at < end; returns early (leaving events
     *  queued) once the budget is spent — the caller diagnoses. */
    void runWindow(Cycles end, uint64_t maxEvents);

    Simulator *sim_;
    int index_;
    /** Declared before the queues: queued callbacks may hold
     *  PayloadRefs, so the pool must outlive them on destruction
     *  (cross-shard refs are drained by ~Simulator first). */
    PayloadPool payloadPool_;
    SimStats stats_;
    Cycles now_ = 0;
    /** Owner of the event currently executing (host id when idle);
     *  recorded as the creator of events it schedules. */
    uint32_t currentOwner_;
    /**
     * Radix queue on the deterministic key (docs/architecture.md §4,
     * "The event queue"). base_ is the draining cycle (<= now_). Its
     * keys are batch_, sorted descending so the least is at the back,
     * plus late_, a 4-ary min-heap of keys pushed at base_ after the
     * batch was formed. A key with at > base_ waits unsorted in
     * buckets_[bit_width(at ^ base_) - 1]; bit b of nonEmpty_ is set
     * while buckets_[b] holds keys.
     */
    Cycles base_ = 0;
    std::vector<EventKey> batch_;
    std::vector<EventKey> late_;
    std::array<std::vector<EventKey>, 64> buckets_;
    uint64_t nonEmpty_ = 0;
    /** Callback slot pool; slots are recycled through freeSlots_. */
    std::vector<EventCallback> slots_;
    std::vector<uint32_t> freeSlots_;
    /** Monotone creation counter (per-creator sequence source). */
    uint64_t nextSeq_ = 0;
    /** Outgoing cross-shard events, one lane per destination shard. */
    std::vector<std::vector<MailEntry>> outbox_;
    /** Events executed in the current run (budget accounting). */
    uint64_t processed_ = 0;
    /** Outbox lane capacity growths (ShardingTelemetry). */
    uint64_t outboxReallocs_ = 0;
    /** PEs of this shard that degraded an exchange (unsorted; merged
     *  and sorted into SimReport::degradedPes). */
    std::vector<uint32_t> degradedPes_;
};

/** Owns the PE grid, fabric, and the shard set. */
class Simulator
{
  public:
    /**
     * Build a simulator over a width x height PE sub-grid using the given
     * architecture parameters. The sub-grid must fit the fabric.
     */
    Simulator(const ArchParams &params, int width, int height,
              SimOptions options = {});
    ~Simulator();
    Simulator(const Simulator &) = delete;
    Simulator &operator=(const Simulator &) = delete;

    const ArchParams &params() const { return params_; }
    int width() const { return width_; }
    int height() const { return height_; }
    /** Column strips the grid is partitioned into; worker w runs
     *  strip w. */
    int shardCount() const { return static_cast<int>(shards_.size()); }
    /** The options this simulator was built with (threads clamped to
     *  [1, width]). */
    const SimOptions &options() const { return options_; }

    /** Scheduler counters of the most recent run (merged on call).
     *  Execution-shape only — never part of the determinism contract. */
    ShardingTelemetry telemetry() const;

    Pe &pe(int x, int y);
    Fabric &fabric() { return *fabric_; }

    /**
     * Intern a task, buffer or scalar name into this simulator's name
     * pool (thread-safe). A program resolves each name once and hands
     * the PeName to every PE, which then stores and compares pointers.
     */
    PeName internName(const std::string &name);

    /** Aggregate statistics, summed across shards on each call
     *  (subsystems accumulate into their shard's stats). */
    SimStats stats() const;

    /** Total wavelet-hops carried by the fabric: the merged
     *  SimStats::waveletsSent (one wavelet per link crossed). */
    uint64_t fabricHops() const;

    /**
     * Current simulation time: the executing shard's clock from inside
     * an event callback, the final global clock otherwise.
     */
    Cycles now() const;

    /**
     * Schedule `fn` at absolute cycle `at` (>= now), without heap
     * allocation (EventCallback stores it in place). Host-side calls
     * land on shard 0; calls from inside an event run on the scheduling
     * event's shard (FIFO per creator at equal cycles).
     */
    void schedule(Cycles at, EventCallback fn);

    /**
     * Run until the event queue drains and classify how it ended:
     * Completed, Degraded (faulted PEs left partial results, everyone
     * else finished), Deadlock (a non-halted PE can never progress), or
     * EventBudgetExceeded. Never throws on any of those outcomes — the
     * returned report carries the diagnosis. An exception thrown by an
     * event callback (a task panic, a fatal) propagates to the caller.
     */
    SimReport runWithReport(uint64_t maxEvents = UINT64_MAX);

    /**
     * A quiescence probe reports obligations that survive an empty
     * event queue (an exchange still waiting for data, a program that
     * never returned control to the host). Probes run when the queues
     * drain; any obligation on a non-halted PE classifies the run as
     * Deadlock rather than Completed/Degraded. The probe owner must
     * outlive every subsequent run of this simulator.
     */
    using QuiescenceProbe =
        std::function<void(std::vector<BlockedPeInfo> &)>;
    void addQuiescenceProbe(QuiescenceProbe probe);

    /** Record a PE that finished with degraded results. Must be called
     *  from an event owned by that PE (its shard's context). */
    void noteDegradedPe(uint32_t peId);

    /// @name Internal scheduling surface (Pe / Fabric)
    /// @{
    /** Dense PE index of (x, y). */
    uint32_t
    peIndex(int x, int y) const
    {
        return static_cast<uint32_t>(x) * static_cast<uint32_t>(height_) +
               static_cast<uint32_t>(y);
    }
    /** The host's creator/owner id (orders host events after PEs). */
    uint32_t hostId() const { return numPes_; }
    /** Shard owning a PE (or shard 0 for the host id). */
    Shard &shardOfPe(uint32_t peIdx);
    /**
     * Schedule an event owned by `owner` from the execution context of
     * `from` (nullptr for the host). Same-shard events push directly;
     * cross-shard events go through `from`'s outbox and join the target
     * heap at the next window barrier. Host-context events draw their
     * sequence from one shared counter, so their relative order is
     * thread-count independent.
     */
    void scheduleOnPe(uint32_t owner, Cycles at, EventCallback fn,
                      Shard *from);
    /** The shard executing on this thread, or nullptr on the host.
     *  THE value to pass as `from`: using a PE's home shard instead
     *  would draw host-event sequence numbers from per-shard counters
     *  and break the determinism key. */
    Shard *currentShard() const;
    /// @}

  private:
    friend class Shard;

    /** Run lock-step windows until the queues drain. Returns true when
     *  the run stopped on the event budget with events still queued
     *  (classified by runWithReport). */
    bool runWindows(uint64_t maxEvents);
    Cycles finishRun();

    /** Push the fault plan's PE thresholds / fabric tables out. */
    void applyFaultPlan();
    /** Run the quiescence probes and mark halted PEs. */
    void collectBlockedPes(std::vector<BlockedPeInfo> &out);
    /** Build the structured post-mortem of the current state. */
    SimDiagnosis diagnose(SimOutcome outcome, uint64_t budget,
                          std::vector<BlockedPeInfo> blocked);

    ArchParams params_;
    SimOptions options_;
    int width_;
    int height_;
    uint32_t numPes_;
    /** Conservative window length: the minimum cross-shard latency. */
    Cycles lookahead_;
    /** Global clock outside of a run (max shard clock after a run). */
    Cycles finalNow_ = 0;
    std::vector<std::unique_ptr<Shard>> shards_;
    /** Strip (shard index) of each PE column. */
    std::vector<int> stripOfCol_;
    /** Barrier-window counters of the current run (completion-step
     *  writes, barrier-ordered). */
    uint64_t windowCount_ = 0;
    uint64_t shardWindowsRun_ = 0;
    /** Interned PE names (internName); nodes never move, so PeName
     *  pointers stay valid for the simulator's lifetime. */
    std::mutex namePoolMutex_;
    std::unordered_set<std::string> namePool_;
    std::vector<std::unique_ptr<Pe>> pes_;
    std::unique_ptr<Fabric> fabric_;
    /** Registered quiescence probes (run at queue drain). */
    std::vector<QuiescenceProbe> probes_;
};

} // namespace wsc::wse

#endif // WSC_WSE_SIMULATOR_H
