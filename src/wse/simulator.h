/**
 * @file
 * Event-driven simulator for a (sub-)grid of WSE processing elements,
 * shardable across threads.
 *
 * The PE grid is partitioned into min(SimOptions::threads, width)
 * balanced column strips. PE indices are x-major, so each strip owns
 * one contiguous range of dense PE ids. Each shard owns its own event
 * queue (one bin per pending cycle, ordered once when the cycle
 * drains), event records, payload ring and statistics, so the hot
 * schedule/dispatch paths are entirely shard-local and lock-free.
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
 * The schedule/run path is allocation-free in steady state: each
 * callback is constructed once, in place, in an event record that
 * never moves, and is invoked there; records and cycle bins are
 * recycled.
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
        emplace(std::forward<F>(fn));
    }

    /** Replace the held callable with `fn`, constructed in place (an
     *  EventCallback rvalue is moved in). */
    template <typename F>
    void
    emplace(F &&fn)
    {
        using Fn = std::decay_t<F>;
        if constexpr (std::is_same_v<Fn, EventCallback>) {
            static_assert(!std::is_lvalue_reference_v<F>,
                          "an EventCallback can only be moved in");
            *this = std::move(fn);
        } else {
            static_assert(sizeof(Fn) <= kInlineSize,
                          "event callbacks must fit "
                          "EventCallback::kInlineSize");
            static_assert(alignof(Fn) <= alignof(std::max_align_t),
                          "event callbacks must not be over-aligned");
            // Moves between cross-shard mailboxes are a noexcept path.
            static_assert(std::is_nothrow_move_constructible_v<Fn>,
                          "event callbacks must be nothrow-movable");
            reset();
            new (storage_) Fn(std::forward<F>(fn));
            ops_ = &InlineOps<Fn>::ops;
        }
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
     * the ordering key is the currently executing event's owner. `fn`
     * is constructed in place in the event's record.
     */
    template <typename F>
    void
    push(uint32_t owner, Cycles at, F &&fn)
    {
        pushKeyed(packKey(owner, currentOwner_), nextSeq_++, at,
                  std::forward<F>(fn));
    }

    int index() const { return index_; }

  private:
    friend class Simulator;

    /**
     * One scheduled event. Ordered by (cycle, owner, creator, seq):
     * owner and creator are packed into one word (owner in the high
     * half) so the deterministic tie-break is two integer compares.
     * `seq` is the creating shard's monotone counter — only compared
     * between events of the same creator, whose creations are totally
     * ordered within one shard, so the key is independent of the shard
     * count. The cycle is the bin the record is queued in. Records live
     * in fixed chunks and never move: the callback is constructed here
     * once and invoked in place.
     */
    struct Event
    {
        uint64_t ownerCreator = 0;
        uint64_t seq = 0;
        EventCallback cb;
    };

    /** Records per chunk of the event store. */
    static constexpr uint32_t kChunkShift = 10;
    static constexpr uint32_t kChunkSize = uint32_t{1} << kChunkShift;

    /** A queued event: its owner (the counting-sort key) and record. */
    struct BinEntry
    {
        uint32_t owner;
        uint32_t event;
    };

    /** The events of one pending cycle, in push order. */
    struct Bin
    {
        Cycles at = 0;
        std::vector<BinEntry> entries;
    };

    static constexpr uint32_t kNoBin = UINT32_MAX;

    /** The heap order of binHeap_: the least cycle on top. */
    auto
    laterBin() const
    {
        return [this](uint32_t a, uint32_t b) {
            return bins_[a].at > bins_[b].at;
        };
    }

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

    /** The same-cycle order: (owner, creator, seq). */
    static bool
    before(const Event &a, const Event &b)
    {
        if (a.ownerCreator != b.ownerCreator)
            return a.ownerCreator < b.ownerCreator;
        return a.seq < b.seq;
    }

    Event &
    event(uint32_t idx)
    {
        return chunks_[idx >> kChunkShift][idx & (kChunkSize - 1)];
    }
    const Event &
    event(uint32_t idx) const
    {
        return chunks_[idx >> kChunkShift][idx & (kChunkSize - 1)];
    }

    template <typename F>
    void
    pushKeyed(uint64_t ownerCreator, uint64_t seq, Cycles at, F &&fn)
    {
        if (at < now_)
            pastPanic(at);
        const uint32_t idx = newEvent(ownerCreator, seq);
        event(idx).cb.emplace(std::forward<F>(fn));
        enqueue(at, idx);
    }

    /** Panics: `at` lies before now_. */
    [[noreturn]] void pastPanic(Cycles at) const;
    /** A free record holding the key (its callback is empty). */
    uint32_t newEvent(uint64_t ownerCreator, uint64_t seq);
    /** Queue a filled record at cycle `at`. */
    void enqueue(Cycles at, uint32_t idx);
    /** The live bin of cycle `at` (> base_), opened if there is none. */
    Bin &binAt(Cycles at);
    /** Sift within late_, the 4-ary heap of draining-cycle pushes. */
    void siftUp(size_t i);
    void siftDown(size_t i);
    bool
    drainingEmpty() const
    {
        return batchHead_ == batch_.size() && late_.empty();
    }
    bool queueEmpty() const { return drainingEmpty() && binHeap_.empty(); }
    /** Smallest queued cycle; the queue must not be empty. */
    Cycles minAt() const;
    /** Make the least pending cycle below `end` the draining cycle:
     *  false (and nothing moved) when no bin lies below `end`. Requires
     *  an empty draining cycle. */
    bool advance(Cycles end);
    /** Order a drained bin's entries into batch_. */
    void orderBatch(const std::vector<BinEntry> &entries);
    /** Remove and return the record of the least event of the draining
     *  cycle. */
    uint32_t popDraining();
    /** Visit the owner of every queued event (diagnosis only). */
    template <typename F>
    void
    forEachQueuedOwner(F &&visit) const
    {
        for (size_t i = batchHead_; i < batch_.size(); ++i)
            visit(batch_[i].owner);
        for (uint32_t idx : late_)
            visit(static_cast<uint32_t>(event(idx).ownerCreator >> 32));
        for (uint32_t b : binHeap_)
            for (const BinEntry &entry : bins_[b].entries)
                visit(entry.owner);
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
    /** This shard's PE ids are [ownerLo_, ownerLo_ + ownerSpan_ - 1);
     *  the last counting-sort slot is the host's. */
    uint32_t ownerLo_ = 0;
    uint32_t ownerSpan_ = 1;
    /**
     * Event records, kChunkSize per chunk (chunks never move), recycled
     * through freeEvents_; usedEvents_ records have ever been handed
     * out.
     */
    std::vector<std::unique_ptr<Event[]>> chunks_;
    std::vector<uint32_t> freeEvents_;
    uint32_t usedEvents_ = 0;
    /**
     * The queue (docs/architecture.md §4, "The event queue"). base_ is
     * the draining cycle (<= now_). Its events are batch_[batchHead_..],
     * in key order, plus late_, a 4-ary min-heap of records pushed at
     * base_ after the batch was ordered. An event with at > base_ waits
     * in push order in the bin of its cycle. binHeap_ is a binary
     * min-heap (on Bin::at) of the live bins' indices into bins_;
     * freeBins_ are drained bins kept with their capacity. binHint_
     * maps a cycle's low bits to the live bin last found for them.
     */
    Cycles base_ = 0;
    std::vector<BinEntry> batch_;
    size_t batchHead_ = 0;
    std::vector<uint32_t> late_;
    std::vector<Bin> bins_;
    std::vector<uint32_t> binHeap_;
    std::vector<uint32_t> freeBins_;
    static constexpr size_t kHintSize = 1024;
    std::array<uint32_t, kHintSize> binHint_;
    /** Counting-sort slot counts (ownerSpan_ + 1), reused per cycle. */
    std::vector<uint32_t> counts_;
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
     * allocation (`fn` is constructed in place in an event record).
     * Host-side calls land on shard 0; calls from inside an event run
     * on the scheduling event's shard (FIFO per creator at equal
     * cycles).
     */
    template <typename F>
    void
    schedule(Cycles at, F &&fn)
    {
        // Generic events stay on the scheduling shard, owned by the
        // creating event's owner (FIFO per creator at equal cycles).
        if (Shard *cur = currentShard())
            cur->push(cur->currentOwner_, at, std::forward<F>(fn));
        else
            shards_.front()->push(hostId(), at, std::forward<F>(fn));
    }

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
     * queue at the next window barrier. Host-context events draw their
     * sequence from one shared counter, so their relative order is
     * thread-count independent.
     */
    template <typename F>
    void
    scheduleOnPe(uint32_t owner, Cycles at, F &&fn, Shard *from)
    {
        Shard &target = shardOfPe(owner);
        if (from == nullptr) {
            target.pushKeyed(Shard::packKey(owner, hostId()),
                             shards_.front()->nextSeq_++, at,
                             std::forward<F>(fn));
            return;
        }
        const uint64_t key = Shard::packKey(owner, from->currentOwner_);
        if (from == &target)
            target.pushKeyed(key, from->nextSeq_++, at, std::forward<F>(fn));
        else
            mail(*from, target, at, key, EventCallback(std::forward<F>(fn)));
    }
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
    /** Queue a cross-shard event in `from`'s outbox lane to `target`. */
    void mail(Shard &from, Shard &target, Cycles at, uint64_t ownerCreator,
              EventCallback fn);
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
