#include "wse/simulator.h"

#include <algorithm>
#include <atomic>
#include <barrier>
#include <bit>
#include <cstdlib>
#include <exception>
#include <mutex>
#include <thread>
#include <unordered_map>

#include "support/env.h"
#include "support/error.h"

namespace wsc::wse {

namespace {

/** Initial capacity of each shard's cycle batch and callback slot
 *  pool. */
constexpr size_t kInitialQueueCapacity = 1024;

/** A redistributed bucket keeps at most this many keys of capacity. */
constexpr size_t kBucketKeepCapacity = 2048;

/** Execution context of the current thread (nested runs unsupported). */
struct TlsContext
{
    const Simulator *sim = nullptr;
    Shard *shard = nullptr;
};
thread_local TlsContext tlsCur;

/** RAII setter for the thread's execution context. */
struct TlsGuard
{
    TlsGuard(const Simulator *sim, Shard *shard)
    {
        tlsCur = {sim, shard};
    }
    ~TlsGuard() { tlsCur = {}; }
};

} // namespace

//===----------------------------------------------------------------------===
// Shard
//===----------------------------------------------------------------------===

Shard::Shard(Simulator &sim, int index)
    : sim_(&sim), index_(index), currentOwner_(sim.hostId())
{
    batch_.reserve(kInitialQueueCapacity);
    slots_.reserve(kInitialQueueCapacity);
    freeSlots_.reserve(kInitialQueueCapacity);
}

// late_ is a 4-ary min-heap: half the depth of a binary heap, and the
// four children a sift-down compares are adjacent in memory. Keys are
// unique (each creator draws seq from one shard's monotone counter), so
// the pop order is exactly the total order before().
constexpr size_t kHeapArity = 4;

void
Shard::siftUp(size_t i)
{
    EventKey key = late_[i];
    while (i > 0) {
        size_t parent = (i - 1) / kHeapArity;
        if (!before(key, late_[parent]))
            break;
        late_[i] = late_[parent];
        i = parent;
    }
    late_[i] = key;
}

void
Shard::siftDown(size_t i)
{
    const size_t n = late_.size();
    EventKey key = late_[i];
    for (;;) {
        size_t first = kHeapArity * i + 1;
        if (first >= n)
            break;
        size_t child = first;
        size_t last = std::min(first + kHeapArity, n);
        for (size_t c = first + 1; c < last; ++c)
            if (before(late_[c], late_[child]))
                child = c;
        if (!before(late_[child], key))
            break;
        late_[i] = late_[child];
        i = child;
    }
    late_[i] = key;
}

void
Shard::pushKeyed(uint64_t ownerCreator, uint64_t seq, Cycles at,
                 EventCallback fn)
{
    WSC_ASSERT(at >= now_, "scheduling into the past (at="
                               << at << ", now=" << now_ << ")");
    uint32_t slot;
    if (!freeSlots_.empty()) {
        slot = freeSlots_.back();
        freeSlots_.pop_back();
        slots_[slot] = std::move(fn);
    } else {
        slot = static_cast<uint32_t>(slots_.size());
        slots_.push_back(std::move(fn));
    }
    const EventKey key{at, ownerCreator, seq, slot};
    // now_ >= base_, so a key is never below the draining cycle.
    if (at == base_) {
        late_.push_back(key);
        siftUp(late_.size() - 1);
    } else {
        pushLater(key);
    }
}

void
Shard::pushLater(const EventKey &key)
{
    const int b = std::bit_width(key.at ^ base_) - 1;
    buckets_[static_cast<size_t>(b)].push_back(key);
    nonEmpty_ |= uint64_t{1} << b;
}

Cycles
Shard::minAt() const
{
    if (!batch_.empty() || !late_.empty())
        return base_;
    // Every key of a lower bucket is below every key of a higher one.
    const auto &bucket =
        buckets_[static_cast<size_t>(std::countr_zero(nonEmpty_))];
    Cycles m = bucket.front().at;
    for (const EventKey &key : bucket)
        m = std::min(m, key.at);
    return m;
}

bool
Shard::advance(Cycles end)
{
    if (nonEmpty_ == 0)
        return false;
    const Cycles m = minAt();
    if (m >= end)
        return false;
    // Bucket b's keys agree with m above bit b, so each one that is not
    // at m moves to a lower bucket; the higher buckets stay as they are.
    const int b = std::countr_zero(nonEmpty_);
    std::vector<EventKey> &bucket = buckets_[static_cast<size_t>(b)];
    base_ = m;
    nonEmpty_ &= ~(uint64_t{1} << b);
    for (const EventKey &key : bucket) {
        if (key.at == m)
            batch_.push_back(key);
        else
            pushLater(key);
    }
    // A bucket that held a dense horizon shrinks back to the kept
    // capacity rather than pinning its high-water mark for the run.
    bucket.clear();
    if (bucket.capacity() > kBucketKeepCapacity) {
        std::vector<EventKey> kept;
        kept.reserve(kBucketKeepCapacity);
        bucket.swap(kept);
    }
    std::sort(batch_.begin(), batch_.end(),
              [](const EventKey &x, const EventKey &y) {
                  return before(y, x);
              });
    return true;
}

Shard::EventKey
Shard::popDraining()
{
    if (!late_.empty() &&
        (batch_.empty() || before(late_.front(), batch_.back()))) {
        EventKey top = late_.front();
        late_.front() = late_.back();
        late_.pop_back();
        if (!late_.empty())
            siftDown(0);
        return top;
    }
    EventKey top = batch_.back();
    batch_.pop_back();
    return top;
}

void
Shard::push(uint32_t owner, Cycles at, EventCallback fn)
{
    pushKeyed(packKey(owner, currentOwner_), nextSeq_++, at,
              std::move(fn));
}

void
Shard::runWindow(Cycles end, uint64_t maxEvents)
{
    for (;;) {
        // Same-cycle livelocks never return to the barrier where the
        // global budget is summed, so each shard also bounds its own
        // count, checked before every event. Stop with the events in
        // place: the barrier detects the exhausted budget and the
        // diagnosis reads the queues as they stand.
        if (processed_ >= maxEvents)
            break;
        if (batch_.empty() && late_.empty()) {
            if (!advance(end))
                break;
        } else if (base_ >= end) {
            break;
        }
        EventKey top = popDraining();
        now_ = top.at;
        currentOwner_ = static_cast<uint32_t>(top.ownerCreator >> 32);
        stats_.eventsProcessed++;
        processed_++;
        // Move the callback out before invoking: the callback may
        // schedule new events, which can grow (and relocate) the slot
        // pool while it runs.
        EventCallback cb = std::move(slots_[top.slot]);
        freeSlots_.push_back(top.slot);
        cb();
    }
    currentOwner_ = sim_->hostId();
}

//===----------------------------------------------------------------------===
// Simulator
//===----------------------------------------------------------------------===

Simulator::Simulator(const ArchParams &params, int width, int height,
                     SimOptions options)
    : params_(params), options_(std::move(options)), width_(width),
      height_(height),
      numPes_(static_cast<uint32_t>(width) * static_cast<uint32_t>(height))
{
    WSC_ASSERT(width > 0 && height > 0, "empty PE grid");
    if (width > params.fabricWidth || height > params.fabricHeight)
        fatal(strcat("requested PE grid ", width, "x", height,
                     " exceeds the ", params.name, " fabric (",
                     params.fabricWidth, "x", params.fabricHeight, ")"));
    lookahead_ = std::max<Cycles>(1, params_.hopCycles);

    // min(threads, width) balanced column strips; worker w runs strip w.
    options_.threads = std::clamp(options_.threads, 1, width);
    const int numShards = options_.threads;
    shards_.reserve(static_cast<size_t>(numShards));
    for (int s = 0; s < numShards; ++s)
        shards_.push_back(std::make_unique<Shard>(*this, s));
    for (auto &shard : shards_)
        shard->outbox_.resize(static_cast<size_t>(numShards));
    stripOfCol_.resize(static_cast<size_t>(width));
    for (int x = 0; x < width; ++x)
        stripOfCol_[static_cast<size_t>(x)] = static_cast<int>(
            (static_cast<int64_t>(x) * numShards) / width);

    pes_.reserve(numPes_);
    for (int x = 0; x < width; ++x)
        for (int y = 0; y < height; ++y)
            pes_.push_back(std::make_unique<Pe>(
                *this, shardOfPe(peIndex(x, y)), x, y, peIndex(x, y)));
    fabric_ = std::make_unique<Fabric>(*this);
    applyFaultPlan();
}

void
Simulator::applyFaultPlan()
{
    const FaultPlan &plan = options_.faults;
    if (plan.empty())
        return;
    auto checkPe = [&](int x, int y, const char *what) {
        if (x < 0 || x >= width_ || y < 0 || y >= height_)
            fatal(strcat("fault plan ", what, " targets PE (", x, ", ", y,
                         ") outside the ", width_, "x", height_, " grid"));
    };
    for (const PeHaltFault &h : plan.peHalts) {
        checkPe(h.x, h.y, "halt");
        Pe &target = pe(h.x, h.y);
        // Multiple halts on one PE: the earliest threshold wins.
        target.setHaltAt(std::min(h.at, target.haltAt()));
    }
    for (const PeStutterFault &s : plan.peStutters) {
        checkPe(s.x, s.y, "stutter");
        if (s.factor < 1)
            fatal("fault plan stutter factor must be >= 1");
        pe(s.x, s.y).setStutter(s.from, s.until, s.factor);
    }
    fabric_->applyFaultPlan(plan);
}

Simulator::~Simulator()
{
    // Queued callbacks may hold PayloadRefs into *other* shards' pools
    // (cross-shard segments, stashed deliveries): drop every queued
    // callback while all pools are still alive.
    for (auto &shard : shards_) {
        shard->batch_.clear();
        shard->late_.clear();
        for (auto &bucket : shard->buckets_)
            bucket.clear();
        shard->slots_.clear();
        shard->freeSlots_.clear();
        for (auto &lane : shard->outbox_)
            lane.clear();
    }
}

Pe &
Simulator::pe(int x, int y)
{
    WSC_ASSERT(x >= 0 && x < width_ && y >= 0 && y < height_,
               "PE coordinates (" << x << ", " << y << ") out of range");
    return *pes_[peIndex(x, y)];
}

PeName
Simulator::internName(const std::string &name)
{
    std::lock_guard<std::mutex> lock(namePoolMutex_);
    return PeName(&*namePool_.insert(name).first);
}

Shard &
Simulator::shardOfPe(uint32_t peIdx)
{
    if (peIdx >= numPes_) // host
        return *shards_.front();
    // x-major PE ids: a strip is one contiguous id range.
    uint32_t col = peIdx / static_cast<uint32_t>(height_);
    return *shards_[static_cast<size_t>(stripOfCol_[col])];
}

SimStats
Simulator::stats() const
{
    SimStats t;
    for (const auto &shard : shards_) {
        const SimStats &s = shard->stats_;
        t.eventsProcessed += s.eventsProcessed;
        t.waveletsSent += s.waveletsSent;
        t.taskActivations += s.taskActivations;
        t.dsdOps += s.dsdOps;
        t.flops += s.flops;
        t.memBytes += s.memBytes;
        t.streamsDroppedByLinks += s.streamsDroppedByLinks;
        t.payloadsDropped += s.payloadsDropped;
        t.payloadsCorrupted += s.payloadsCorrupted;
        t.exchangeTimeouts += s.exchangeTimeouts;
        t.exchangesDegraded += s.exchangesDegraded;
    }
    return t;
}

ShardingTelemetry
Simulator::telemetry() const
{
    ShardingTelemetry t;
    t.windows = windowCount_;
    t.shardWindowsRun = shardWindowsRun_;
    for (const auto &shard : shards_)
        t.outboxReallocs += shard->outboxReallocs_;
    return t;
}

uint64_t
Simulator::fabricHops() const
{
    return stats().waveletsSent;
}

Cycles
Simulator::now() const
{
    if (tlsCur.sim == this && tlsCur.shard)
        return tlsCur.shard->now();
    return finalNow_;
}

Shard *
Simulator::currentShard() const
{
    return tlsCur.sim == this ? tlsCur.shard : nullptr;
}

void
Simulator::schedule(Cycles at, EventCallback fn)
{
    if (tlsCur.sim == this && tlsCur.shard) {
        Shard &cur = *tlsCur.shard;
        // Generic events stay on the scheduling shard, owned by the
        // creating event's owner (FIFO per creator at equal cycles).
        cur.push(cur.currentOwner_, at, std::move(fn));
        return;
    }
    shards_.front()->push(hostId(), at, std::move(fn));
}

void
Simulator::scheduleOnPe(uint32_t owner, Cycles at, EventCallback fn,
                        Shard *from)
{
    Shard &target = shardOfPe(owner);
    if (from == nullptr) {
        target.pushKeyed(Shard::packKey(owner, hostId()),
                         shards_.front()->nextSeq_++, at, std::move(fn));
        return;
    }
    uint64_t key = Shard::packKey(owner, from->currentOwner_);
    if (from == &target) {
        target.pushKeyed(key, from->nextSeq_++, at, std::move(fn));
        return;
    }
    auto &lane = from->outbox_[static_cast<size_t>(target.index())];
    // Lanes are cleared (capacity kept) when drained, so growth only
    // happens while a lane reaches its high-water mark — telemetry
    // asserts steady-state windows stay allocation-free.
    if (lane.size() == lane.capacity())
        from->outboxReallocs_++;
    lane.push_back(Shard::MailEntry{at, key, from->nextSeq_++,
                                    std::move(fn)});
}

Cycles
Simulator::finishRun()
{
    Cycles end = finalNow_;
    for (auto &shard : shards_)
        end = std::max(end, shard->now_);
    for (auto &shard : shards_) {
        shard->now_ = end;
        shard->currentOwner_ = hostId();
    }
    finalNow_ = end;
    return end;
}

bool
Simulator::runWindows(uint64_t maxEvents)
{
    for (auto &shard : shards_)
        shard->processed_ = 0;

    struct Control
    {
        Cycles windowEnd = 0;
        bool done = false;
        bool overBudget = false;
    } ctl;
    std::atomic<bool> failed{false};
    std::exception_ptr firstError;
    std::mutex errorMutex;

    // Runs on exactly one thread while every worker is parked in the
    // barrier: drains the cross-shard mailboxes, accounts the event
    // budget and picks the next conservative window. The body must not
    // leak an exception (std::terminate inside a barrier completion), so
    // a throwing drain — e.g. a schedule-into-the-past panic — is
    // converted into the same firstError/done shutdown a throwing
    // worker takes.
    auto atBarrier = [&]() noexcept {
        try {
            if (failed.load(std::memory_order_relaxed)) {
                ctl.done = true;
                return;
            }
            uint64_t total = 0;
            for (auto &src : shards_) {
                for (size_t dst = 0; dst < src->outbox_.size(); ++dst) {
                    auto &lane = src->outbox_[dst];
                    for (auto &entry : lane)
                        shards_[dst]->pushKeyed(entry.ownerCreator,
                                                entry.seq, entry.at,
                                                std::move(entry.cb));
                    lane.clear();
                }
                total += src->processed_;
            }
            bool any = false;
            Cycles minAt = 0;
            for (auto &shard : shards_) {
                if (shard->queueEmpty())
                    continue;
                Cycles at = shard->minAt();
                minAt = any ? std::min(minAt, at) : at;
                any = true;
            }
            if (!any) {
                ctl.done = true;
                return;
            }
            if (total >= maxEvents) {
                // Budget spent with events still queued: stop so the
                // caller can produce the diagnosis.
                ctl.overBudget = true;
                ctl.done = true;
                return;
            }
            // No cross-shard event is shorter than one hop, so nothing
            // executed in [minAt, end) can reach a foreign shard before
            // end (docs/architecture.md §4). A lone shard has no foreign
            // shard: its one window is unbounded.
            const Cycles end =
                shards_.size() == 1 ? UINT64_MAX : minAt + lookahead_;
            ctl.windowEnd = end;
            windowCount_++;
            for (auto &shard : shards_)
                if (!shard->queueEmpty() && shard->minAt() < end)
                    shardWindowsRun_++;
        } catch (...) {
            {
                std::lock_guard<std::mutex> lock(errorMutex);
                if (!firstError)
                    firstError = std::current_exception();
            }
            failed.store(true, std::memory_order_relaxed);
            ctl.done = true;
        }
    };

    const int numWorkers = shardCount();
    std::barrier barrier(numWorkers, atBarrier);

    // Error-path invariant: a worker that catches an exception KEEPS
    // LOOPING to the next arrive_and_wait instead of leaving the loop —
    // breaking out without arriving would strand the siblings in the
    // barrier forever. The completion step then observes `failed` and
    // shuts every worker down through ctl.done.
    //
    // Worker w is the only thread that ever runs shard w, so every
    // shard keeps a single consumer for its payload ring. An idle shard
    // returns from runWindow immediately.
    auto worker = [&](int idx) {
        Shard &shard = *shards_[static_cast<size_t>(idx)];
        for (;;) {
            barrier.arrive_and_wait();
            if (ctl.done)
                break;
            try {
                TlsGuard tls(this, &shard);
                shard.runWindow(ctl.windowEnd, maxEvents);
            } catch (...) {
                {
                    std::lock_guard<std::mutex> lock(errorMutex);
                    if (!firstError)
                        firstError = std::current_exception();
                }
                failed.store(true, std::memory_order_relaxed);
            }
        }
    };

    std::vector<std::thread> threads;
    threads.reserve(static_cast<size_t>(numWorkers) - 1);
    for (int i = 1; i < numWorkers; ++i)
        threads.emplace_back(worker, i);
    worker(0);
    for (std::thread &t : threads)
        t.join();

    if (firstError)
        std::rethrow_exception(firstError);
    return ctl.overBudget;
}

void
Simulator::addQuiescenceProbe(QuiescenceProbe probe)
{
    probes_.push_back(std::move(probe));
}

void
Simulator::noteDegradedPe(uint32_t peId)
{
    shardOfPe(peId).degradedPes_.push_back(peId);
}

void
Simulator::collectBlockedPes(std::vector<BlockedPeInfo> &out)
{
    for (const QuiescenceProbe &probe : probes_)
        probe(out);
    for (BlockedPeInfo &b : out)
        b.peHalted = pes_[peIndex(b.x, b.y)]->haltedAt(finalNow_);
    // Oldest blockage first; ties broken by grid position so the dump
    // is stable across probe registration order.
    std::sort(out.begin(), out.end(),
              [](const BlockedPeInfo &a, const BlockedPeInfo &b) {
                  if (a.since != b.since)
                      return a.since < b.since;
                  if (a.x != b.x)
                      return a.x < b.x;
                  if (a.y != b.y)
                      return a.y < b.y;
                  return a.what < b.what;
              });
}

SimDiagnosis
Simulator::diagnose(SimOutcome outcome, uint64_t budget,
                    std::vector<BlockedPeInfo> blocked)
{
    const size_t maxRows =
        static_cast<size_t>(envU64("WSC_DIAG_ROWS", 16));
    SimDiagnosis d;
    d.outcome = outcome;
    d.atCycle = finalNow_;
    d.eventBudget = budget == UINT64_MAX ? 0 : budget;

    for (const auto &shard : shards_) {
        d.eventsProcessed += shard->processed_;
        ShardQueueInfo q;
        q.shard = shard->index();
        shard->forEachQueued([&q](const Shard::EventKey &) { q.depth++; });
        q.nextAt = q.depth > 0 ? shard->minAt() : 0;
        for (const auto &lane : shard->outbox_)
            q.outboxPending += lane.size();
        d.queues.push_back(q);
    }

    d.blockedPeTotal = blocked.size();
    if (blocked.size() > maxRows)
        blocked.resize(maxRows);
    d.blockedPes = std::move(blocked);

    for (const auto &pe : pes_) {
        const auto pending = pe->pendingActivations();
        if (pending.empty())
            continue;
        d.pendingTaskTotal += pending.size();
        if (d.pendingTasks.size() < maxRows) {
            const auto &[taskIdx, readyAt] = pending.front();
            d.pendingTasks.push_back(
                {pe->x(), pe->y(), pe->taskName(taskIdx), readyAt,
                 pending.size() - 1, pe->haltedAt(finalNow_)});
        }
    }

    // Busiest PEs by events still owned in the queues/outboxes.
    std::unordered_map<uint32_t, size_t> ownerCounts;
    for (const auto &shard : shards_) {
        shard->forEachQueued([&ownerCounts](const Shard::EventKey &key) {
            ownerCounts[static_cast<uint32_t>(key.ownerCreator >> 32)]++;
        });
        for (const auto &lane : shard->outbox_)
            for (const Shard::MailEntry &entry : lane)
                ownerCounts[static_cast<uint32_t>(entry.ownerCreator >>
                                                  32)]++;
    }
    std::vector<std::pair<uint32_t, size_t>> owners;
    for (const auto &[owner, count] : ownerCounts)
        if (owner < numPes_)
            owners.emplace_back(owner, count);
    std::sort(owners.begin(), owners.end(),
              [](const auto &a, const auto &b) {
                  if (a.second != b.second)
                      return a.second > b.second;
                  return a.first < b.first;
              });
    if (owners.size() > maxRows)
        owners.resize(maxRows);
    for (const auto &[owner, count] : owners)
        d.busiestPes.push_back({pes_[owner]->x(), pes_[owner]->y(),
                                count});

    fabric_->collectBusyLinks(finalNow_, maxRows, d.busyLinks);
    return d;
}

SimReport
Simulator::runWithReport(uint64_t maxEvents)
{
    SimReport report;
    windowCount_ = 0;
    shardWindowsRun_ = 0;
    for (auto &shard : shards_)
        shard->outboxReallocs_ = 0;
    bool overBudget = runWindows(maxEvents);
    report.finalCycle = finishRun();
    report.stats = stats();

    for (const auto &shard : shards_)
        report.degradedPes.insert(report.degradedPes.end(),
                                  shard->degradedPes_.begin(),
                                  shard->degradedPes_.end());
    std::sort(report.degradedPes.begin(), report.degradedPes.end());
    report.degradedPes.erase(std::unique(report.degradedPes.begin(),
                                         report.degradedPes.end()),
                             report.degradedPes.end());

    for (const PeHaltFault &h : options_.faults.peHalts)
        if (h.at <= report.finalCycle)
            report.haltedPes.push_back(peIndex(h.x, h.y));
    std::sort(report.haltedPes.begin(), report.haltedPes.end());
    report.haltedPes.erase(std::unique(report.haltedPes.begin(),
                                       report.haltedPes.end()),
                           report.haltedPes.end());

    if (overBudget) {
        report.outcome = SimOutcome::EventBudgetExceeded;
        std::vector<BlockedPeInfo> blocked;
        collectBlockedPes(blocked);
        report.diagnosis =
            diagnose(report.outcome, maxEvents, std::move(blocked));
        return report;
    }

    // The queues are drained: ask the quiescence probes whether any PE
    // still owes work. Obligations on halted PEs are the expected shape
    // of the injected fault (Degraded); anything on a live PE means the
    // run can never progress again (Deadlock).
    std::vector<BlockedPeInfo> blocked;
    collectBlockedPes(blocked);
    bool liveBlocked = false;
    for (const BlockedPeInfo &b : blocked)
        liveBlocked |= !b.peHalted;
    if (!liveBlocked)
        for (const auto &pe : pes_)
            if (!pe->pendingActivations().empty() &&
                !pe->haltedAt(report.finalCycle))
                liveBlocked = true;

    if (liveBlocked)
        report.outcome = SimOutcome::Deadlock;
    else if (!report.haltedPes.empty() || !report.degradedPes.empty())
        report.outcome = SimOutcome::Degraded;
    else
        report.outcome = SimOutcome::Completed;

    if (report.outcome != SimOutcome::Completed)
        report.diagnosis =
            diagnose(report.outcome, maxEvents, std::move(blocked));
    return report;
}

} // namespace wsc::wse
