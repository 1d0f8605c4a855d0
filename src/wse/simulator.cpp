#include "wse/simulator.h"

#include <algorithm>
#include <atomic>
#include <barrier>
#include <cstdlib>
#include <exception>
#include <mutex>
#include <thread>
#include <unordered_map>

#include "support/env.h"
#include "support/error.h"

namespace wsc::wse {

namespace {

/** Initial capacity of each shard's cycle batch and free-record list. */
constexpr size_t kInitialQueueCapacity = 1024;

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
    freeEvents_.reserve(kInitialQueueCapacity);
    binHint_.fill(kNoBin);
}

// late_ is a 4-ary min-heap: half the depth of a binary heap, and the
// four children a sift-down compares are adjacent in memory. Keys are
// unique (each creator draws seq from one shard's monotone counter), so
// the pop order is exactly the total order before().
constexpr size_t kHeapArity = 4;

void
Shard::siftUp(size_t i)
{
    const uint32_t idx = late_[i];
    const Event &ev = event(idx);
    while (i > 0) {
        size_t parent = (i - 1) / kHeapArity;
        if (!before(ev, event(late_[parent])))
            break;
        late_[i] = late_[parent];
        i = parent;
    }
    late_[i] = idx;
}

void
Shard::siftDown(size_t i)
{
    const size_t n = late_.size();
    const uint32_t idx = late_[i];
    const Event &ev = event(idx);
    for (;;) {
        size_t first = kHeapArity * i + 1;
        if (first >= n)
            break;
        size_t child = first;
        size_t last = std::min(first + kHeapArity, n);
        for (size_t c = first + 1; c < last; ++c)
            if (before(event(late_[c]), event(late_[child])))
                child = c;
        if (!before(event(late_[child]), ev))
            break;
        late_[i] = late_[child];
        i = child;
    }
    late_[i] = idx;
}

void
Shard::pastPanic(Cycles at) const
{
    panic(strcat("scheduling into the past (at=", at, ", now=", now_, ")"));
}

uint32_t
Shard::newEvent(uint64_t ownerCreator, uint64_t seq)
{
    uint32_t idx;
    if (!freeEvents_.empty()) {
        idx = freeEvents_.back();
        freeEvents_.pop_back();
    } else {
        // Default-initialised: each callback's buffer stays untouched
        // until an event is constructed in it.
        if (usedEvents_ == chunks_.size() * kChunkSize)
            chunks_.push_back(
                std::make_unique_for_overwrite<Event[]>(kChunkSize));
        idx = usedEvents_++;
    }
    Event &ev = event(idx);
    ev.ownerCreator = ownerCreator;
    ev.seq = seq;
    return idx;
}

void
Shard::enqueue(Cycles at, uint32_t idx)
{
    // now_ >= base_, so an event is never below the draining cycle.
    if (at == base_) {
        late_.push_back(idx);
        siftUp(late_.size() - 1);
        return;
    }
    const auto owner = static_cast<uint32_t>(event(idx).ownerCreator >> 32);
    binAt(at).entries.push_back({owner, idx});
}

Shard::Bin &
Shard::binAt(Cycles at)
{
    uint32_t &hint = binHint_[at & (kHintSize - 1)];
    if (hint != kNoBin && bins_[hint].at == at)
        return bins_[hint];
    // A hint collision (live cycles equal modulo kHintSize) or a new
    // cycle: one bin per live cycle, so look before opening one.
    for (uint32_t b : binHeap_) {
        if (bins_[b].at == at) {
            hint = b;
            return bins_[b];
        }
    }
    uint32_t b;
    if (!freeBins_.empty()) {
        b = freeBins_.back();
        freeBins_.pop_back();
    } else {
        b = static_cast<uint32_t>(bins_.size());
        bins_.emplace_back();
    }
    bins_[b].at = at;
    binHeap_.push_back(b);
    std::push_heap(binHeap_.begin(), binHeap_.end(), laterBin());
    hint = b;
    return bins_[b];
}

Cycles
Shard::minAt() const
{
    if (!drainingEmpty())
        return base_;
    return bins_[binHeap_.front()].at;
}

bool
Shard::advance(Cycles end)
{
    if (binHeap_.empty() || bins_[binHeap_.front()].at >= end)
        return false;
    std::pop_heap(binHeap_.begin(), binHeap_.end(), laterBin());
    const uint32_t b = binHeap_.back();
    binHeap_.pop_back();
    Bin &bin = bins_[b];
    base_ = bin.at;
    orderBatch(bin.entries);
    bin.entries.clear();
    uint32_t &hint = binHint_[bin.at & (kHintSize - 1)];
    if (hint == b)
        hint = kNoBin;
    freeBins_.push_back(b);
    return true;
}

void
Shard::orderBatch(const std::vector<BinEntry> &entries)
{
    const size_t n = entries.size();
    batchHead_ = 0;
    // The host id lies above every PE id: it takes the last slot.
    auto slotOf = [this](uint32_t owner) {
        return std::min(owner - ownerLo_, ownerSpan_ - 1);
    };
    if (4 * n < ownerSpan_) {
        // Few events for many owners (e.g. a diffusion column's handful
        // per cycle): a comparison sort beats the prefix pass.
        batch_.assign(entries.begin(), entries.end());
        std::sort(batch_.begin(), batch_.end(),
                  [this](const BinEntry &x, const BinEntry &y) {
                      if (x.owner != y.owner)
                          return x.owner < y.owner;
                      return before(event(x.event), event(y.event));
                  });
        return;
    }
    // Stable counting sort by owner (the prefix pass costs at most 4 per
    // event), then an insertion pass orders each owner's few events by
    // (creator, seq).
    counts_.assign(static_cast<size_t>(ownerSpan_) + 1, 0);
    for (const BinEntry &e : entries)
        counts_[slotOf(e.owner) + 1]++;
    for (size_t s = 1; s < counts_.size(); ++s)
        counts_[s] += counts_[s - 1];
    batch_.resize(n);
    for (const BinEntry &e : entries)
        batch_[counts_[slotOf(e.owner)]++] = e;
    for (size_t i = 1; i < n; ++i) {
        const BinEntry x = batch_[i];
        size_t j = i;
        while (j > 0 && batch_[j - 1].owner == x.owner &&
               before(event(x.event), event(batch_[j - 1].event))) {
            batch_[j] = batch_[j - 1];
            --j;
        }
        batch_[j] = x;
    }
}

uint32_t
Shard::popDraining()
{
    if (!late_.empty() &&
        (batchHead_ == batch_.size() ||
         before(event(late_.front()), event(batch_[batchHead_].event)))) {
        const uint32_t top = late_.front();
        late_.front() = late_.back();
        late_.pop_back();
        if (!late_.empty())
            siftDown(0);
        return top;
    }
    return batch_[batchHead_++].event;
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
        if (drainingEmpty()) {
            if (!advance(end))
                break;
        } else if (base_ >= end) {
            break;
        }
        const uint32_t idx = popDraining();
        Event &ev = event(idx);
        now_ = base_;
        currentOwner_ = static_cast<uint32_t>(ev.ownerCreator >> 32);
        stats_.eventsProcessed++;
        processed_++;
        // In place: records never move, and this one is not freed until
        // its callback returns, so the events it schedules land in other
        // records.
        ev.cb();
        ev.cb.reset();
        freeEvents_.push_back(idx);
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
    // Strip s owns the PE ids [ownerLo_, ownerLo_ + ownerSpan_ - 1).
    for (int x = width - 1; x >= 0; --x) {
        Shard &shard = *shards_[static_cast<size_t>(
            stripOfCol_[static_cast<size_t>(x)])];
        shard.ownerSpan_ += static_cast<uint32_t>(height);
        shard.ownerLo_ = peIndex(x, 0);
    }

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
        shard->chunks_.clear();
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
Simulator::mail(Shard &from, Shard &target, Cycles at,
                uint64_t ownerCreator, EventCallback fn)
{
    auto &lane = from.outbox_[static_cast<size_t>(target.index())];
    // Lanes are cleared (capacity kept) when drained, so growth only
    // happens while a lane reaches its high-water mark — telemetry
    // asserts steady-state windows stay allocation-free.
    if (lane.size() == lane.capacity())
        from.outboxReallocs_++;
    lane.push_back(
        Shard::MailEntry{at, ownerCreator, from.nextSeq_++, std::move(fn)});
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
        shard->forEachQueuedOwner([&q](uint32_t) { q.depth++; });
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
        shard->forEachQueuedOwner(
            [&ownerCounts](uint32_t owner) { ownerCounts[owner]++; });
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
