#include "comms/star_comm.h"

#include <algorithm>

#include "support/error.h"

namespace wsc::comms {

namespace {

/** Deadline extensions (each doubling the wait) before an incomplete
 *  exchange degrades. */
constexpr int kExchangeMaxRetries = 2;

/** Source direction of an access offset (direction of the source PE). */
wse::Direction
accessDirection(const Access &a)
{
    WSC_ASSERT((a.dx == 0) != (a.dy == 0),
               "access offsets must be axis-aligned, got (" << a.dx << ", "
                                                            << a.dy << ")");
    if (a.dx > 0)
        return wse::Direction::East;
    if (a.dx < 0)
        return wse::Direction::West;
    if (a.dy < 0)
        return wse::Direction::North;
    return wse::Direction::South;
}

int
directionRank(wse::Direction d)
{
    switch (d) {
      case wse::Direction::East:
        return 0;
      case wse::Direction::West:
        return 1;
      case wse::Direction::North:
        return 2;
      case wse::Direction::South:
        return 3;
    }
    panic("unreachable direction");
}

/** Stream tag of chunk `chunk` of exchange epoch `epoch`: the epoch in
 *  the high 32 bits, the chunk in the low 32 (decoded by onDelivery). */
uint64_t
streamTag(int64_t epoch, int64_t chunk)
{
    return static_cast<uint64_t>(epoch) << 32 | static_cast<uint64_t>(chunk);
}

/** Direction a stream travels so that the access's source is the sender:
 * data for access (dx, dy) travels from the source towards (-dx, -dy). */
wse::Direction
travelDirection(const Access &a)
{
    Access reversed{-a.dx, -a.dy};
    return accessDirection(reversed);
}

} // namespace

std::vector<Access>
canonicalAccessOrder(std::vector<Access> accesses)
{
    std::sort(accesses.begin(), accesses.end(),
              [](const Access &a, const Access &b) {
                  int ra = directionRank(accessDirection(a));
                  int rb = directionRank(accessDirection(b));
                  if (ra != rb)
                      return ra < rb;
                  return a.distance() < b.distance();
              });
    return accesses;
}

StarComm::StarComm(wse::Simulator &sim, StarCommConfig config)
    : sim_(sim), config_(std::move(config))
{
    WSC_ASSERT(!config_.accesses.empty(), "exchange without accesses");
    for (const Access &a : config_.accesses)
        WSC_ASSERT(a.distance() >= 1 && a.distance() < 32,
                   "access distance " << a.distance()
                                      << " exceeds the 31-hop routes");
    WSC_ASSERT(config_.zSize > 0, "exchange with empty column");
    WSC_ASSERT(config_.numChunks >= 1 && config_.numChunks <= UINT32_MAX,
               "numChunks must be in [1, 2^32)");
    WSC_ASSERT(commElems() > 0, "trims leave nothing to communicate");
    WSC_ASSERT(config_.coeffs.empty() ||
                   config_.coeffs.size() == config_.accesses.size(),
               "coeffs must match accesses");
    std::vector<Access> canonical = canonicalAccessOrder(config_.accesses);
    WSC_ASSERT(canonical == config_.accesses,
               "accesses must be in canonical order");

    size_t numPes =
        static_cast<size_t>(sim_.width()) * sim_.height();
    states_.resize(numPes);
    expected_.resize(numPes);
    for (int x = 0; x < sim_.width(); ++x)
        for (int y = 0; y < sim_.height(); ++y)
            expected_[static_cast<size_t>(x) * sim_.height() + y] =
                computeExpectedSections(x, y);

    // Group deliveries by travel direction once; every exchange reuses
    // this plan.
    for (size_t i = 0; i < config_.accesses.size(); ++i) {
        const Access &a = config_.accesses[i];
        wse::Direction dir = travelDirection(a);
        PlanEntry *entry = nullptr;
        for (PlanEntry &e : plan_)
            if (e.dir == dir)
                entry = &e;
        if (!entry) {
            plan_.push_back({dir, {}, nullptr});
            entry = &plan_.back();
        }
        entry->sections.emplace_back(a.distance(),
                                     static_cast<int>(i));
    }
    for (PlanEntry &e : plan_) {
        std::sort(e.sections.begin(), e.sections.end());
        const PlanEntry *entry = &e; // plan_ is fixed from here on.
        e.deliver = std::make_shared<const wse::DeliveryFn>(
            [this, entry](const wse::StreamDelivery &delivery) {
                int section = -1;
                for (const auto &[dist, idx] : entry->sections)
                    if (dist == delivery.distance)
                        section = idx;
                WSC_ASSERT(section >= 0, "delivery at unexpected distance");
                onDelivery(delivery, section);
            });
    }
}

int64_t
StarComm::commElems() const
{
    return config_.zSize - config_.trimFirst - config_.trimLast;
}

int64_t
StarComm::chunkElems() const
{
    return (commElems() + config_.numChunks - 1) / config_.numChunks;
}

int
StarComm::sectionIndex(int dx, int dy) const
{
    for (size_t i = 0; i < config_.accesses.size(); ++i)
        if (config_.accesses[i].dx == dx && config_.accesses[i].dy == dy)
            return static_cast<int>(i);
    return -1;
}

int64_t
StarComm::recvBufferBytes() const
{
    return numSections() * chunkElems() *
           static_cast<int64_t>(sizeof(float));
}

int64_t
StarComm::sectionsPerUnit() const
{
    return config_.perSectionCallbacks ? 1 : numSections();
}

int64_t
StarComm::numUnits() const
{
    return config_.numChunks * numSections() / sectionsPerUnit();
}

int
StarComm::computeExpectedSections(int x, int y) const
{
    // A PE computes (and therefore receives) only when every one of its
    // sources exists; otherwise it is a boundary PE that only feeds its
    // neighbours.
    for (const Access &a : config_.accesses) {
        int sx = x + a.dx;
        int sy = y + a.dy;
        if (sx < 0 || sx >= sim_.width() || sy < 0 || sy >= sim_.height())
            return 0;
    }
    return static_cast<int>(config_.accesses.size());
}

int
StarComm::expectedSections(int x, int y) const
{
    return expected_[static_cast<size_t>(x) * sim_.height() + y];
}

StarComm::PeState &
StarComm::state(int x, int y)
{
    return states_[static_cast<size_t>(x) * sim_.height() + y];
}

void
StarComm::setup()
{
    WSC_ASSERT(!setupDone_, "setup() called twice");
    setupDone_ = true;

    // Receive buffers: one chunk per section, reused across chunks — the
    // memory saving that csl_stencil.apply chunking enables. The name is
    // interned once and the dense handle resolved once per PE; receive
    // callbacks use it directly.
    wse::PeName recvName = sim_.internName(config_.recvBufferName);
    size_t recvElems = static_cast<size_t>(numSections() * chunkElems());
    for (int x = 0; x < sim_.width(); ++x)
        for (int y = 0; y < sim_.height(); ++y)
            state(x, y).recvBuf =
                sim_.pe(x, y).allocBufferId(recvName, recvElems);

    // Deadlock introspection: when the event queues drain, any PE still
    // inside an exchange is waiting for data that will never arrive —
    // name it and what it got so far (this StarComm must outlive the
    // simulator runs, which every call site already guarantees).
    sim_.addQuiescenceProbe([this](std::vector<wse::BlockedPeInfo> &out) {
        for (int x = 0; x < sim_.width(); ++x) {
            for (int y = 0; y < sim_.height(); ++y) {
                PeState &st = state(x, y);
                if (!st.exchangeActive)
                    continue;
                out.push_back(
                    {x, y,
                     strcat("halo exchange epoch ", st.activeEpoch, ": ",
                            st.announcedUnits, "/", numUnits(),
                            " receive callbacks issued"),
                     st.exchangeStart, false});
            }
        }
    });
}

void
StarComm::exchange(wse::TaskContext &ctx, const std::string &sendBufName,
                   const std::string &recvCb, const std::string &doneCb)
{
    wse::Pe &pe = ctx.pe();
    exchange(ctx, pe.bufferId(sendBufName), pe.taskId(recvCb),
             pe.taskId(doneCb));
}

void
StarComm::exchange(wse::TaskContext &ctx, wse::BufferId sendBufId,
                   wse::TaskId recvCb, wse::TaskId doneCb)
{
    WSC_ASSERT(setupDone_, "exchange before setup");
    wse::Pe &pe = ctx.pe();
    int x = pe.x();
    int y = pe.y();
    PeState &st = state(x, y);
    WSC_ASSERT(!st.exchangeActive,
               "overlapping exchanges on PE (" << x << ", " << y << ")");

    st.exchangeActive = true;
    st.recvCb = recvCb;
    st.doneCb = doneCb;
    st.activeEpoch++;
    st.exchangeStart = ctx.currentCycle();
    st.announcedUnits = 0;
    st.stats.exchangesStarted++;

    const int64_t epoch = st.activeEpoch;
    const int64_t nChunks = config_.numChunks;
    const int64_t chunk = chunkElems();
    const int64_t total = commElems();
    std::vector<float> &sendBuf = pe.buffer(sendBufId);
    WSC_ASSERT(static_cast<int64_t>(sendBuf.size()) >= config_.zSize,
               "send buffer smaller than column");

    wse::Cycles t = ctx.currentCycle();
    wse::Cycles lastInject = t;
    for (int64_t c = 0; c < nChunks; ++c) {
        int64_t begin = config_.trimFirst + c * chunk;
        int64_t len = std::min(chunk, total - c * chunk);
        // One recycled ring slot per chunk: every direction's stream,
        // every delivery event and every receiver stash reference the
        // same buffer (wse/payload.h); nothing is copied per delivery.
        wse::PayloadRef payload = pe.payloadPool().acquire();
        payload.mutableData().assign(sendBuf.begin() + begin,
                                     sendBuf.begin() + begin + len);
        for (const PlanEntry &entry : plan_) {
            // Only deliver to PEs that actually compute.
            uint32_t deliverMask = 0;
            auto [sx, sy] = wse::directionStep(entry.dir);
            for (const auto &[dist, sectionIdx] : entry.sections) {
                int rx = x + sx * dist;
                int ry = y + sy * dist;
                if (rx < 0 || rx >= sim_.width() || ry < 0 ||
                    ry >= sim_.height())
                    continue;
                if (expectedSections(rx, ry) > 0)
                    deliverMask |= 1u << dist;
            }
            if (deliverMask == 0)
                continue;
            // Switch positions advance between chunks.
            sim_.fabric().switchReconfig(x, y, entry.dir, t);
            wse::Cycles injected = sim_.fabric().sendStream(
                x, y, entry.dir, deliverMask, payload, t, entry.deliver,
                streamTag(epoch, c));
            lastInject = std::max(lastInject, injected);
        }
    }

    EpochState &es = epochState(st, epoch);
    es.senderInjectDone = lastInject;

    if (expectedSections(x, y) == 0) {
        // Boundary PE: nothing to receive; done once sends are injected.
        st.exchangeActive = false;
        pruneEpochs(st, epoch);
        pe.activate(doneCb, lastInject);
        return;
    }

    // Arm the exchange watchdog: if the receives have not completed by
    // the deadline the wait is extended with backoff, then the exchange
    // degrades rather than hanging the program (wse/fault.h). Off by
    // default (exchangeTimeoutCycles == 0) — no events, no reordering.
    if (sim_.options().exchangeTimeoutCycles > 0)
        scheduleTimeout(pe, epoch, /*attempt=*/0, ctx.currentCycle());

    // Drain units that landed before this exchange started (a neighbour
    // running ahead; the hardware equivalent is data waiting in the
    // input queues). A unit whose sections have all arrived but not yet
    // landed is announced by its landing event.
    for (int64_t u = 0; u < numUnits(); ++u)
        if (es.units[u].landed && !es.units[u].announced)
            announce(pe, st, es, u, pe.now());
}

StarComm::EpochState &
StarComm::epochState(PeState &st, int64_t epoch)
{
    auto it = st.epochs.find(epoch);
    if (it != st.epochs.end())
        return it->second;
    if (st.spare.empty()) {
        it = st.epochs.try_emplace(epoch).first;
    } else {
        st.spare.key() = epoch;
        it = st.epochs.insert(std::move(st.spare)).position;
    }
    // Reset in place: a re-keyed node keeps its capacity, and its stash
    // was released when it was pruned.
    EpochState &es = it->second;
    es.units.assign(numUnits(), UnitState{});
    es.stash.resize(config_.numChunks * numSections());
    es.senderInjectDone = 0;
    es.degraded = false;
    return es;
}

void
StarComm::announce(wse::Pe &pe, PeState &st, EpochState &es, int64_t unit,
                   wse::Cycles readyAt)
{
    es.units[unit].announced = true;
    st.pending.emplace_back(st.activeEpoch, unit);
    pe.activate(st.recvCb, readyAt);
    st.stats.recvCallbacks++;
    if (++st.announcedUnits == numUnits())
        finishExchange(pe, st, es, readyAt);
}

void
StarComm::finishExchange(wse::Pe &pe, PeState &st, EpochState &es,
                         wse::Cycles readyAt)
{
    wse::Cycles doneAt = std::max(readyAt, es.senderInjectDone);
    wse::TaskId doneCb = st.doneCb;
    int64_t epoch = st.activeEpoch;
    st.exchangeActive = false;
    // Keep recent epoch stashes alive until their chunks have been
    // consumed by the receive callbacks (FIFO task order guarantees
    // consumption before the exchange after next).
    pruneEpochs(st, epoch);
    pe.activate(doneCb, doneAt);
}

StarCommStats
StarComm::stats() const
{
    StarCommStats total;
    for (const PeState &st : states_) {
        total.exchangesStarted += st.stats.exchangesStarted;
        total.chunksDelivered += st.stats.chunksDelivered;
        total.recvCallbacks += st.stats.recvCallbacks;
        total.timeouts += st.stats.timeouts;
    }
    return total;
}

void
StarComm::scheduleTimeout(wse::Pe &pe, int64_t epoch, int attempt,
                          wse::Cycles from)
{
    wse::Cycles wait = sim_.options().exchangeTimeoutCycles
                       << static_cast<unsigned>(attempt);
    int x = pe.x();
    int y = pe.y();
    pe.shard().push(pe.id(), from + wait, [this, x, y, epoch, attempt] {
        onExchangeTimeout(sim_.pe(x, y), epoch, attempt);
    });
}

void
StarComm::onExchangeTimeout(wse::Pe &pe, int64_t epoch, int attempt)
{
    PeState &st = state(pe.x(), pe.y());
    if (!st.exchangeActive || st.activeEpoch != epoch)
        return; // The exchange completed in time: the timer is stale.
    st.stats.timeouts++;
    pe.shardStats().exchangeTimeouts++;
    if (attempt < kExchangeMaxRetries) {
        // Extend the deadline with exponential backoff: a degraded
        // (slow) link deserves more patience than a dead one.
        scheduleTimeout(pe, epoch, attempt + 1, pe.now());
        return;
    }
    degradeExchange(pe, st, st.epochs.at(epoch), pe.now());
}

void
StarComm::degradeExchange(wse::Pe &pe, PeState &st, EpochState &es,
                          wse::Cycles readyAt)
{
    es.degraded = true;
    pe.shardStats().exchangesDegraded++;
    sim_.noteDegradedPe(pe.id());
    // Announce everything still outstanding: the receive callbacks run
    // over whatever sections made it, the pop zero-fills the rest, and
    // the last announcement fires finishExchange as usual — the program
    // continues instead of deadlocking on a dead neighbour.
    for (int64_t u = 0; u < numUnits(); ++u)
        if (!es.units[u].announced)
            announce(pe, st, es, u, readyAt);
}

void
StarComm::pruneEpochs(PeState &st, int64_t currentEpoch)
{
    while (!st.epochs.empty() &&
           st.epochs.begin()->first + 2 < currentEpoch) {
        auto node = st.epochs.extract(st.epochs.begin());
        // Release the pinned payloads, as erasing the node would.
        for (wse::PayloadRef &pinned : node.mapped().stash)
            pinned.reset();
        if (st.spare.empty())
            st.spare = std::move(node);
    }
}

void
StarComm::onDelivery(const wse::StreamDelivery &delivery, int accessIdx)
{
    const auto chunkIdx = static_cast<int64_t>(delivery.tag & 0xffffffffu);
    const auto senderEpoch = static_cast<int64_t>(delivery.tag >> 32);
    wse::Pe &pe = sim_.pe(delivery.peX, delivery.peY);
    PeState &st = state(delivery.peX, delivery.peY);
    // The sender's epoch counter aligns with the receiver's because every
    // PE performs the same sequence of exchanges on this site.
    EpochState &es = epochState(st, senderEpoch);
    int64_t index = chunkIdx * numSections() + accessIdx;
    // Pin the payload slot instead of copying the floats; the slot
    // returns to its ring when the receive callback materializes it.
    es.stash[index] = delivery.payload;
    int64_t unit = index / sectionsPerUnit();
    int arrivals = ++es.units[unit].arrivals;
    st.stats.chunksDelivered++;

    WSC_ASSERT(expectedSections(delivery.peX, delivery.peY) > 0,
               "delivery to a non-computing PE");
    WSC_ASSERT(arrivals <= sectionsPerUnit(), "duplicate delivery");
    if (arrivals < sectionsPerUnit())
        return;
    // The unit's last section has arrived. Ramp transfers serialize on
    // the PE's work timeline, so it is also the unit's last section to
    // land: one event at its landing cycle completes the unit.
    pe.shard().push(pe.id(), delivery.completeAt,
                    [this, &pe, senderEpoch, unit] {
                        onUnitLanded(pe, senderEpoch, unit);
                    });
}

void
StarComm::onUnitLanded(wse::Pe &pe, int64_t epoch, int64_t unit)
{
    PeState &st = state(pe.x(), pe.y());
    EpochState &es = epochState(st, epoch);
    es.units[unit].landed = true;
    if (st.exchangeActive && epoch == st.activeEpoch &&
        !es.units[unit].announced)
        announce(pe, st, es, unit, pe.now());
}

int64_t
StarComm::popUnit(wse::Pe &pe)
{
    PeState &st = state(pe.x(), pe.y());
    WSC_ASSERT(!st.pending.empty(),
               "receive callback without a completed chunk or section");
    auto [epoch, unit] = st.pending.front();
    st.pending.pop_front();

    // Materialize the unit into the receive buffer (the hardware's
    // landing step), applying promoted coefficients at zero extra cost —
    // the comms/compute interleaving of §5.7.
    EpochState &es = st.epochs.at(epoch);
    std::vector<float> &recv = pe.buffer(st.recvBuf);
    const int64_t chunk = chunkElems();
    const int64_t first = unit * sectionsPerUnit();
    for (int64_t i = first; i < first + sectionsPerUnit(); ++i) {
        int64_t s = i % numSections();
        float *dst = recv.data() + s * chunk;
        wse::PayloadRef &pinned = es.stash[i];
        if (!pinned.valid()) {
            // Only a degraded exchange announces incomplete units: the
            // section never arrived and its slice reads as zeros.
            WSC_ASSERT(es.degraded, "announced unit missing a section");
            std::fill(dst, dst + chunk, 0.0f);
            continue;
        }
        const std::vector<float> &data = pinned.data();
        float coeff = config_.coeffs.empty()
                          ? 1.0f
                          : static_cast<float>(config_.coeffs[s]);
        for (size_t k = 0; k < data.size(); ++k)
            dst[k] = data[k] * coeff;
        // Zero any tail when the final chunk is short.
        std::fill(dst + data.size(), dst + chunk, 0.0f);
        pinned.reset(); // Return the slot to its sender's ring.
    }
    return first;
}

int64_t
StarComm::popCompletedChunkOffset(wse::Pe &pe)
{
    WSC_ASSERT(!config_.perSectionCallbacks,
               "per-section exchange popped by chunk");
    // Offset is accumulator-relative (interior index space): the chunk
    // covers [chunkIdx * chunkElems, +chunkElems) of the communicated
    // range.
    return popUnit(pe) / numSections() * chunkElems();
}

std::pair<int, int64_t>
StarComm::popCompletedSection(wse::Pe &pe)
{
    WSC_ASSERT(config_.perSectionCallbacks,
               "per-chunk exchange popped by section");
    int64_t first = popUnit(pe);
    return {static_cast<int>(first % numSections()),
            first / numSections() * chunkElems()};
}

} // namespace wsc::comms
