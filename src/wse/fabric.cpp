#include "wse/fabric.h"

#include <algorithm>
#include <memory>

#include "support/error.h"
#include "wse/simulator.h"

namespace wsc::wse {

std::pair<int, int>
directionStep(Direction d)
{
    switch (d) {
      case Direction::East:
        return {1, 0};
      case Direction::West:
        return {-1, 0};
      case Direction::North:
        return {0, -1};
      case Direction::South:
        return {0, 1};
    }
    panic("unreachable direction");
}

const char *
directionName(Direction d)
{
    switch (d) {
      case Direction::East:
        return "E";
      case Direction::West:
        return "W";
      case Direction::North:
        return "N";
      case Direction::South:
        return "S";
    }
    panic("unreachable direction");
}

const std::vector<Direction> &
allDirections()
{
    static const std::vector<Direction> dirs = {
        Direction::East, Direction::West, Direction::North,
        Direction::South};
    return dirs;
}

Fabric::Fabric(Simulator &sim) : sim_(sim)
{
    linkFree_.assign(static_cast<size_t>(sim_.width()) * sim_.height() * 4,
                     0);
}

size_t
Fabric::linkIndex(int x, int y, Direction dir) const
{
    return (static_cast<size_t>(x) * sim_.height() + y) * 4 +
           static_cast<size_t>(dir);
}

Cycles
Fabric::reserveLink(int x, int y, Direction dir, Cycles from, Cycles n)
{
    Cycles &free = linkFree_[linkIndex(x, y, dir)];
    Cycles start = std::max(from, free);
    free = start + n;
    return start;
}

void
Fabric::applyFaultPlan(const FaultPlan &plan)
{
    faultSeed_ = plan.seed;
    const size_t links = linkFree_.size();
    auto checkLink = [&](int x, int y, const char *what) {
        if (x < 0 || x >= sim_.width() || y < 0 || y >= sim_.height())
            fatal(strcat("fault plan ", what, " targets PE (", x, ", ", y,
                         ") outside the grid"));
    };
    if (!plan.linkFaults.empty()) {
        linkFaultsEnabled_ = true;
        linkDownAt_.assign(links, kNeverCycle);
        linkExtraFrom_.assign(links, kNeverCycle);
        linkExtraCycles_.assign(links, 0);
        for (const LinkFault &f : plan.linkFaults) {
            checkLink(f.x, f.y, "link fault");
            size_t li = linkIndex(f.x, f.y, f.dir);
            if (f.kind == LinkFaultKind::Drop) {
                linkDownAt_[li] = std::min(linkDownAt_[li], f.at);
            } else {
                linkExtraFrom_[li] = std::min(linkExtraFrom_[li], f.at);
                linkExtraCycles_[li] =
                    std::max(linkExtraCycles_[li], f.extraHopCycles);
            }
        }
    }
    if (!plan.payloadFaults.empty()) {
        payloadFaultsEnabled_ = true;
        linkStreamCount_.assign(links, 0);
        payloadFaultsOfLink_.assign(links, {});
        for (const PayloadFault &f : plan.payloadFaults) {
            checkLink(f.x, f.y, "payload fault");
            payloadFaultsOfLink_[linkIndex(f.x, f.y, f.dir)].push_back(
                {f.nthStream, f.kind == PayloadFaultKind::Corrupt});
        }
    }
}

Cycles
Fabric::linkExtra(size_t li, Cycles start) const
{
    if (!linkFaultsEnabled_ || start < linkExtraFrom_[li])
        return 0;
    return linkExtraCycles_[li];
}

PayloadRef
Fabric::corruptCopy(Pe &sender, const PayloadRef &payload, size_t li,
                    uint64_t nth)
{
    // The chunk slot is shared by every direction's stream; corrupting
    // in place would leak the fault onto healthy links. Copy, flip one
    // seeded element, and send the copy down this link only.
    PayloadRef copy = sender.payloadPool().acquire();
    copy.mutableData() = payload.data();
    std::vector<float> &data = copy.mutableData();
    uint64_t key =
        faultMix(faultSeed_ ^ (static_cast<uint64_t>(li) << 20) ^ nth);
    data[static_cast<size_t>(key % data.size())] =
        faultCorruptionValue(faultSeed_, key);
    copy.markCorrupted();
    return copy;
}

void
Fabric::collectBusyLinks(Cycles after, size_t maxRows,
                         std::vector<BusyLinkInfo> &out) const
{
    for (int x = 0; x < sim_.width(); ++x) {
        for (int y = 0; y < sim_.height(); ++y) {
            for (int d = 0; d < 4; ++d) {
                Direction dir = static_cast<Direction>(d);
                Cycles free = linkFree_[linkIndex(x, y, dir)];
                if (free <= after)
                    continue;
                out.push_back({x, y, dir, free});
                if (out.size() >= maxRows)
                    return;
            }
        }
    }
}

Cycles
Fabric::switchReconfig(int x, int y, Direction dir, Cycles notBefore)
{
    return reserveLink(x, y, dir, notBefore,
                       sim_.params().switchReconfigCycles) +
           sim_.params().switchReconfigCycles;
}

Cycles
Fabric::sendStream(int x, int y, Direction dir, uint32_t deliverMask,
                   PayloadRef payload, Cycles notBefore,
                   std::shared_ptr<const DeliveryFn> deliver, uint64_t tag)
{
    const ArchParams &p = sim_.params();
    const Cycles m = payload.data().size();
    WSC_ASSERT(m > 0, "empty stream");
    WSC_ASSERT(deliverMask != 0, "stream without deliveries");
    int maxDistance = 31;
    while (maxDistance > 0 && !(deliverMask >> maxDistance & 1))
        --maxDistance;

    // Injection: the sender's ramp moves m wavelets to its router.
    Pe &sender = sim_.pe(x, y);
    Cycles inject = sender.reserveWork(notBefore, m);
    Cycles injectDone = inject + m;

    // WSE2 switch configurations force a self-copy: the stream also
    // re-enters the sender's ramp, occupying it like a real reception.
    if (p.switchRequiresSelfTransmit)
        sender.reserveWork(injectDone, m);

    auto [dx, dy] = directionStep(dir);
    int nx = x + dx;
    int ny = y + dy;
    if (nx >= 0 && nx < sim_.width() && ny >= 0 && ny < sim_.height()) {
        size_t li = linkIndex(x, y, dir);
        bool dropPayload = false;
        if (payloadFaultsEnabled_) {
            // The injection ordinal is counted by the sender-owned
            // call, so which stream a fault hits is independent of the
            // thread count — per-link send order is fixed by the
            // deterministic event key, not by which shard the link
            // lands in.
            uint64_t nth = linkStreamCount_[li]++;
            for (const PayloadFaultEntry &f : payloadFaultsOfLink_[li]) {
                if (f.nthStream != nth)
                    continue;
                if (f.corrupt) {
                    payload = corruptCopy(sender, payload, li, nth);
                    sender.shardStats().payloadsCorrupted++;
                } else {
                    dropPayload = true;
                    sender.shardStats().payloadsDropped++;
                }
            }
        }
        if (linkFaultsEnabled_ && linkDownAt_[li] <= inject) {
            // Dead link: the wavelets leave the ramp and vanish.
            sender.shardStats().streamsDroppedByLinks++;
            return injectDone;
        }
        // The first hop's link belongs to the sender; reserve it at
        // injection time, then hand the stream to the segment chain.
        Cycles linkStart = reserveLink(x, y, dir, inject, m);
        Cycles headArrives =
            linkStart + p.hopCycles + linkExtra(li, linkStart);
        sender.shardStats().waveletsSent += m;
        if (dropPayload)
            return injectDone; // Lost in flight after the first hop.
        // currentShard(), not the sender's home shard: host-initiated
        // sends must draw their sequence numbers from the single host
        // counter or same-key ties become thread-count dependent.
        sim_.scheduleOnPe(
            sim_.peIndex(nx, ny), headArrives,
            Segment{this, std::move(payload), std::move(deliver), tag,
                    static_cast<int16_t>(nx), static_cast<int16_t>(ny),
                    static_cast<uint8_t>(dir), 1,
                    static_cast<uint8_t>(maxDistance), deliverMask},
            sim_.currentShard());
    }
    return injectDone;
}

void
Fabric::segmentArrive(Segment &seg)
{
    Pe &router = sim_.pe(seg.x, seg.y);
    Cycles headAt = router.now(); // the event fires at head arrival
    const Cycles m = seg.payload.data().size();

    if (seg.mask >> seg.hop & 1) {
        // Forward-and-deliver: the ramp transfer occupies the receiving
        // PE's work timeline; the chunk has landed when both the ramp
        // and the stream tail are done. The receiver is called now, at
        // head arrival, with that landing cycle.
        Cycles rampStart = router.reserveWork(headAt, m);
        Cycles landed = std::max(rampStart + m, headAt + m);
        (*seg.deliver)(StreamDelivery{seg.x, seg.y, seg.hop, landed,
                                      seg.payload, seg.tag});
    }

    if (seg.hop < seg.maxDist)
        forward(seg, router, headAt, m);
}

void
Fabric::forward(Segment &seg, Pe &router, Cycles headAt, Cycles m)
{
    const ArchParams &p = sim_.params();
    Direction dir = static_cast<Direction>(seg.dir);
    auto [dx, dy] = directionStep(dir);
    int nx = seg.x + dx;
    int ny = seg.y + dy;
    if (nx < 0 || nx >= sim_.width() || ny < 0 || ny >= sim_.height())
        return; // Edge of the grid: the route is truncated.

    size_t li = linkIndex(seg.x, seg.y, dir);
    if (linkFaultsEnabled_ && linkDownAt_[li] <= headAt) {
        // Mid-path link death: deliveries before this hop happened,
        // everything beyond it is lost.
        router.shardStats().streamsDroppedByLinks++;
        return;
    }

    // Wormhole forwarding: the outgoing link belongs to this router, so
    // the reservation is shard-local and time-ordered.
    Cycles linkStart = reserveLink(seg.x, seg.y, dir, headAt, m);
    Cycles headArrives = linkStart + p.hopCycles + linkExtra(li, linkStart);
    router.shardStats().waveletsSent += m;

    // The arriving segment dies with this event: hand its payload and
    // callback references on without touching their counts.
    Segment next = std::move(seg);
    next.x = static_cast<int16_t>(nx);
    next.y = static_cast<int16_t>(ny);
    next.hop = static_cast<uint8_t>(next.hop + 1);
    sim_.scheduleOnPe(sim_.peIndex(nx, ny), headArrives, std::move(next),
                      sim_.currentShard());
}

} // namespace wsc::wse
