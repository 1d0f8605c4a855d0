/**
 * @file
 * Fabric model: per-link wavelet stream reservations between neighbouring
 * routers, multicast (forward-and-deliver) routes used by star-shaped
 * stencil communication, and the WSE2 self-transmit behaviour.
 *
 * A stream is simulated as a chain of per-hop segment events: the event
 * at router h fires when the stream head arrives there, performs the
 * local ramp delivery (when h is a delivery hop) and reserves the next
 * outgoing link. A delivery is a call inside that event that is told
 * the cycle the chunk will have landed; the fabric schedules no landing
 * events, so a stream costs one event per hop, and the receiver
 * schedules only what must wait for the landing. Each segment moves its
 * payload and callback references into the next one. Because each
 * hop's link and the receiving PE's work timeline belong to that
 * router's own PE, every mutation a segment performs is local to the
 * shard (column strip) executing it, and a segment crossing a strip
 * boundary always lies at least one hop latency in the future — the
 * conservative-window guarantee the sharded simulator relies on.
 *
 * Payloads are carried by reference-counted PayloadRef handles into the
 * sending shard's recycled ring (wse/payload.h): one chunk fanned out in
 * several directions shares one buffer and copies nothing per delivery.
 */

#ifndef WSC_WSE_FABRIC_H
#define WSC_WSE_FABRIC_H

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "wse/arch_params.h"
#include "wse/payload.h"

namespace wsc::wse {

class Simulator;
class Pe;
struct FaultPlan;
struct BusyLinkInfo;

/** The four cardinal routing directions. */
enum class Direction { East, West, North, South };

/** Unit step of a direction in grid coordinates. */
std::pair<int, int> directionStep(Direction d);
/** Short name ("E", "W", "N", "S"). */
const char *directionName(Direction d);
/** All four directions in library send order. */
const std::vector<Direction> &allDirections();

/**
 * Delivery record handed to a stream delivery callback at head
 * arrival. Holds a reference to the payload slot, pinning it for the
 * call (or longer, if the callback retains the reference).
 */
struct StreamDelivery
{
    int peX = 0;          ///< receiving PE
    int peY = 0;
    int distance = 1;     ///< hops from the sender
    Cycles completeAt = 0;///< cycle at which the chunk has fully landed
    PayloadRef payload;   ///< the delivered chunk (refcounted)
    uint64_t tag = 0;     ///< the sender's Fabric::sendStream tag
};

using DeliveryFn = std::function<void(const StreamDelivery &)>;

/**
 * Models the wafer interconnect between the simulated PEs. Each link
 * (one per direction per PE pair) carries one wavelet per cycle; a
 * multi-hop multicast stream reserves every link along its path as its
 * head reaches it, so contention between overlapping streams emerges
 * from time-ordered reservations.
 */
class Fabric
{
  public:
    explicit Fabric(Simulator &sim);

    /**
     * Send the chunk held in `payload` (a slot of the sender's
     * payloadPool(), one wavelet per element) from PE (x, y) towards
     * `dir`, forwarding up to the highest hop set in `deliverMask` and
     * delivering to the PEs at exactly the set hops (bit h = deliver at
     * hop h, 1 <= h < 32; forward-and-deliver multicast, hops not set
     * forward without a ramp delivery). Streams that would leave the
     * grid are truncated at the edge.
     *
     * `notBefore` is the earliest injection cycle; injection also
     * reserves the sender's work timeline (ramp-to-router transfer). On
     * architectures with switchRequiresSelfTransmit the sender receives
     * its own copy, occupying its work timeline like a real reception.
     *
     * `deliver` runs once per receiving PE at head arrival, right after
     * the receiver's work timeline reservation for the ramp transfer,
     * inside the event owned by the receiver. StreamDelivery::completeAt
     * is the landing cycle (> now): the callback may read and keep the
     * payload at once, but anything the receiver must not observe
     * before the chunk has landed it schedules itself, at completeAt.
     * It receives `tag` back in StreamDelivery::tag, so one shared
     * callback can serve many streams (StarComm packs chunk and epoch).
     *
     * Returns the cycle at which injection completes on the sender.
     */
    Cycles sendStream(int x, int y, Direction dir, uint32_t deliverMask,
                      PayloadRef payload, Cycles notBefore,
                      std::shared_ptr<const DeliveryFn> deliver,
                      uint64_t tag);

    /**
     * Charge the per-direction switch reconfiguration overhead at the
     * sending router (advancing switch positions between chunks).
     */
    Cycles switchReconfig(int x, int y, Direction dir, Cycles notBefore);

    /**
     * Install the fault plan's link failure/degradation tables and
     * per-link payload fault schedules (called once by the Simulator
     * constructor). An empty plan leaves every fault branch disabled
     * and the hot path byte-identical to a fault-free build.
     */
    void applyFaultPlan(const FaultPlan &plan);

    /** Links still reserved past `after` (diagnosis; ≤ maxRows rows). */
    void collectBusyLinks(Cycles after, size_t maxRows,
                          std::vector<BusyLinkInfo> &out) const;

  private:
    /** In-flight stream state between two hop events. */
    struct Segment
    {
        Fabric *fab;
        PayloadRef payload;
        std::shared_ptr<const DeliveryFn> deliver;
        uint64_t tag;       ///< handed back in StreamDelivery::tag
        int16_t x, y;       ///< router the head is arriving at
        uint8_t dir;        ///< Direction
        uint8_t hop;        ///< hop distance of (x, y) from the sender
        uint8_t maxDist;    ///< last hop of the route
        uint32_t mask;      ///< deliver-at-hop bitmask

        void operator()() { fab->segmentArrive(*this); }
    };

    /** Runs at head-arrival time on the shard owning router (x, y):
     *  delivers (on a delivery hop), then forwards. */
    void segmentArrive(Segment &seg);
    /** Reserve the next link and schedule the following segment,
     *  moving `seg`'s references into it. */
    void forward(Segment &seg, Pe &router, Cycles headAt, Cycles m);

    /** Reserve `n` wavelet slots on a link; returns the actual start. */
    Cycles reserveLink(int x, int y, Direction dir, Cycles from, Cycles n);

    /** Flat index of the outgoing link at (x, y) towards dir. */
    size_t linkIndex(int x, int y, Direction dir) const;

    /** Degrade latency of link `li` for a head starting at `start`. */
    Cycles linkExtra(size_t li, Cycles start) const;
    /** Copy-and-corrupt a payload for one faulted stream (the original
     *  slot may be shared with other directions of the same chunk). */
    PayloadRef corruptCopy(Pe &sender, const PayloadRef &payload,
                           size_t li, uint64_t nth);

    Simulator &sim_;
    /** Dense per-link next-free-cycle table, sized width*height*4 at
     *  construction. Each link is only ever touched by events owned by
     *  its own PE, so entries are shard-partitioned by strip. */
    std::vector<Cycles> linkFree_;

    /// @name Fault injection (wse/fault.h)
    /// All tables are indexed like linkFree_ and, like it, only touched
    /// by events owned by the link's PE — mutation stays owner-
    /// partitioned and the injected behaviour thread-count independent.
    /// @{
    /** One scheduled payload fault on a link. */
    struct PayloadFaultEntry
    {
        uint64_t nthStream;
        bool corrupt; ///< false = drop
    };
    bool linkFaultsEnabled_ = false;
    bool payloadFaultsEnabled_ = false;
    uint64_t faultSeed_ = 0;
    /** Cycle each link dies (never by default). */
    std::vector<Cycles> linkDownAt_;
    /** Start of each link's degradation window (never by default). */
    std::vector<Cycles> linkExtraFrom_;
    /** Extra cycles per hop once degraded. */
    std::vector<Cycles> linkExtraCycles_;
    /** Injection ordinal per link (payload fault selection). */
    std::vector<uint64_t> linkStreamCount_;
    /** Scheduled payload faults per link. */
    std::vector<std::vector<PayloadFaultEntry>> payloadFaultsOfLink_;
    /// @}
};

} // namespace wsc::wse

#endif // WSC_WSE_FABRIC_H
