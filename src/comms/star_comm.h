/**
 * @file
 * The runtime communications library (paper §5.6): chunked asynchronous
 * halo exchanges for star-shaped stencils of up to radius 3+ at variable
 * stencil sizes, following the partitionable strategy of Jacquelin et al.
 *
 * One StarComm instance serves one csl.comms_exchange site: it owns the
 * per-PE receive buffer and the arrival bookkeeping that drives the
 * user-provided receive-chunk and done-exchange callbacks. Streams are
 * timed and delivered by the fabric from the exchange's own send plan
 * (wse/fabric.h); no router configuration is modelled.
 *
 * Properties the paper credits for the generated code's edge over the
 * hand-written kernel are expressed here as configuration:
 *  - only data required by the calculation is communicated (the access
 *    list and the trim of unused leading/trailing column values);
 *  - communication can proceed in a single chunk when memory allows;
 *  - a single receive-chunk task per chunk (not per direction), roughly
 *    halving task activations;
 *  - coefficients can be applied to incoming data at zero cost while it
 *    lands (comms/compute interleaving).
 */

#ifndef WSC_COMMS_STAR_COMM_H
#define WSC_COMMS_STAR_COMM_H

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "support/vec_fifo.h"
#include "wse/pe.h"
#include "wse/simulator.h"

namespace wsc::comms {

/** One remote access: the axis-aligned offset of the source PE. */
struct Access
{
    int dx = 0;
    int dy = 0;

    bool operator==(const Access &other) const = default;
    int distance() const { return dx != 0 ? std::abs(dx) : std::abs(dy); }
};

/**
 * Canonical ordering of accesses: by source direction (E, W, N, S), then
 * by distance. The lowering pass and the receive-buffer layout must agree
 * on this order.
 */
std::vector<Access> canonicalAccessOrder(std::vector<Access> accesses);

/** Configuration of one exchange site. */
struct StarCommConfig
{
    /** Remote offsets the stencil accesses (canonically ordered). */
    std::vector<Access> accesses;
    /** Full column length. */
    int64_t zSize = 0;
    /** Number of chunks the column is split into. */
    int64_t numChunks = 1;
    /** Leading column elements not required remotely (not sent). */
    int64_t trimFirst = 0;
    /** Trailing column elements not required remotely (not sent). */
    int64_t trimLast = 0;
    /**
     * Coefficients applied to incoming data while it lands, one per
     * access (same order); empty disables promotion.
     */
    std::vector<double> coeffs;
    /** Name of the per-PE receive buffer this instance allocates. */
    std::string recvBufferName = "recv_buffer";
    /**
     * When set, the receive callback is activated once per landed
     * (section, chunk) instead of once per completed chunk — the task
     * structure of the hand-written kernel (per-direction tasks), which
     * roughly doubles activations (paper §6.1).
     */
    bool perSectionCallbacks = false;
};

/** Per-instance communication statistics. */
struct StarCommStats
{
    uint64_t exchangesStarted = 0;
    uint64_t chunksDelivered = 0;
    uint64_t recvCallbacks = 0;
    /** Exchange watchdog firings (wse/fault.h; 0 without faults). */
    uint64_t timeouts = 0;
};

/** One exchange site of the runtime library. */
class StarComm
{
  public:
    StarComm(wse::Simulator &sim, StarCommConfig config);
    /** Delivery callbacks and timers capture `this`. */
    StarComm(const StarComm &) = delete;
    StarComm &operator=(const StarComm &) = delete;

    const StarCommConfig &config() const { return config_; }

    /**
     * Allocate the receive buffer on every PE. Must be called once
     * before the first exchange.
     */
    void setup();

    /**
     * Start an exchange from a running task on ctx's PE: sends the
     * chunked (trimmed) column of `sendBuf`, then activates
     * `recvCb` once per chunk as it completes (once per landed section
     * with perSectionCallbacks) and `doneCb` at the end. The receive
     * task materializes its piece with popCompletedChunkOffset() (or
     * popCompletedSection()).
     *
     * The handle overload is the hot path: callers that pre-resolve the
     * buffer and callback tasks once (interpreter configure, baseline
     * registration) incur no string lookups per exchange. The string
     * overload resolves on ctx's PE and delegates.
     */
    void exchange(wse::TaskContext &ctx, wse::BufferId sendBuf,
                  wse::TaskId recvCb, wse::TaskId doneCb);
    void exchange(wse::TaskContext &ctx, const std::string &sendBufName,
                  const std::string &recvCb, const std::string &doneCb);

    /** Elements of one chunk (per access section). */
    int64_t chunkElems() const;
    /** Elements communicated per column (zSize - trims). */
    int64_t commElems() const;
    /** Number of receive-buffer sections (== accesses). */
    int64_t numSections() const
    {
        return static_cast<int64_t>(config_.accesses.size());
    }
    /** Section index of an access offset; -1 when absent. */
    int sectionIndex(int dx, int dy) const;
    /** Bytes of PE memory the receive buffer occupies. */
    int64_t recvBufferBytes() const;

    /**
     * Inside a receive-chunk callback: materialize the oldest announced
     * chunk into the receive buffer and return its accumulator-relative
     * offset (chunkIndex * chunkElems).
     */
    int64_t popCompletedChunkOffset(wse::Pe &pe);

    /**
     * Per-section mode: materialize the oldest announced section and
     * return its (section, accumulator-relative offset).
     */
    std::pair<int, int64_t> popCompletedSection(wse::Pe &pe);

    /** Aggregate statistics, summed across PEs on each call. */
    StarCommStats stats() const;

    /** Expected number of arriving sections for PE (x, y); 0 marks a
     *  boundary (non-computing) PE. */
    int expectedSections(int x, int y) const;

  private:
    /**
     * Bookkeeping for one exchange epoch on one PE. Data arriving before
     * the PE has started the matching exchange is stashed here — the
     * hardware equivalent of wavelets waiting in the input queues.
     *
     * The receive callback fires once per *unit*: a whole chunk, or one
     * (chunk, section) piece with perSectionCallbacks. Unit u covers the
     * sectionsPerUnit() stash entries from u * sectionsPerUnit().
     *
     * The fabric delivers a section when its stream head reaches the
     * PE: it is stashed and counted in UnitState::arrivals then. The
     * unit's last arrival schedules one event at its landing cycle,
     * which sets `landed` and announces the unit if its exchange is
     * active; an exchange that starts later announces the units
     * already `landed`.
     */
    struct UnitState
    {
        int arrivals = 0;       ///< sections whose head has arrived
        bool landed = false;    ///< all sections have landed
        bool announced = false; ///< recvCb issued
    };
    struct EpochState
    {
        std::vector<UnitState> units;
        /** stash[chunk * numSections + section] pins the arrived payload
         *  slot (no copy) until the receive callback materializes it. */
        std::vector<wse::PayloadRef> stash;
        wse::Cycles senderInjectDone = 0;
        /**
         * Set when the exchange watchdog gave up waiting: outstanding
         * chunks were force-announced and their missing sections read
         * as zeros (graceful degradation under injected faults). A
         * section whose head had arrived reads as delivered, landed or
         * not: its ramp transfer ends before the receive task starts.
         */
        bool degraded = false;
    };

    struct PeState
    {
        int64_t activeEpoch = 0;
        bool exchangeActive = false;
        /** Cycle the active exchange started (watchdog/diagnosis). */
        wse::Cycles exchangeStart = 0;
        /** Units announced in the active exchange. */
        int announcedUnits = 0;
        /** Callback tasks of the active exchange (resolved handles). */
        wse::TaskId recvCb;
        wse::TaskId doneCb;
        /** This PE's receive buffer (resolved once at setup()). */
        wse::BufferId recvBuf;
        std::map<int64_t, EpochState> epochs;
        /** One pruned epoch node, re-keyed by the next new epoch so a
         *  steady exchange sequence allocates no epoch state. */
        std::map<int64_t, EpochState>::node_type spare;
        /** (epoch, unit) queue of announced, not yet popped units. */
        VecFifo<std::pair<int64_t, int64_t>> pending;
        /** Shard-safe statistics: counters live with the PE that
         *  increments them; stats() sums across PEs. */
        StarCommStats stats;
    };

    /** One send plan entry: all sections travelling one direction. */
    struct PlanEntry
    {
        wse::Direction dir;
        /** (distance, section index), ascending by distance. */
        std::vector<std::pair<int, int>> sections;
        /** Shared by every stream of this direction; the stream tag
         *  (streamTag) carries the chunk and epoch. */
        std::shared_ptr<const wse::DeliveryFn> deliver;
    };

    PeState &state(int x, int y);
    int computeExpectedSections(int x, int y) const;
    /** Stash entries per announcement unit (1 or numSections()). */
    int64_t sectionsPerUnit() const;
    /** Announcement units per exchange on a receiving PE. */
    int64_t numUnits() const;
    /** The epoch's bookkeeping, created (or re-keyed from the spare
     *  node) on first use by either side. */
    EpochState &epochState(PeState &st, int64_t epoch);
    /** The head of section `accessIdx` of the chunk and epoch packed
     *  in delivery.tag (streamTag) reached the PE; it lands at
     *  delivery.completeAt. */
    void onDelivery(const wse::StreamDelivery &delivery, int accessIdx);
    /** Landing event of a unit's last section. */
    void onUnitLanded(wse::Pe &pe, int64_t epoch, int64_t unit);
    void announce(wse::Pe &pe, PeState &st, EpochState &es, int64_t unit,
                  wse::Cycles readyAt);
    /**
     * Pop the oldest announced unit and materialize it into the receive
     * buffer; returns its first stash index (chunk * numSections +
     * section).
     */
    int64_t popUnit(wse::Pe &pe);
    void finishExchange(wse::Pe &pe, PeState &st, EpochState &es,
                        wse::Cycles readyAt);
    void pruneEpochs(PeState &st, int64_t currentEpoch);

    /// @name Exchange watchdog (wse/fault.h)
    /// Armed per exchange when SimOptions::exchangeTimeoutCycles > 0.
    /// Timers are events owned by the waiting PE, so they replay
    /// identically at any thread count; a timer that fires after its
    /// exchange completed is stale and does nothing.
    /// @{
    /** Arm attempt `attempt`'s deadline, `timeout << attempt` cycles
     *  after `from` (exponential backoff). */
    void scheduleTimeout(wse::Pe &pe, int64_t epoch, int attempt,
                         wse::Cycles from);
    void onExchangeTimeout(wse::Pe &pe, int64_t epoch, int attempt);
    /**
     * Give up on the active exchange: announce every outstanding unit
     * so the program continues, with never-delivered sections
     * zero-filled at materialization. Records the PE as degraded on the
     * SimReport.
     */
    void degradeExchange(wse::Pe &pe, PeState &st, EpochState &es,
                         wse::Cycles readyAt);
    /// @}

    wse::Simulator &sim_;
    StarCommConfig config_;
    std::vector<PeState> states_;
    /** Expected arriving sections per PE (0 marks a boundary PE). */
    std::vector<int> expected_;
    /** Deliveries grouped by travel direction (derived from config). */
    std::vector<PlanEntry> plan_;
    bool setupDone_ = false;
};

} // namespace wsc::comms

#endif // WSC_COMMS_STAR_COMM_H
