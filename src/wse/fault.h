/**
 * @file
 * Deterministic fault injection and structured run diagnosis for the
 * wafer simulator.
 *
 * A FaultPlan is attached to SimOptions and describes misbehaviour to
 * inject into a run: PEs that halt or stutter at a given cycle, links
 * that fail hard or degrade (per-hop latency inflation), and individual
 * stream payloads that are corrupted or lost in flight. Every fault is
 * keyed off deterministic quantities only — cycle thresholds, per-link
 * injection ordinals, and a seeded mixing function — never off thread
 * interleaving, so a faulty `threads = N` run is bit-identical to the
 * faulty `threads = 1` run (pinned by `ctest -L faults`).
 *
 * On the detection side, SimDiagnosis is the structured replacement for
 * the old one-line "event budget exceeded" fatal: per-shard queue
 * depths, per-PE pending-task tables, the oldest blocked activations
 * reported by quiescence probes, the busiest PEs and the links still
 * reserved into the future. SimReport (wse/simulator.h) packages the
 * outcome of a run (completed / degraded / deadlock / budget-exceeded)
 * with the merged statistics (fault counters included) so callers —
 * tests, benches, the compile service — observe fault outcomes
 * programmatically instead of crashing or hanging.
 */

#ifndef WSC_WSE_FAULT_H
#define WSC_WSE_FAULT_H

#include <cstdint>
#include <string>
#include <vector>

#include "wse/fabric.h"

namespace wsc::wse {

/** Cycle value meaning "never" in fault thresholds. */
inline constexpr Cycles kNeverCycle = ~static_cast<Cycles>(0);

/** Permanently halt the compute element of PE (x, y) at cycle `at`.
 *  The PE's router keeps forwarding (on real hardware the fabric router
 *  is independent of the CE), but no further task dispatches happen:
 *  pending activations accumulate and show up in the diagnosis. */
struct PeHaltFault
{
    int x = 0;
    int y = 0;
    Cycles at = 0;
};

/** Multiply all work-timeline reservations of PE (x, y) by `factor`
 *  for reservations starting in [from, until). */
struct PeStutterFault
{
    int x = 0;
    int y = 0;
    Cycles from = 0;
    Cycles until = kNeverCycle;
    uint32_t factor = 2;
};

enum class LinkFaultKind : uint8_t
{
    /** The link carries nothing from `at` on: streams reaching it are
     *  dropped (deliveries before the dead hop still happen). */
    Drop,
    /** Every hop across the link takes `extraHopCycles` longer. */
    Degrade,
};

/** Fault on the outgoing link of PE (x, y) towards `dir`. */
struct LinkFault
{
    int x = 0;
    int y = 0;
    Direction dir = Direction::East;
    Cycles at = 0;
    LinkFaultKind kind = LinkFaultKind::Drop;
    Cycles extraHopCycles = 0;
};

enum class PayloadFaultKind : uint8_t
{
    /** One element of the payload is overwritten with a seeded garbage
     *  value before injection (only the faulted link's stream sees it:
     *  shared chunk slots are copied before corruption). */
    Corrupt,
    /** The stream's wavelets vanish after the first hop. */
    Drop,
};

/** Fault on the `nthStream`-th stream (0-based injection ordinal)
 *  injected on the outgoing link of PE (x, y) towards `dir`. The
 *  ordinal is counted on the link owner's shard, so selection is
 *  independent of the thread count. */
struct PayloadFault
{
    int x = 0;
    int y = 0;
    Direction dir = Direction::East;
    uint64_t nthStream = 0;
    PayloadFaultKind kind = PayloadFaultKind::Corrupt;
};

/** A seeded, deterministic schedule of faults for one run. */
struct FaultPlan
{
    /** Mixed into corruption element/value selection. */
    uint64_t seed = 0;
    std::vector<PeHaltFault> peHalts;
    std::vector<PeStutterFault> peStutters;
    std::vector<LinkFault> linkFaults;
    std::vector<PayloadFault> payloadFaults;

    /// @name Fluent builders
    /// @{
    FaultPlan &haltPe(int x, int y, Cycles at);
    FaultPlan &stutterPe(int x, int y, Cycles from, Cycles until,
                         uint32_t factor);
    FaultPlan &dropLink(int x, int y, Direction dir, Cycles at);
    FaultPlan &degradeLink(int x, int y, Direction dir, Cycles at,
                           Cycles extraHopCycles);
    FaultPlan &corruptPayload(int x, int y, Direction dir, uint64_t nth);
    FaultPlan &dropPayload(int x, int y, Direction dir, uint64_t nth);
    /// @}

    bool
    empty() const
    {
        return peHalts.empty() && peStutters.empty() &&
               linkFaults.empty() && payloadFaults.empty();
    }
};

/** splitmix64: the deterministic mixer behind corruption selection. */
uint64_t faultMix(uint64_t v);

/** Finite (never NaN/inf) garbage float derived from (seed, salt). */
float faultCorruptionValue(uint64_t seed, uint64_t salt);

/** How a simulation run ended. */
enum class SimOutcome : uint8_t
{
    /** Queues drained with no outstanding obligations anywhere. */
    Completed,
    /** Queues drained; faulted PEs left partial results behind
     *  (halted or timeout-degraded PEs), everything else finished. */
    Degraded,
    /** Queues drained but a non-halted PE still has pending tasks or a
     *  blocked exchange: the run can never make progress again. */
    Deadlock,
    /** The event budget was exhausted with events still queued
     *  (livelock or a genuinely under-budgeted run). */
    EventBudgetExceeded,
};

const char *simOutcomeName(SimOutcome outcome);

/** One shard's queue state at diagnosis time. */
struct ShardQueueInfo
{
    int shard = 0;
    size_t depth = 0;
    /** Cycle of the next queued event (meaningful when depth > 0). */
    Cycles nextAt = 0;
    /** Cross-shard outbox entries not yet drained. */
    size_t outboxPending = 0;
};

/** One undispatched task activation sitting on a PE. */
struct PendingTaskInfo
{
    int x = 0;
    int y = 0;
    std::string task;
    Cycles readyAt = 0;
    /** Further activations queued behind this one on the same PE. */
    size_t queuedBehind = 0;
    /** Whether the PE was halted by the fault plan (expected-dead). */
    bool peHalted = false;
};

/**
 * One blocked obligation reported by a quiescence probe (e.g. a
 * StarComm exchange still waiting for sections, or a PE whose program
 * never returned control to the host).
 */
struct BlockedPeInfo
{
    int x = 0;
    int y = 0;
    /** Human-readable description of what the PE is waiting for. */
    std::string what;
    /** Cycle since which the PE has been blocked. */
    Cycles since = 0;
    /** Filled by the simulator after collection. */
    bool peHalted = false;
};

/** A PE ranked by how many events it still owns in the queues. */
struct BusyPeInfo
{
    int x = 0;
    int y = 0;
    size_t queuedEvents = 0;
};

/** A link still reserved past the diagnosis cycle (in-flight tail). */
struct BusyLinkInfo
{
    int x = 0;
    int y = 0;
    Direction dir = Direction::East;
    Cycles busyUntil = 0;
};

/**
 * Structured post-mortem of a run that did not complete cleanly,
 * produced by the quiescence watchdog instead of a one-line fatal.
 * Row lists are bounded samples (WSC_DIAG_ROWS, default 16); the
 * `*Total` counters carry the full population sizes.
 */
struct SimDiagnosis
{
    SimOutcome outcome = SimOutcome::Completed;
    Cycles atCycle = 0;
    uint64_t eventsProcessed = 0;
    /** The budget that was exceeded (EventBudgetExceeded only). */
    uint64_t eventBudget = 0;
    std::vector<ShardQueueInfo> queues;
    std::vector<PendingTaskInfo> pendingTasks;
    size_t pendingTaskTotal = 0;
    /** Oldest blocked first. */
    std::vector<BlockedPeInfo> blockedPes;
    size_t blockedPeTotal = 0;
    std::vector<BusyPeInfo> busiestPes;
    std::vector<BusyLinkInfo> busyLinks;

    /** Multi-line human-readable dump (fatal messages, logs). */
    std::string toString() const;
};

} // namespace wsc::wse

#endif // WSC_WSE_FAULT_H
