#include "wse/fault.h"

#include <sstream>

namespace wsc::wse {

FaultPlan &
FaultPlan::haltPe(int x, int y, Cycles at)
{
    peHalts.push_back({x, y, at});
    return *this;
}

FaultPlan &
FaultPlan::stutterPe(int x, int y, Cycles from, Cycles until,
                     uint32_t factor)
{
    peStutters.push_back({x, y, from, until, factor});
    return *this;
}

FaultPlan &
FaultPlan::dropLink(int x, int y, Direction dir, Cycles at)
{
    linkFaults.push_back({x, y, dir, at, LinkFaultKind::Drop, 0});
    return *this;
}

FaultPlan &
FaultPlan::degradeLink(int x, int y, Direction dir, Cycles at,
                       Cycles extraHopCycles)
{
    linkFaults.push_back(
        {x, y, dir, at, LinkFaultKind::Degrade, extraHopCycles});
    return *this;
}

FaultPlan &
FaultPlan::corruptPayload(int x, int y, Direction dir, uint64_t nth)
{
    payloadFaults.push_back({x, y, dir, nth, PayloadFaultKind::Corrupt});
    return *this;
}

FaultPlan &
FaultPlan::dropPayload(int x, int y, Direction dir, uint64_t nth)
{
    payloadFaults.push_back({x, y, dir, nth, PayloadFaultKind::Drop});
    return *this;
}

uint64_t
faultMix(uint64_t v)
{
    // splitmix64 finalizer: cheap, full-avalanche, and stable across
    // platforms — the corruption schedule must never depend on libc rand.
    v += 0x9e3779b97f4a7c15ULL;
    v = (v ^ (v >> 30)) * 0xbf58476d1ce4e5b9ULL;
    v = (v ^ (v >> 27)) * 0x94d049bb133111ebULL;
    return v ^ (v >> 31);
}

float
faultCorruptionValue(uint64_t seed, uint64_t salt)
{
    uint64_t m = faultMix(seed ^ faultMix(salt));
    // A finite garbage value: NaN would break bitwise run comparisons
    // (NaN != NaN), and the point of seeded corruption is that two runs
    // of the same plan observe the same wrong bits.
    int32_t mantissa = static_cast<int32_t>(m & 0xffffff) - 0x800000;
    return static_cast<float>(mantissa) * 1.0e3f;
}

const char *
simOutcomeName(SimOutcome outcome)
{
    switch (outcome) {
    case SimOutcome::Completed:
        return "completed";
    case SimOutcome::Degraded:
        return "degraded";
    case SimOutcome::Deadlock:
        return "deadlock";
    case SimOutcome::EventBudgetExceeded:
        return "event-budget-exceeded";
    }
    return "unknown";
}

std::string
SimDiagnosis::toString() const
{
    std::ostringstream os;
    os << "simulation " << simOutcomeName(outcome) << " at cycle "
       << atCycle << " after " << eventsProcessed << " events";
    if (outcome == SimOutcome::EventBudgetExceeded)
        os << " (event budget " << eventBudget << ")";
    os << "\n";

    if (!queues.empty()) {
        os << "  event queues:\n";
        for (const ShardQueueInfo &q : queues) {
            os << "    shard " << q.shard << ": depth " << q.depth;
            if (q.depth > 0)
                os << ", next event at cycle " << q.nextAt;
            if (q.outboxPending > 0)
                os << ", " << q.outboxPending
                   << " cross-shard events pending in outboxes";
            os << "\n";
        }
    }

    if (blockedPeTotal > 0) {
        os << "  blocked PEs (" << blockedPeTotal << " total, oldest first";
        if (blockedPes.size() < blockedPeTotal)
            os << ", showing " << blockedPes.size();
        os << "):\n";
        for (const BlockedPeInfo &b : blockedPes) {
            os << "    PE (" << b.x << ", " << b.y << "): " << b.what
               << " since cycle " << b.since;
            if (b.peHalted)
                os << " [halted by fault plan]";
            os << "\n";
        }
    }

    if (pendingTaskTotal > 0) {
        os << "  pending task activations (" << pendingTaskTotal
           << " total";
        if (pendingTasks.size() < pendingTaskTotal)
            os << ", showing " << pendingTasks.size();
        os << "):\n";
        for (const PendingTaskInfo &t : pendingTasks) {
            os << "    PE (" << t.x << ", " << t.y << "): task '" << t.task
               << "' ready at cycle " << t.readyAt;
            if (t.queuedBehind > 0)
                os << " (+" << t.queuedBehind << " queued behind)";
            if (t.peHalted)
                os << " [halted by fault plan]";
            os << "\n";
        }
    }

    if (!busiestPes.empty()) {
        os << "  busiest PEs by queued events:\n";
        for (const BusyPeInfo &p : busiestPes)
            os << "    PE (" << p.x << ", " << p.y << "): "
               << p.queuedEvents << " queued\n";
    }

    if (!busyLinks.empty()) {
        os << "  links reserved past the final cycle:\n";
        for (const BusyLinkInfo &l : busyLinks)
            os << "    (" << l.x << ", " << l.y << ") "
               << directionName(l.dir) << ": busy until cycle "
               << l.busyUntil << "\n";
    }

    return os.str();
}

} // namespace wsc::wse
