/**
 * @file
 * Processing-element model: private memory with capacity accounting,
 * actor-style tasks dispatched one at a time, and a single work
 * timeline on which compute and ramp transfers serialize (see
 * simulator.h for the timing-model rationale).
 *
 * Tasks, buffers and scalars are identified by dense handles (TaskId /
 * BufferId / ScalarId) into flat per-PE vectors; every per-activation
 * and per-access hot path is an O(1) index. Their names are PeNames
 * interned once in the simulator's name pool, so a PE stores 8-byte
 * name pointers, not strings. A PE allocates nothing until its first
 * buffer, scalar, task or activation.
 * The string-named API interns (or scans) and delegates; it serves
 * tests and hand-written kernels.
 */

#ifndef WSC_WSE_PE_H
#define WSC_WSE_PE_H

#include <array>
#include <cstdint>
#include <functional>
#include <memory>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "support/vec_fifo.h"
#include "wse/arch_params.h"

namespace wsc::wse {

class Simulator;
class Shard;
class PayloadPool;
struct SimStats;

/** Dense handle of a task registered on one PE. */
struct TaskId
{
    int32_t index = -1;
    bool valid() const { return index >= 0; }
    bool operator==(const TaskId &) const = default;
};

/** Dense handle of a named buffer on one PE. */
struct BufferId
{
    int32_t index = -1;
    bool valid() const { return index >= 0; }
    bool operator==(const BufferId &) const = default;
};

/** Dense handle of a module-level scalar variable on one PE. */
struct ScalarId
{
    int32_t index = -1;
    bool valid() const { return index >= 0; }
    bool operator==(const ScalarId &) const = default;
};

/**
 * A task, buffer or scalar name interned in a simulator's name pool
 * (Simulator::internName). Equal names share one pooled string that
 * lives as long as the simulator, so PEs store and compare the pointer.
 */
class PeName
{
  public:
    PeName() = default;
    bool valid() const { return str_ != nullptr; }
    const std::string &str() const { return *str_; }
    bool operator==(const PeName &) const = default;

  private:
    friend class Simulator;
    explicit PeName(const std::string *str) : str_(str) {}

    const std::string *str_ = nullptr;
};

/**
 * Context passed to an executing task. Tasks account their compute cost
 * through consume()/dsdOp() and may activate other tasks or launch
 * asynchronous operations.
 */
class TaskContext
{
  public:
    TaskContext(Simulator &sim, class Pe &pe, Cycles ready, Cycles start)
        : sim_(sim), pe_(pe), ready_(ready), start_(start)
    {
    }

    Simulator &sim() { return sim_; }
    class Pe &pe() { return pe_; }

    /** The ready cycle the activation named (Pe::activate's readyAt);
     *  the task starts no earlier, but later when the PE is busy. */
    Cycles readyCycle() const { return ready_; }
    /** Cycle at which the task began executing. */
    Cycles startCycle() const { return start_; }
    /** Current logical time inside the task (start + consumed). */
    Cycles currentCycle() const { return start_ + consumed_; }
    /** Total cycles consumed so far. */
    Cycles consumed() const { return consumed_; }

    /** Charge raw cycles of core time. */
    void consume(Cycles cycles) { consumed_ += cycles; }

    /**
     * Charge one DSD builtin over `elems` elements, updating FLOP stats
     * with `flopsPerElem` and memory traffic with `bytesPerElem`
     * (default: two 4-byte reads + one 4-byte write).
     */
    void dsdOp(uint64_t elems, int flopsPerElem, int bytesPerElem = 12);

  private:
    Simulator &sim_;
    class Pe &pe_;
    Cycles ready_;
    Cycles start_;
    Cycles consumed_ = 0;
};

using TaskFn = std::function<void(TaskContext &)>;

/** One simulated processing element. */
class Pe
{
  public:
    /** Constructed by Simulator: `shard` owns this PE's column strip and
     *  `id` is the dense grid index used in event-ordering keys. */
    Pe(Simulator &sim, Shard &shard, int x, int y, uint32_t id);
    /** Events and tasks hold the PE's address. */
    Pe(const Pe &) = delete;
    Pe &operator=(const Pe &) = delete;

    int x() const { return x_; }
    int y() const { return y_; }
    /** Dense grid index (x * height + y). */
    uint32_t id() const { return id_; }

    /// @name Shard facade
    /// All of this PE's scheduling, time and statistics go through its
    /// owning shard, keeping the hot paths shard-local and lock-free.
    /// @{
    Shard &shard() { return shard_; }
    /** The owning shard's clock (== global clock at threads=1). */
    Cycles now() const;
    /** The owning shard's statistics accumulator. */
    SimStats &shardStats();
    /** The owning shard's payload ring. */
    PayloadPool &payloadPool();
    /// @}

    /// @name Memory
    /// @{
    /**
     * Allocate a named f32 buffer and return its dense handle; throws
     * FatalError when the 48 kB PE memory would be exceeded; a name
     * may be allocated once.
     */
    BufferId allocBufferId(PeName name, size_t elems);
    BufferId allocBufferId(const std::string &name, size_t elems);
    /** Name-based convenience wrapper around allocBufferId(). */
    std::vector<float> &allocBuffer(const std::string &name, size_t elems);
    /** O(1) access through the dense handle (hot path). */
    std::vector<float> &
    buffer(BufferId id)
    {
        checkBuffer(id);
        return slot(id.index).data;
    }
    std::vector<float> &buffer(const std::string &name);
    /** Resolve a buffer name; panics when unknown. */
    BufferId bufferId(const std::string &name) const;
    /** Resolve a buffer name; invalid handle when unknown. */
    BufferId findBuffer(const std::string &name) const;
    size_t memoryBytesUsed() const { return bytesUsed_; }
    /// @}

    /// @name Scalar state (module-level variables)
    /// @{
    /**
     * Intern a scalar name to its dense handle (creates the scalar,
     * value 0, on first use — the resolve-once registration step).
     */
    ScalarId scalarId(PeName name);
    ScalarId scalarId(const std::string &name);
    /** O(1) access through the dense handle (hot path). References are
     *  invalidated by interning further scalars, so resolve all names
     *  before holding references across calls. */
    double &
    scalar(ScalarId id)
    {
        checkScalar(id);
        return scalars_[static_cast<size_t>(id.index)].value;
    }
    /** Unchecked O(1) access for handles pre-validated at configure
     *  time (the interpreter's tier-3 contract): no validity branch on
     *  the per-instruction path. */
    double &
    scalarUnchecked(ScalarId id)
    {
        return scalars_[static_cast<size_t>(id.index)].value;
    }
    double &scalar(const std::string &name) { return scalar(scalarId(name)); }
    /// @}

    /// @name Tasks
    /// @{
    /**
     * Register a task. Not allowed from a task running on this PE: the
     * task table is a vector, and growing it would move the running
     * closure.
     */
    TaskId registerTask(PeName name, TaskFn fn);
    TaskId registerTask(const std::string &name, TaskFn fn);
    /** Resolve a registered task name; panics when unknown. */
    TaskId taskId(const std::string &name) const;
    /**
     * Request activation of a task as of cycle `readyAt`; it dispatches
     * when the PE work timeline is free, after the activation overhead.
     * The TaskId overload is the O(1) hot path.
     */
    void activate(TaskId task, Cycles readyAt);
    void activate(const std::string &name, Cycles readyAt);
    /// @}

    /// @name Work timeline
    /// @{
    /**
     * Reserve `n` cycles of the PE work timeline no earlier than `from`;
     * returns the cycle at which the reservation starts. A stutter fault
     * whose window contains the start multiplies `n`.
     */
    Cycles reserveWork(Cycles from, Cycles n);
    /** Next free cycle on the work timeline. */
    Cycles workFree() const { return workFree_; }
    /// @}

    /// @name Fault injection (wse/fault.h; configured by the Simulator)
    /// @{
    /**
     * Halt the compute element from cycle `at` on: no task dispatches
     * happen at or after the threshold. Activations keep queueing on
     * pending_ so the diagnosis can name what the dead PE never ran.
     * Halting is a pure threshold — it schedules no events and perturbs
     * no event ordering, so fault-free state is untouched.
     */
    void setHaltAt(Cycles at) { haltAt_ = at; }
    /** The halt threshold (max Cycles when never halting). */
    Cycles haltAt() const { return haltAt_; }
    /** Whether the CE is halted as of cycle `c`. */
    bool haltedAt(Cycles c) const { return c >= haltAt_; }
    /** Whether the CE is halted at the current shard time. */
    bool halted() const { return haltedAt(now()); }
    /** Multiply work reservations starting in [from, until) by factor. */
    void
    setStutter(Cycles from, Cycles until, uint32_t factor)
    {
        stutterFrom_ = from;
        stutterUntil_ = until;
        stutterFactor_ = factor;
    }
    /// @}

    /// @name Diagnosis introspection
    /// @{
    /** Activations not yet dispatched: (task index, readyAt), oldest
     *  first. */
    std::span<const std::pair<int32_t, Cycles>>
    pendingActivations() const
    {
        return pending_.view();
    }
    /** Registered name of a task index (diagnosis tables). */
    const std::string &taskName(int32_t taskIdx) const;
    /// @}

    /// @name Per-PE statistics
    /// @{
    uint64_t taskActivations() const { return taskActivations_; }
    /// @}

  private:
    struct TaskInfo
    {
        PeName name;
        TaskFn fn;
    };

    /** One buffer slot. */
    struct BufferSlot
    {
        PeName name;
        std::vector<float> data;
    };

    /** One module-level scalar. */
    struct ScalarSlot
    {
        PeName name;
        double value = 0.0;
    };

    /** Buffer slots per chunk (see inlineSlots_). */
    static constexpr size_t kSlotChunk = 8;
    /** Capacity of the scalar and task tables at their first entry:
     *  one allocation each for a typical program. */
    static constexpr size_t kFirstReserve = 8;

    BufferSlot &
    slot(int32_t index)
    {
        size_t i = static_cast<size_t>(index);
        return i < kSlotChunk
                   ? inlineSlots_[i]
                   : moreSlots_[i / kSlotChunk - 1][i % kSlotChunk];
    }
    const BufferSlot &
    slot(int32_t index) const
    {
        return const_cast<Pe *>(this)->slot(index);
    }

    void checkBuffer(BufferId id) const;
    void checkScalar(ScalarId id) const;
    void dispatchPending();
    /** Schedule a dispatch event on the owning shard. */
    void scheduleDispatch(Cycles at);

    Simulator &sim_;
    Shard &shard_;
    int x_;
    int y_;
    uint32_t id_;
    /** The first kSlotChunk buffer slots live in the PE itself, later
     *  ones in heap chunks of kSlotChunk, so slot (and data vector)
     *  addresses survive later allocations — DSDs hold pointers to the
     *  slot's data vector. */
    std::array<BufferSlot, kSlotChunk> inlineSlots_;
    std::vector<std::unique_ptr<BufferSlot[]>> moreSlots_;
    int32_t numBuffers_ = 0;
    std::vector<ScalarSlot> scalars_;
    size_t bytesUsed_ = 0;
    std::vector<TaskInfo> tasks_;
    /** (task index, readyAt) activation queue. */
    VecFifo<std::pair<int32_t, Cycles>> pending_;
    bool dispatchScheduled_ = false;
    /** Set while a task of this PE runs (guards registerTask). */
    bool dispatching_ = false;
    Cycles workFree_ = 0;
    uint64_t taskActivations_ = 0;
    /** Fault thresholds (defaults injected nothing; see wse/fault.h). */
    Cycles haltAt_ = ~static_cast<Cycles>(0);
    Cycles stutterFrom_ = 0;
    Cycles stutterUntil_ = 0;
    uint32_t stutterFactor_ = 1;
};

} // namespace wsc::wse

#endif // WSC_WSE_PE_H
