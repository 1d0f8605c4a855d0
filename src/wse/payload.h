/**
 * @file
 * Recycled payload buffers for fabric streams.
 *
 * Every stream payload (one chunk of a halo exchange, one test vector)
 * lives in a PayloadSlot owned by the sending shard's PayloadPool and is
 * reference-counted by the in-flight events that carry it: the stream
 * segment walking the fabric, every scheduled delivery, and any receiver
 * stash that pins the data until a receive callback consumes it. When
 * the last reference drops, the slot pushes itself back onto its pool's
 * free stack — a lock-free multi-producer/single-consumer Treiber stack,
 * since deliveries on other shards may release concurrently with the
 * owner shard acquiring. Steady state allocates nothing: slot vectors
 * keep their capacity across reuse.
 */

#ifndef WSC_WSE_PAYLOAD_H
#define WSC_WSE_PAYLOAD_H

#include <atomic>
#include <cstdint>
#include <deque>
#include <vector>

namespace wsc::wse {

class PayloadPool;

/** One recycled payload buffer (see file comment for the lifecycle). */
struct PayloadSlot
{
    std::vector<float> data;
    std::atomic<uint32_t> refs{0};
    /** Set by fault injection when the payload was corrupted in flight;
     *  cleared on every acquire(). Receivers may inspect it through
     *  PayloadRef::corrupted() (the data itself carries the seeded
     *  garbage value — this flag only attributes it). */
    bool corrupted = false;
    /** Slot position within the owning pool. */
    uint32_t index = 0;
    /** Free-stack link: successor index + 1, or 0 for stack bottom. */
    uint32_t nextFree = 0;
    PayloadPool *pool = nullptr;
};

/**
 * Reference-counted handle to a payload slot. Copying increments the
 * slot's count; destroying the last handle returns the slot to its pool.
 */
class PayloadRef
{
  public:
    PayloadRef() = default;

    PayloadRef(const PayloadRef &other) noexcept : slot_(other.slot_)
    {
        if (slot_)
            slot_->refs.fetch_add(1, std::memory_order_relaxed);
    }

    PayloadRef(PayloadRef &&other) noexcept : slot_(other.slot_)
    {
        other.slot_ = nullptr;
    }

    PayloadRef &
    operator=(const PayloadRef &other) noexcept
    {
        if (this != &other) {
            reset();
            slot_ = other.slot_;
            if (slot_)
                slot_->refs.fetch_add(1, std::memory_order_relaxed);
        }
        return *this;
    }

    PayloadRef &
    operator=(PayloadRef &&other) noexcept
    {
        if (this != &other) {
            reset();
            slot_ = other.slot_;
            other.slot_ = nullptr;
        }
        return *this;
    }

    ~PayloadRef() { reset(); }

    bool valid() const { return slot_ != nullptr; }

    /** The payload bytes; valid while any reference is held. */
    const std::vector<float> &data() const { return slot_->data; }

    /** Writable view for the producer filling a freshly acquired slot;
     *  must not be used once the payload has been handed to the fabric. */
    std::vector<float> &mutableData() { return slot_->data; }

    /** Whether fault injection corrupted this payload (see PayloadSlot). */
    bool corrupted() const { return slot_->corrupted; }
    /** Mark the payload corrupted (fault-injection path only). */
    void markCorrupted() { slot_->corrupted = true; }

    /** Drop this reference (possibly returning the slot to its pool). */
    inline void reset() noexcept;

  private:
    friend class PayloadPool;
    explicit PayloadRef(PayloadSlot *slot) : slot_(slot) {}

    PayloadSlot *slot_ = nullptr;
};

/**
 * Per-shard ring of payload slots. acquire() is called only by the
 * worker the owning shard is statically assigned to (single consumer);
 * releases may come from any shard that held the final delivery
 * reference (multi-producer).
 */
class PayloadPool
{
  public:
    PayloadPool() = default;
    PayloadPool(const PayloadPool &) = delete;
    PayloadPool &operator=(const PayloadPool &) = delete;

    /** A slot with one reference and empty (capacity-retaining) data.
     *  Only from the worker executing the owning shard's window. */
    PayloadRef
    acquire()
    {
        acquireCount_++;
        uint32_t head = freeHead_.load(std::memory_order_acquire);
        while (head != 0) {
            PayloadSlot &slot = slots_[head - 1];
            // Safe to read: only this thread pops, and pushed slots are
            // immutable until popped.
            uint32_t next = slot.nextFree;
            if (freeHead_.compare_exchange_weak(
                    head, next, std::memory_order_acq_rel,
                    std::memory_order_acquire)) {
                slot.refs.store(1, std::memory_order_relaxed);
                slot.data.clear();
                slot.corrupted = false;
                return PayloadRef(&slot);
            }
        }
        createdCount_++;
        PayloadSlot &slot = slots_.emplace_back();
        slot.index = static_cast<uint32_t>(slots_.size() - 1);
        slot.pool = this;
        slot.refs.store(1, std::memory_order_relaxed);
        return PayloadRef(&slot);
    }

    /// @name Introspection (tests, docs)
    /// @{
    /** Slots ever created (the ring's high-water mark). */
    size_t slotCount() const { return slots_.size(); }
    /** Total acquire() calls. */
    uint64_t acquires() const { return acquireCount_; }
    /** Acquires that had to create a fresh slot (ring misses). */
    uint64_t created() const { return createdCount_; }
    /** Slots currently referenced (0 once every payload is consumed). */
    size_t
    liveSlots() const
    {
        size_t live = 0;
        for (const PayloadSlot &slot : slots_)
            if (slot.refs.load(std::memory_order_relaxed) != 0)
                live++;
        return live;
    }
    /// @}

  private:
    friend class PayloadRef;

    /** Return a slot whose refcount reached zero (any thread). */
    void
    release(PayloadSlot *slot)
    {
        uint32_t head = freeHead_.load(std::memory_order_relaxed);
        do {
            slot->nextFree = head;
        } while (!freeHead_.compare_exchange_weak(
            head, slot->index + 1, std::memory_order_release,
            std::memory_order_relaxed));
    }

    /** Deque so slot addresses survive growth while refs are live. */
    std::deque<PayloadSlot> slots_;
    /** Free stack head: slot index + 1; 0 marks the empty stack. */
    std::atomic<uint32_t> freeHead_{0};
    uint64_t acquireCount_ = 0;
    uint64_t createdCount_ = 0;
};

inline void
PayloadRef::reset() noexcept
{
    if (!slot_)
        return;
    if (slot_->refs.fetch_sub(1, std::memory_order_acq_rel) == 1)
        slot_->pool->release(slot_);
    slot_ = nullptr;
}

} // namespace wsc::wse

#endif // WSC_WSE_PAYLOAD_H
