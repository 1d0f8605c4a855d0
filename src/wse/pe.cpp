#include "wse/pe.h"

#include <cmath>

#include "support/error.h"
#include "wse/simulator.h"

namespace wsc::wse {

void
TaskContext::dsdOp(uint64_t elems, int flopsPerElem, int bytesPerElem)
{
    const ArchParams &p = sim_.params();
    consumed_ += p.dsdSetupCycles +
                 static_cast<Cycles>(
                     std::ceil(elems / p.f32ElemsPerCycle));
    SimStats &stats = pe_.shardStats();
    stats.dsdOps++;
    stats.flops += elems * static_cast<uint64_t>(flopsPerElem);
    stats.memBytes += elems * static_cast<uint64_t>(bytesPerElem);
}

Pe::Pe(Simulator &sim, Shard &shard, int x, int y, uint32_t id)
    : sim_(sim), shard_(shard), x_(x), y_(y), id_(id)
{
}

Cycles
Pe::now() const
{
    return shard_.now();
}

SimStats &
Pe::shardStats()
{
    return shard_.stats();
}

PayloadPool &
Pe::payloadPool()
{
    return shard_.payloadPool();
}

void
Pe::scheduleDispatch(Cycles at)
{
    shard_.push(id_, at, [this] { dispatchPending(); });
}

void
Pe::checkBuffer(BufferId id) const
{
    WSC_ASSERT(id.index >= 0 && id.index < numBuffers_,
               "invalid buffer handle " << id.index << " on PE (" << x_
                                        << ", " << y_ << ")");
}

void
Pe::checkScalar(ScalarId id) const
{
    WSC_ASSERT(id.index >= 0 &&
                   static_cast<size_t>(id.index) < scalars_.size(),
               "invalid scalar handle " << id.index << " on PE (" << x_
                                        << ", " << y_ << ")");
}

BufferId
Pe::allocBufferId(PeName name, size_t elems)
{
    size_t bytes = elems * sizeof(float);
    if (bytesUsed_ + bytes >
        static_cast<size_t>(sim_.params().peMemoryBytes)) {
        fatal(strcat("PE (", x_, ", ", y_, ") out of memory allocating `",
                     name.str(), "` (", elems, " elems): ", bytesUsed_,
                     " + ", bytes, " > ", sim_.params().peMemoryBytes,
                     " bytes"));
    }
    for (int32_t i = 0; i < numBuffers_; ++i)
        WSC_ASSERT(slot(i).name != name,
                   "buffer `" << name.str() << "` already allocated on PE ("
                              << x_ << ", " << y_ << ")");
    if (static_cast<size_t>(numBuffers_) ==
        (moreSlots_.size() + 1) * kSlotChunk)
        moreSlots_.push_back(std::make_unique<BufferSlot[]>(kSlotChunk));
    BufferSlot &s = slot(numBuffers_);
    s.name = name;
    s.data.assign(elems, 0.0f);
    bytesUsed_ += bytes;
    return BufferId{numBuffers_++};
}

BufferId
Pe::allocBufferId(const std::string &name, size_t elems)
{
    return allocBufferId(sim_.internName(name), elems);
}

std::vector<float> &
Pe::allocBuffer(const std::string &name, size_t elems)
{
    return buffer(allocBufferId(name, elems));
}

std::vector<float> &
Pe::buffer(const std::string &name)
{
    return buffer(bufferId(name));
}

BufferId
Pe::bufferId(const std::string &name) const
{
    BufferId id = findBuffer(name);
    WSC_ASSERT(id.valid(), "no buffer `" << name << "` on PE (" << x_
                                         << ", " << y_ << ")");
    return id;
}

BufferId
Pe::findBuffer(const std::string &name) const
{
    for (int32_t i = 0; i < numBuffers_; ++i)
        if (slot(i).name.str() == name)
            return BufferId{i};
    return BufferId{};
}

ScalarId
Pe::scalarId(PeName name)
{
    for (size_t i = 0; i < scalars_.size(); ++i)
        if (scalars_[i].name == name)
            return ScalarId{static_cast<int32_t>(i)};
    if (scalars_.empty())
        scalars_.reserve(kFirstReserve);
    scalars_.push_back(ScalarSlot{name, 0.0});
    return ScalarId{static_cast<int32_t>(scalars_.size() - 1)};
}

ScalarId
Pe::scalarId(const std::string &name)
{
    for (size_t i = 0; i < scalars_.size(); ++i)
        if (scalars_[i].name.str() == name)
            return ScalarId{static_cast<int32_t>(i)};
    return scalarId(sim_.internName(name));
}

TaskId
Pe::registerTask(PeName name, TaskFn fn)
{
    WSC_ASSERT(!dispatching_, "task `" << name.str()
                                       << "` registered by a task running "
                                          "on the same PE");
    for (const TaskInfo &task : tasks_)
        WSC_ASSERT(task.name != name,
                   "task `" << name.str() << "` already registered");
    if (tasks_.empty())
        tasks_.reserve(kFirstReserve);
    tasks_.push_back(TaskInfo{name, std::move(fn)});
    return TaskId{static_cast<int32_t>(tasks_.size() - 1)};
}

TaskId
Pe::registerTask(const std::string &name, TaskFn fn)
{
    return registerTask(sim_.internName(name), std::move(fn));
}

TaskId
Pe::taskId(const std::string &name) const
{
    for (size_t i = 0; i < tasks_.size(); ++i)
        if (tasks_[i].name.str() == name)
            return TaskId{static_cast<int32_t>(i)};
    panic(strcat("activating unknown task `", name, "` on PE (", x_, ", ",
                 y_, ")"));
}

void
Pe::activate(TaskId task, Cycles readyAt)
{
    WSC_ASSERT(task.index >= 0 &&
                   static_cast<size_t>(task.index) < tasks_.size(),
               "activating an invalid task handle on PE (" << x_ << ", "
                                                           << y_ << ")");
    pending_.emplace_back(task.index, readyAt);
    // A halted CE accepts activations (they queue for the diagnosis)
    // but never dispatches them — and schedules nothing, so a fault-free
    // run's event order is untouched by the existence of this check.
    if (!dispatchScheduled_ && !halted()) {
        dispatchScheduled_ = true;
        scheduleDispatch(std::max(readyAt, now()));
    }
}

void
Pe::activate(const std::string &name, Cycles readyAt)
{
    activate(taskId(name), readyAt);
}

void
Pe::dispatchPending()
{
    dispatchScheduled_ = false;
    if (halted())
        return; // Keep pending_ intact: the diagnosis reports it.
    if (pending_.empty())
        return;
    auto [taskIdx, readyAt] = pending_.front();
    pending_.pop_front();

    const ArchParams &p = sim_.params();
    Cycles ready = std::max(readyAt, now());
    // The dispatch itself costs activation overhead on the work timeline.
    Cycles start =
        reserveWork(ready, p.taskActivateCycles) + p.taskActivateCycles;

    taskActivations_++;
    shardStats().taskActivations++;

    TaskContext ctx(sim_, *this, readyAt, start);
    dispatching_ = true;
    tasks_[static_cast<size_t>(taskIdx)].fn(ctx);
    dispatching_ = false;
    // Charge the consumed core time onto the work timeline.
    if (ctx.consumed() > 0)
        reserveWork(start, ctx.consumed());

    if (!pending_.empty()) {
        dispatchScheduled_ = true;
        Cycles next = std::max(pending_.front().second, workFree_);
        scheduleDispatch(std::max(next, now()));
    }
}

Cycles
Pe::reserveWork(Cycles from, Cycles n)
{
    Cycles start = std::max(from, workFree_);
    if (stutterFactor_ > 1 && start >= stutterFrom_ &&
        start < stutterUntil_)
        n *= stutterFactor_;
    workFree_ = start + n;
    return start;
}

const std::string &
Pe::taskName(int32_t taskIdx) const
{
    WSC_ASSERT(taskIdx >= 0 &&
                   static_cast<size_t>(taskIdx) < tasks_.size(),
               "invalid task index " << taskIdx);
    return tasks_[static_cast<size_t>(taskIdx)].name.str();
}

} // namespace wsc::wse
