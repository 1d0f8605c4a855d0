/**
 * @file
 * A FIFO queue over one std::vector. It allocates nothing until the
 * first push (unlike libstdc++'s std::deque, whose default constructor
 * allocates a map and a 512-byte node), keeps its capacity when it
 * drains, and exposes the queued elements as one contiguous span.
 */

#ifndef WSC_SUPPORT_VEC_FIFO_H
#define WSC_SUPPORT_VEC_FIFO_H

#include <cstddef>
#include <span>
#include <utility>
#include <vector>

namespace wsc {

template <class T>
class VecFifo
{
  public:
    bool empty() const { return head_ == items_.size(); }
    size_t size() const { return items_.size() - head_; }
    const T &front() const { return items_[head_]; }

    template <class... Args>
    void
    emplace_back(Args &&...args)
    {
        items_.emplace_back(std::forward<Args>(args)...);
    }

    void
    pop_front()
    {
        if (++head_ == items_.size()) {
            items_.clear();
            head_ = 0;
        } else if (head_ >= kCompactAt && 2 * head_ >= items_.size()) {
            // A queue that never drains must not grow without bound:
            // drop the consumed prefix once it is half the storage
            // (amortised O(1) per pop).
            items_.erase(items_.begin(),
                         items_.begin() + static_cast<std::ptrdiff_t>(head_));
            head_ = 0;
        }
    }

    /** The queued elements, oldest first. */
    std::span<const T> view() const { return {items_.data() + head_, size()}; }

  private:
    static constexpr size_t kCompactAt = 32;

    std::vector<T> items_;
    size_t head_ = 0;
};

} // namespace wsc

#endif // WSC_SUPPORT_VEC_FIFO_H
