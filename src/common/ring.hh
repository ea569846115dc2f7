/**
 * @file
 * A FIFO queue over one contiguous, reused buffer.
 *
 * The simulator's per-instruction and per-trace queues (the core's
 * in-flight window, fetch-block queues, the IR-detector scope, the
 * operand rename table's install log, the A->R packet queues and the
 * retire-order records) have bounded occupancy. A
 * std::deque would still allocate and free a node every few pushes;
 * a Ring allocates its buffer once and afterwards reuses the slots.
 *
 * Popped slots are not destroyed, and pushBack() hands back a slot
 * with whatever the previous occupant left in it. Callers overwrite
 * it — which lets element types that own storage (a vector inside a
 * fetch block) keep and reuse that storage.
 */

#ifndef SLIPSTREAM_COMMON_RING_HH
#define SLIPSTREAM_COMMON_RING_HH

#include <algorithm>
#include <cstddef>
#include <utility>
#include <vector>

namespace slip
{

template <typename T>
class Ring
{
  public:
    /**
     * @param capacity slots allocated up front. A push into a full
     *        ring doubles the buffer, so sizing it to the queue's
     *        occupancy bound means it never allocates again.
     */
    explicit Ring(size_t capacity = 1)
        : buf(std::max<size_t>(capacity, 1))
    {}

    size_t size() const { return count; }
    bool empty() const { return count == 0; }

    /** Element `i` places behind the front (0 = oldest). */
    T &operator[](size_t i) { return buf[slot(i)]; }
    const T &operator[](size_t i) const { return buf[slot(i)]; }

    T &front() { return buf[head]; }
    const T &front() const { return buf[head]; }
    T &back() { return buf[slot(count - 1)]; }

    /** Append one slot and return it, holding stale contents. */
    T &
    pushBack()
    {
        if (count == buf.size())
            grow();
        T &t = buf[slot(count)];
        ++count;
        return t;
    }

    void pushBack(const T &value) { pushBack() = value; }

    void
    popFront()
    {
        head = head + 1 == buf.size() ? 0 : head + 1;
        --count;
    }

    void
    clear()
    {
        head = 0;
        count = 0;
    }

  private:
    size_t
    slot(size_t i) const
    {
        const size_t s = head + i;
        return s >= buf.size() ? s - buf.size() : s;
    }

    void
    grow()
    {
        std::vector<T> bigger(buf.size() * 2);
        for (size_t i = 0; i < count; ++i)
            std::swap(bigger[i], buf[slot(i)]);
        buf.swap(bigger);
        head = 0;
    }

    std::vector<T> buf;
    size_t head = 0;
    size_t count = 0;
};

} // namespace slip

#endif // SLIPSTREAM_COMMON_RING_HH
