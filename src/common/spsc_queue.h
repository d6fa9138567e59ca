// Bounded single-producer / single-consumer queue (Lamport ring buffer).
//
// The sharded stream engine feeds each worker from exactly one reader
// thread, so the queue only has to be safe for one producer and one
// consumer at a time. That restriction buys a lock-free ring with two
// atomic cursors: the producer owns `tail_`, the consumer owns `head_`, and
// each side only ever *reads* the other's cursor (acquire) and *writes* its
// own (release). Each side also keeps a private copy of the other's cursor
// and reloads the shared one only when the ring looks full (producer) or
// empty (consumer), so a burst of pushes or pops touches the other side's
// cache line once instead of once per item. Capacity is rounded up to a
// power of two so wrap-around is a mask.
//
// "One consumer at a time" admits several consumer threads that serialize
// on a mutex of their own (the sharded engine's worker and its drain
// barrier): the mutex orders their cursor and cache accesses, so ring order
// stays pop order.
//
// TryPush/TryPop never block; callers that need to wait park on their own
// futex word (common/futex.h, stream/sharded.cpp), so the ring itself holds
// no blocking state and behaves identically under TSan.
#ifndef DDOSCOPE_COMMON_SPSC_QUEUE_H_
#define DDOSCOPE_COMMON_SPSC_QUEUE_H_

#include <atomic>
#include <cstddef>
#include <utility>
#include <vector>

namespace ddos::common {

template <typename T>
class SpscQueue {
 public:
  explicit SpscQueue(std::size_t capacity) {
    std::size_t cap = 1;
    while (cap < capacity) cap <<= 1;
    ring_.resize(cap);
    mask_ = cap - 1;
  }

  SpscQueue(const SpscQueue&) = delete;
  SpscQueue& operator=(const SpscQueue&) = delete;

  // Producer side. Returns false (leaving `value` untouched) when the ring
  // is full.
  bool TryPush(T&& value) {
    const std::size_t tail = tail_.load(std::memory_order_relaxed);
    if (tail - head_cache_ > mask_) {
      head_cache_ = head_.load(std::memory_order_acquire);
      if (tail - head_cache_ > mask_) return false;
    }
    ring_[tail & mask_] = std::move(value);
    tail_.store(tail + 1, std::memory_order_release);
    return true;
  }

  // Consumer side. Returns false when the ring is empty.
  bool TryPop(T* out) {
    const std::size_t head = head_.load(std::memory_order_relaxed);
    if (head == tail_cache_) {
      tail_cache_ = tail_.load(std::memory_order_acquire);
      if (head == tail_cache_) return false;
    }
    *out = std::move(ring_[head & mask_]);
    head_.store(head + 1, std::memory_order_release);
    return true;
  }

  // Safe from any thread; exact only for one side's view (which is all
  // the barrier in ShardedStreamEngine needs: the producer observing empty
  // while it is not pushing means every item was handed to a consumer).
  // Reads the shared cursors, never the private copies.
  bool Empty() const {
    return head_.load(std::memory_order_acquire) ==
           tail_.load(std::memory_order_acquire);
  }

  std::size_t capacity() const { return mask_ + 1; }

  // Occupied slots at some instant during the call; exact from the
  // producer side while it is not pushing (same argument as Empty), and
  // never more than one batch stale from either side - good enough for the
  // ring-occupancy high-water gauge in obs and the worker wake rule.
  std::size_t SizeApprox() const {
    const std::size_t tail = tail_.load(std::memory_order_acquire);
    const std::size_t head = head_.load(std::memory_order_acquire);
    return tail - head;
  }

  std::size_t ApproxMemoryBytes() const {
    return sizeof(*this) + ring_.size() * sizeof(T);
  }

 private:
  std::size_t mask_ = 0;
  std::vector<T> ring_;
  alignas(64) std::atomic<std::size_t> head_{0};  // consumer cursor
  std::size_t tail_cache_ = 0;                    // consumer's copy of tail_
  alignas(64) std::atomic<std::size_t> tail_{0};  // producer cursor
  std::size_t head_cache_ = 0;                    // producer's copy of head_
};

}  // namespace ddos::common

#endif  // DDOSCOPE_COMMON_SPSC_QUEUE_H_
