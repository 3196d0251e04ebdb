#ifndef PPC_SERVER_BOUNDED_QUEUE_H_
#define PPC_SERVER_BOUNDED_QUEUE_H_

#include <condition_variable>
#include <cstddef>
#include <deque>
#include <mutex>
#include <optional>
#include <utility>

namespace ppc {

/// Bounded multi-producer multi-consumer FIFO queue — the admission
/// control point of the serving layer. Producers never block: TryPush
/// fails immediately when the queue is at capacity (the caller answers
/// BUSY — backpressure instead of unbounded buffering). Consumers block
/// in Pop until an item arrives or the queue is closed.
///
/// Close() is the graceful-drain primitive: it rejects all further
/// pushes while items already accepted remain poppable, so consumers
/// drain the backlog and then observe end-of-stream (nullopt).
template <typename T>
class BoundedQueue {
 public:
  explicit BoundedQueue(size_t capacity) : capacity_(capacity) {}

  BoundedQueue(const BoundedQueue&) = delete;
  BoundedQueue& operator=(const BoundedQueue&) = delete;

  /// Enqueues unless full or closed. Never blocks.
  bool TryPush(T item) {
    {
      std::lock_guard<std::mutex> lock(mu_);
      if (closed_ || items_.size() >= capacity_) return false;
      items_.push_back(std::move(item));
    }
    cv_.notify_one();
    return true;
  }

  /// Dequeues the oldest item, blocking while the queue is open and
  /// empty. Returns nullopt once closed and fully drained.
  std::optional<T> Pop() {
    std::unique_lock<std::mutex> lock(mu_);
    cv_.wait(lock, [this] { return closed_ || !items_.empty(); });
    if (items_.empty()) return std::nullopt;
    T item = std::move(items_.front());
    items_.pop_front();
    return item;
  }

  /// Non-blocking Pop of the oldest item, only when it satisfies `pred`
  /// (evaluated under the lock); nullopt otherwise. Worker micro-batching
  /// uses it to take a run of matching requests off the head while
  /// leaving everything else queued for the other workers.
  template <typename Pred>
  std::optional<T> TryPopIf(Pred pred) {
    std::lock_guard<std::mutex> lock(mu_);
    if (items_.empty() || !pred(items_.front())) return std::nullopt;
    T item = std::move(items_.front());
    items_.pop_front();
    return item;
  }

  /// Rejects all future pushes and wakes every blocked consumer. Items
  /// already queued stay poppable (drain semantics). Idempotent.
  void Close() {
    {
      std::lock_guard<std::mutex> lock(mu_);
      closed_ = true;
    }
    cv_.notify_all();
  }

  size_t size() const {
    std::lock_guard<std::mutex> lock(mu_);
    return items_.size();
  }

  bool closed() const {
    std::lock_guard<std::mutex> lock(mu_);
    return closed_;
  }

 private:
  const size_t capacity_;
  mutable std::mutex mu_;
  std::condition_variable cv_;
  std::deque<T> items_;
  bool closed_ = false;
};

}  // namespace ppc

#endif  // PPC_SERVER_BOUNDED_QUEUE_H_
