// A small work-stealing thread pool for the sweep engine.
//
// Each worker owns a deque: it pushes and pops work at the back (LIFO, cache
// friendly for nested submissions) and takes from the front of the fullest
// other deque when its own runs dry (FIFO stealing, oldest-first). External
// submissions are distributed round-robin across the worker deques. Sweep
// jobs are coarse (a whole (module, VPP level) campaign each), so a single
// pool mutex is cheap and keeps the scheduler trivially race-free.
//
// Determinism contract: the pool schedules *when* tasks run, never *what*
// they compute. Sweep jobs derive every random quantity from their own
// counter-based stream (see core/shard), so any interleaving --
// including the 0-worker inline fallback -- produces identical results.
#pragma once

#include <condition_variable>
#include <cstddef>
#include <deque>
#include <functional>
#include <future>
#include <memory>
#include <mutex>
#include <thread>
#include <type_traits>
#include <utility>
#include <vector>

namespace vppstudy::common {

class ThreadPool {
 public:
  /// Spawns `workers` threads. 0 workers is a valid degenerate pool: submit()
  /// runs the task inline on the calling thread (serial --jobs runs and
  /// debugging without scheduler noise).
  explicit ThreadPool(unsigned workers);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// Number of worker threads (0 for the inline pool).
  [[nodiscard]] unsigned worker_count() const noexcept {
    return static_cast<unsigned>(workers_.size());
  }

  /// Schedule `fn` and return a future for its result. Exceptions thrown by
  /// the task are captured and rethrown from future::get().
  template <typename F>
  [[nodiscard]] std::future<std::invoke_result_t<F&>> submit(F&& fn) {
    using R = std::invoke_result_t<F&>;
    auto task = std::make_shared<std::packaged_task<R()>>(std::forward<F>(fn));
    std::future<R> future = task->get_future();
    if (workers_.empty()) {
      (*task)();  // inline fallback; the future still carries exceptions
      return future;
    }
    enqueue([task] { (*task)(); });
    return future;
  }

  /// Resolve a user-facing --jobs value: 0 or negative means "all hardware
  /// threads" (with a floor of 1 when the runtime cannot tell).
  [[nodiscard]] static unsigned resolve_jobs(int jobs) noexcept;

  /// Map a --jobs value to a worker count for this pool: --jobs 1 runs
  /// inline (0 workers, no scheduler in the loop), anything else resolves
  /// through resolve_jobs.
  [[nodiscard]] static unsigned workers_for_jobs(int jobs) noexcept {
    return jobs == 1 ? 0 : resolve_jobs(jobs);
  }

  /// Storage slot of the calling thread for WorkerLocal lookups: workers of
  /// *this* pool get 1..worker_count(), every other thread (including the
  /// submitting thread of an inline 0-worker pool) gets slot 0.
  [[nodiscard]] std::size_t slot_of_current_thread() const noexcept;

 private:
  void enqueue(std::function<void()> task);
  /// Pop from own deque's back, else steal from the fullest other deque's
  /// front. Caller must hold mutex_. Returns false when all deques are empty.
  [[nodiscard]] bool pop_or_steal(std::size_t self,
                                  std::function<void()>& out);
  void worker_loop(std::size_t self);

  /// Each worker's deque on its own cache line: the deques are mutated by
  /// different threads on every push/pop, and adjacent std::deque headers
  /// would otherwise share lines and ping-pong between cores.
  struct alignas(64) WorkerQueue {
    std::deque<std::function<void()>> tasks;
  };

  std::vector<WorkerQueue> deques_;
  std::vector<std::thread> workers_;
  std::mutex mutex_;
  std::condition_variable wake_;
  std::size_t next_deque_ = 0;
  bool stop_ = false;
};

/// Per-worker storage for a pool: one default-constructed T per worker slot,
/// plus slot 0 for non-worker threads (the submitting thread of an inline
/// pool, or the coordinator). Tasks call local(pool) to get the slot of the
/// thread they happen to run on; because a slot is only ever touched by its
/// owning thread, no synchronization is needed, and the values persist
/// across submissions -- this is how core::CampaignEngine reuses one rig
/// Session per (worker, module) across shard jobs.
///
/// Lifetime rule: construct the WorkerLocal BEFORE the pool it serves (so it
/// outlives any task the pool might still drain during its destructor), and
/// size it with the same worker count the pool was built with. Slots are
/// alignas(64)-padded: neighboring workers' values never share a cache line.
template <typename T>
class WorkerLocal {
 public:
  explicit WorkerLocal(unsigned workers) : slots_(workers + 1) {}

  WorkerLocal(const WorkerLocal&) = delete;
  WorkerLocal& operator=(const WorkerLocal&) = delete;

  /// The calling thread's slot value with respect to `pool`.
  [[nodiscard]] T& local(const ThreadPool& pool) noexcept {
    return slots_[pool.slot_of_current_thread()].value;
  }
  /// Number of slots (workers + 1).
  [[nodiscard]] std::size_t size() const noexcept { return slots_.size(); }
  /// Direct slot access for post-run aggregation on the coordinator.
  [[nodiscard]] T& slot(std::size_t i) noexcept { return slots_[i].value; }

 private:
  struct alignas(64) Slot {
    T value{};
  };
  std::vector<Slot> slots_;
};

}  // namespace vppstudy::common
