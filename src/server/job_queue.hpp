// Bounded job queue of the vppd daemon.
//
// Sweep/inject/replay requests are admitted here before any work happens.
// Admission enforces two documented limits, each surfacing as a typed error
// the client can act on:
//   - kQueueFull      -- the pending queue is at capacity (backpressure;
//                        transient, retry later -- see harness/recovery's
//                        classification),
//   - kQuotaExceeded  -- this client already has its quota of jobs in
//                        flight (pending + running; persistent, the client
//                        must drain its own work first).
//
// Each admitted job carries a private CancelToken. cancel() never yanks a
// job out of the queue: it trips the token and lets a worker run the job
// normally, so the completion path (sending the response, releasing the
// quota slot) is uniform -- a cancelled pending job runs, observes its
// token immediately, and reports kCancelled. Running jobs poll the token
// between sampled rows (core/shard), so a cancelled queue drains
// in at most one row's worth of work per worker.
//
// The queue owns a small set of dispatcher threads, distinct from the
// sweep engine's shard pool: dispatchers block on shard futures, pool
// workers never block on anything, so the two layers cannot deadlock.
#pragma once

#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <mutex>
#include <thread>
#include <vector>
#include <condition_variable>

#include "common/cancel.hpp"
#include "common/expected.hpp"

namespace vppstudy::server {

class JobQueue {
 public:
  struct Config {
    std::size_t capacity = 16;         ///< max pending (not yet running) jobs
    std::size_t per_client_quota = 8;  ///< max in-flight jobs per client
    unsigned dispatchers = 2;          ///< worker threads draining the queue
  };

  /// A job runs on a dispatcher thread and is responsible for its own
  /// response delivery; the token is tripped by cancel() and shutdown().
  using Job = std::function<void(const common::CancelToken&)>;

  explicit JobQueue(Config config);
  ~JobQueue();

  JobQueue(const JobQueue&) = delete;
  JobQueue& operator=(const JobQueue&) = delete;

  /// Admit a job for (client_id, request_id). Typed failures: kQueueFull,
  /// kQuotaExceeded, kInvalidArgument (duplicate in-flight request id),
  /// kCancelled (queue shut down).
  [[nodiscard]] common::Status submit(std::uint64_t client_id,
                                      std::uint64_t request_id, Job job);

  /// Trip the token of an in-flight job. False when no such job (already
  /// completed, or never admitted).
  bool cancel(std::uint64_t client_id, std::uint64_t request_id);

  /// Trip every in-flight token of a client (connection teardown).
  void cancel_client(std::uint64_t client_id);

  /// Stop admitting, cancel everything in flight, run the queue dry, and
  /// join the dispatchers. Idempotent; the destructor calls it.
  void shutdown();

  struct Stats {
    std::uint64_t submitted = 0;
    std::uint64_t completed = 0;
    std::uint64_t rejected_full = 0;
    std::uint64_t rejected_quota = 0;
    std::uint64_t cancel_requests = 0;  ///< cancel() calls that found a job
    std::uint64_t pending = 0;          ///< currently queued
    std::uint64_t running = 0;          ///< currently on a dispatcher
  };
  [[nodiscard]] Stats stats() const;

 private:
  struct Entry {
    std::uint64_t client = 0;
    std::uint64_t request = 0;
    Job job;
    common::CancelToken token;
  };

  void dispatcher_loop();

  Config config_;
  mutable std::mutex mu_;
  std::condition_variable cv_;
  std::deque<Entry> pending_;
  /// Tokens of every in-flight job (pending or running), for cancel().
  std::map<std::pair<std::uint64_t, std::uint64_t>, common::CancelToken>
      in_flight_;
  std::map<std::uint64_t, std::size_t> per_client_;
  bool stopping_ = false;
  std::uint64_t submitted_ = 0;
  std::uint64_t completed_ = 0;
  std::uint64_t rejected_full_ = 0;
  std::uint64_t rejected_quota_ = 0;
  std::uint64_t cancel_requests_ = 0;
  std::uint64_t running_ = 0;
  std::vector<std::thread> dispatchers_;
};

}  // namespace vppstudy::server
