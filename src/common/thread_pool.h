#pragma once

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

#include "common/timer.h"

/// \file thread_pool.h
/// A fixed-size worker pool used to parallelize embarrassingly parallel
/// library work (Stage I star shards, per-lineage growth, closure, benchmark
/// sweeps). Tasks are void() closures; completion is observed via WaitIdle().
/// Every library fan-out goes through ParallelForChunks, and every library
/// entry that fans out takes a pool by reference: a serial caller passes a
/// one-thread pool, and the loop's inline branch is the serial path.
/// The pool is deliberately simple: no futures, no work stealing --
/// determinism of *results* is preserved by having callers write to
/// pre-sized output slots, so scheduling order never influences output.
///
/// Concurrent callers: one pool may be shared by any number of caller
/// threads (the serving scenario: many in-flight queries fanning out over
/// one session pool). Schedule() is thread-safe, and each
/// ParallelForChunks call counts its own finished chunks: a
/// runner claims a chunk before touching the loop body, the caller runs
/// chunks itself until none is left to claim, and the call returns once
/// every claimed chunk has finished. It never waits for a helper task that
/// is still queued (behind another caller's work, or behind a worker that
/// is blocked), so nested calls from inside a worker cannot deadlock; a
/// helper that starts late finds nothing to claim and touches nothing the
/// caller owns. WaitIdle() remains pool-global: it observes every caller's
/// tasks.
///
/// Cooperative cancellation: long-running stages poll a CancellationToken
/// (optionally bound to a Deadline) so a time budget stops workers
/// mid-stage instead of only between stages.

namespace spidermine {

/// A cooperative cancellation flag shared between a coordinator and pool
/// workers. Thread-safe. Optionally bound to a Deadline, in which case the
/// token reports cancelled once the deadline expires (the expiry latches so
/// later polls skip the clock read).
class CancellationToken {
 public:
  CancellationToken() = default;

  /// A token that also trips when \p deadline (borrowed; may be null)
  /// expires.
  explicit CancellationToken(const Deadline* deadline) : deadline_(deadline) {}

  /// Requests cancellation; all subsequent IsCancelled() calls return true.
  void RequestCancel() { cancelled_.store(true, std::memory_order_relaxed); }

  /// True once cancellation was requested or the bound deadline expired.
  bool IsCancelled() const {
    if (cancelled_.load(std::memory_order_relaxed)) return true;
    if (deadline_ != nullptr && deadline_->Expired()) {
      cancelled_.store(true, std::memory_order_relaxed);
      return true;
    }
    return false;
  }

 private:
  mutable std::atomic<bool> cancelled_{false};
  const Deadline* deadline_ = nullptr;
};

/// Fixed-size thread pool. Construction spawns the workers; destruction
/// drains outstanding tasks and joins.
class ThreadPool {
 public:
  /// Spawns \p num_threads workers; values < 1 are clamped to 1.
  explicit ThreadPool(int32_t num_threads);

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// Drains pending tasks, then joins all workers.
  ~ThreadPool();

  /// Enqueues a task. Tasks must not throw (library code is no-except by
  /// convention) and must not enqueue recursively from within themselves
  /// while the destructor might be running.
  void Schedule(std::function<void()> task);

  /// Blocks until every scheduled task has finished executing.
  void WaitIdle();

  /// Number of worker threads.
  int32_t num_threads() const { return num_threads_; }

  /// The library's one parallel loop: runs `body(begin, end)` over
  /// contiguous ranges of at most \p grain iterations of [0, n) and waits
  /// for all of them; the calling thread also participates. grain < 1
  /// selects an automatic ~4-chunks-per-thread grain. Use a large grain for
  /// cheap iterations to amortize dispatch, grain = 1 for expensive skewed
  /// iterations. When n <= grain or the pool has one thread, the chunks
  /// run inline, in ascending order, on the calling thread: that branch is
  /// the library's only serial path (no caller keeps a loop of its own
  /// for the serial case). When \p token is non-null and becomes
  /// cancelled, chunks not yet started are skipped (chunks already running
  /// finish; callers observe partial output only through their own slots),
  /// inline or not. Safe to call concurrently from multiple threads on one
  /// pool, and from inside a pool worker: the call waits only for its own
  /// claimed chunks, not for other callers' tasks or for its own helpers
  /// to be dequeued.
  void ParallelForChunks(int64_t n, int64_t grain,
                         const std::function<void(int64_t, int64_t)>& body,
                         const CancellationToken* token = nullptr);

  /// A sensible default parallelism: hardware_concurrency, at least 1.
  static int32_t DefaultThreads();

 private:
  void WorkerLoop();

  const int32_t num_threads_;
  std::vector<std::thread> workers_;
  std::mutex mu_;
  std::condition_variable work_available_;
  std::condition_variable idle_;
  std::deque<std::function<void()>> queue_;
  int64_t in_flight_ = 0;  // queued + currently running tasks
  bool shutdown_ = false;
};

}  // namespace spidermine
