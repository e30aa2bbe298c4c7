#include "common/thread_pool.h"

#include <algorithm>
#include <atomic>
#include <memory>

namespace spidermine {

ThreadPool::ThreadPool(int32_t num_threads)
    : num_threads_(std::max(1, num_threads)) {
  workers_.reserve(static_cast<size_t>(num_threads_));
  for (int32_t i = 0; i < num_threads_; ++i) {
    workers_.emplace_back([this] { WorkerLoop(); });
  }
}

ThreadPool::~ThreadPool() {
  {
    std::unique_lock<std::mutex> lock(mu_);
    shutdown_ = true;
  }
  work_available_.notify_all();
  for (std::thread& worker : workers_) worker.join();
}

void ThreadPool::Schedule(std::function<void()> task) {
  {
    std::unique_lock<std::mutex> lock(mu_);
    queue_.push_back(std::move(task));
    ++in_flight_;
  }
  work_available_.notify_one();
}

void ThreadPool::WaitIdle() {
  std::unique_lock<std::mutex> lock(mu_);
  idle_.wait(lock, [this] { return in_flight_ == 0; });
}

void ThreadPool::WorkerLoop() {
  for (;;) {
    std::function<void()> task;
    {
      std::unique_lock<std::mutex> lock(mu_);
      work_available_.wait(lock,
                           [this] { return shutdown_ || !queue_.empty(); });
      if (queue_.empty()) return;  // shutdown with a drained queue
      task = std::move(queue_.front());
      queue_.pop_front();
    }
    task();
    {
      std::unique_lock<std::mutex> lock(mu_);
      if (--in_flight_ == 0) idle_.notify_all();
    }
  }
}

void ThreadPool::ParallelForChunks(
    int64_t n, int64_t grain,
    const std::function<void(int64_t, int64_t)>& body,
    const CancellationToken* token) {
  if (n <= 0) return;
  if (token != nullptr && token->IsCancelled()) return;
  if (grain < 1) {
    // Automatic grain: ~4 chunks per participant balances skewed iteration
    // costs against synchronization overhead.
    const int64_t chunks = std::min<int64_t>(n, 4LL * (num_threads_ + 1));
    grain = (n + chunks - 1) / chunks;
  }
  if (n <= grain || num_threads_ == 1) {
    // The library's one serial path: chunks run in ascending order on the
    // calling thread, and the token is still polled between chunks so a
    // deadline bounds even the inline loop.
    for (int64_t begin = 0; begin < n; begin += grain) {
      if (token != nullptr && token->IsCancelled()) return;
      body(begin, std::min(n, begin + grain));
    }
    return;
  }
  // Chunked dynamic scheduling: workers (and this thread) claim the next
  // chunk from a shared cursor. Scheduling order varies between runs, but
  // callers write only to pre-sized per-index slots, so results do not.
  //
  // Completion counts finished CHUNKS, not helpers: a runner claims a chunk
  // before it touches `body` or `token`, and the call returns once every
  // chunk is finished. The caller keeps claiming until the cursor is used
  // up, so it never waits for a helper still queued behind other callers'
  // tasks (or behind a worker blocked in a nested call); a helper that
  // starts late finds no chunk and touches only the shared CallState.
  struct CallState {
    std::atomic<int64_t> cursor{0};  // next unclaimed chunk
    int64_t n = 0;
    int64_t chunk_size = 0;
    int64_t num_chunks = 0;
    const std::function<void(int64_t, int64_t)>* body = nullptr;
    const CancellationToken* token = nullptr;
    std::mutex mu;
    std::condition_variable done;
    int64_t finished = 0;  // guarded by mu

    void RunChunks() {
      for (;;) {
        const int64_t chunk = cursor.fetch_add(1);
        if (chunk >= num_chunks) return;
        // The caller waits for this chunk, so body and token are alive.
        if (token == nullptr || !token->IsCancelled()) {
          const int64_t begin = chunk * chunk_size;
          (*body)(begin, std::min(n, begin + chunk_size));
        }
        std::lock_guard<std::mutex> lock(mu);
        if (++finished == num_chunks) done.notify_all();
      }
    }
  };
  auto state = std::make_shared<CallState>();
  state->n = n;
  state->chunk_size = grain;
  state->num_chunks = (n + grain - 1) / grain;
  state->body = &body;
  state->token = token;
  // Spawn at most one task per chunk so tiny loops do not wake every worker.
  const int32_t helpers = static_cast<int32_t>(
      std::min<int64_t>(num_threads_, state->num_chunks - 1));
  for (int32_t t = 0; t < helpers; ++t) {
    Schedule([state] { state->RunChunks(); });
  }
  state->RunChunks();  // the caller helps until no chunk is left to claim
  std::unique_lock<std::mutex> lock(state->mu);
  state->done.wait(lock,
                   [&state] { return state->finished == state->num_chunks; });
}

int32_t ThreadPool::DefaultThreads() {
  unsigned hc = std::thread::hardware_concurrency();
  return hc == 0 ? 1 : static_cast<int32_t>(hc);
}

}  // namespace spidermine
