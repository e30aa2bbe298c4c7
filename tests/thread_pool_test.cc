#include "common/thread_pool.h"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <functional>
#include <future>
#include <memory>
#include <mutex>
#include <numeric>
#include <thread>
#include <vector>

#include "common/strings.h"

namespace spidermine {
namespace {

TEST(ThreadPoolTest, RunsAllScheduledTasks) {
  ThreadPool pool(4);
  std::atomic<int> counter{0};
  for (int i = 0; i < 100; ++i) {
    pool.Schedule([&counter] { counter.fetch_add(1); });
  }
  pool.WaitIdle();
  EXPECT_EQ(counter.load(), 100);
}

TEST(ThreadPoolTest, WaitIdleOnEmptyPoolReturns) {
  ThreadPool pool(2);
  pool.WaitIdle();  // must not hang
  SUCCEED();
}

TEST(ThreadPoolTest, ClampsThreadCountToAtLeastOne) {
  ThreadPool pool(0);
  EXPECT_EQ(pool.num_threads(), 1);
  ThreadPool pool2(-5);
  EXPECT_EQ(pool2.num_threads(), 1);
}

TEST(ThreadPoolTest, DestructorDrainsQueue) {
  std::atomic<int> counter{0};
  {
    ThreadPool pool(2);
    for (int i = 0; i < 50; ++i) {
      pool.Schedule([&counter] { counter.fetch_add(1); });
    }
    // No WaitIdle: destruction must still run everything.
  }
  EXPECT_EQ(counter.load(), 50);
}

TEST(ThreadPoolTest, ParallelForCoversEveryIndexExactlyOnce) {
  ThreadPool pool(4);
  const int64_t n = 10007;  // prime, to exercise ragged chunking
  std::vector<std::atomic<int>> hits(n);
  pool.ParallelForChunks(n, /*grain=*/-1, [&hits](int64_t begin, int64_t end) {
    for (int64_t i = begin; i < end; ++i) hits[i].fetch_add(1);
  });
  for (int64_t i = 0; i < n; ++i) {
    ASSERT_EQ(hits[i].load(), 1) << "index " << i;
  }
}

TEST(ThreadPoolTest, ParallelForZeroAndOne) {
  ThreadPool pool(3);
  int calls = 0;
  pool.ParallelForChunks(0, /*grain=*/-1,
                         [&calls](int64_t, int64_t) { ++calls; });
  EXPECT_EQ(calls, 0);
  std::atomic<int> one_calls{0};
  pool.ParallelForChunks(1, /*grain=*/-1,
                         [&one_calls](int64_t begin, int64_t end) {
                           EXPECT_EQ(begin, 0);
                           EXPECT_EQ(end, 1);
                           one_calls.fetch_add(1);
                         });
  EXPECT_EQ(one_calls.load(), 1);
}

TEST(ThreadPoolTest, ParallelForDeterministicResultViaSlots) {
  // The idiom the library uses: each iteration writes only its own slot,
  // so the result is independent of scheduling.
  ThreadPool pool(8);
  const int64_t n = 5000;
  std::vector<int64_t> out(n, 0);
  pool.ParallelForChunks(n, /*grain=*/-1, [&out](int64_t begin, int64_t end) {
    for (int64_t i = begin; i < end; ++i) out[i] = i * i;
  });
  for (int64_t i = 0; i < n; ++i) ASSERT_EQ(out[i], i * i);
}

TEST(ThreadPoolTest, SequentialBatchesReuseWorkers) {
  ThreadPool pool(4);
  std::atomic<int64_t> total{0};
  for (int round = 0; round < 10; ++round) {
    pool.ParallelForChunks(100, /*grain=*/-1,
                           [&total](int64_t begin, int64_t end) {
                             for (int64_t i = begin; i < end; ++i) {
                               total.fetch_add(i);
                             }
                           });
  }
  EXPECT_EQ(total.load(), 10 * (99 * 100 / 2));
}

TEST(ThreadPoolTest, DefaultThreadsPositive) {
  EXPECT_GE(ThreadPool::DefaultThreads(), 1);
}

TEST(ThreadPoolTest, ParallelForChunksCoversEveryIndexExactlyOnce) {
  ThreadPool pool(4);
  const int64_t n = 10007;
  std::vector<std::atomic<int>> hits(n);
  pool.ParallelForChunks(n, /*grain=*/64, [&hits](int64_t begin, int64_t end) {
    for (int64_t i = begin; i < end; ++i) hits[i].fetch_add(1);
  });
  for (int64_t i = 0; i < n; ++i) {
    ASSERT_EQ(hits[i].load(), 1) << "index " << i;
  }
}

TEST(ThreadPoolTest, ParallelForChunksGrainBoundsRangeSize) {
  ThreadPool pool(3);
  std::atomic<int64_t> max_range{0};
  pool.ParallelForChunks(1000, /*grain=*/7,
                         [&max_range](int64_t begin, int64_t end) {
                           int64_t len = end - begin;
                           int64_t prev = max_range.load();
                           while (len > prev &&
                                  !max_range.compare_exchange_weak(prev, len)) {
                           }
                         });
  EXPECT_LE(max_range.load(), 7);
  EXPECT_GT(max_range.load(), 0);
}

/// One chunk as the inline branch ran it.
struct ChunkRun {
  int64_t begin = 0;
  int64_t end = 0;
  std::thread::id thread;

  bool operator==(const ChunkRun&) const = default;
};

TEST(ThreadPoolTest, InlineBranchRunsChunksInOrderOnTheCaller) {
  // The library's one serial path: on a one-thread pool, or when n <= grain
  // on a bigger pool, the chunks run inline, in ascending order, on the
  // calling thread, and the token is polled between them.
  ThreadPool one(1);
  ThreadPool four(4);
  const std::thread::id caller = std::this_thread::get_id();
  struct Case {
    ThreadPool* pool;
    int64_t n;
    int64_t grain;
    std::vector<ChunkRun> expected;
  };
  const Case cases[] = {
      {&one, 10, 3, {{0, 3, caller}, {3, 6, caller}, {6, 9, caller},
                     {9, 10, caller}}},
      {&four, 5, 5, {{0, 5, caller}}},
      {&four, 1, 1, {{0, 1, caller}}},
  };
  for (const Case& c : cases) {
    SCOPED_TRACE(StrCat(c.pool->num_threads(), " thread(s), n=", c.n,
                        ", grain=", c.grain));
    std::vector<ChunkRun> runs;  // no lock: every chunk runs on this thread
    c.pool->ParallelForChunks(c.n, c.grain,
                              [&runs](int64_t begin, int64_t end) {
                                runs.push_back(
                                    {begin, end, std::this_thread::get_id()});
                              });
    EXPECT_EQ(runs, c.expected);

    // A token tripped inside the first chunk stops every chunk after it.
    CancellationToken token;
    runs.clear();
    c.pool->ParallelForChunks(
        c.n, c.grain,
        [&runs, &token](int64_t begin, int64_t end) {
          runs.push_back({begin, end, std::this_thread::get_id()});
          token.RequestCancel();
        },
        &token);
    EXPECT_EQ(runs, std::vector<ChunkRun>{c.expected.front()});

    // A token tripped before the call runs no chunk, even a lone one.
    runs.clear();
    c.pool->ParallelForChunks(
        c.n, c.grain,
        [&runs](int64_t begin, int64_t end) {
          runs.push_back({begin, end, std::this_thread::get_id()});
        },
        &token);
    EXPECT_TRUE(runs.empty());
  }
}

TEST(ThreadPoolTest, ConcurrentParallelForCallersStayIndependent) {
  // The serving configuration: several caller threads run parallel loops
  // on ONE shared pool at once (concurrent queries on a session pool).
  // Each call must cover exactly its own iterations and return when they
  // are done — the per-call chunk count, not a pool-global wait.
  ThreadPool pool(2);
  constexpr int kCallers = 4;
  const int64_t n = 20011;
  std::vector<std::vector<int64_t>> out(
      kCallers, std::vector<int64_t>(static_cast<size_t>(n), 0));
  std::vector<std::thread> callers;
  for (int c = 0; c < kCallers; ++c) {
    callers.emplace_back([&pool, &out, c, n] {
      for (int round = 0; round < 3; ++round) {
        pool.ParallelForChunks(
            n, /*grain=*/64,
            [&out, c, round](int64_t begin, int64_t end) {
              for (int64_t i = begin; i < end; ++i) {
                out[static_cast<size_t>(c)][static_cast<size_t>(i)] =
                    i + c + round;
              }
            });
        // The call must not return before its own iterations finished:
        // every slot holds this round's value right here.
        for (int64_t i = 0; i < n; ++i) {
          ASSERT_EQ(out[static_cast<size_t>(c)][static_cast<size_t>(i)],
                    i + c + round)
              << "caller " << c << " round " << round << " index " << i;
        }
      }
    });
  }
  for (std::thread& caller : callers) caller.join();
}

/// Occupies every worker of a pool with a task that blocks until Release(),
/// so helper tasks scheduled meanwhile stay queued behind them. Destruction
/// releases the workers and waits until every blocking task has returned.
class WorkerBlocker {
 public:
  explicit WorkerBlocker(ThreadPool* pool) {
    const int32_t workers = pool->num_threads();
    for (int32_t t = 0; t < workers; ++t) {
      pool->Schedule([this] {
        std::unique_lock<std::mutex> lock(mu_);
        ++blocked_;
        changed_.notify_all();
        changed_.wait(lock, [this] { return released_; });
        --blocked_;
        changed_.notify_all();
      });
    }
    std::unique_lock<std::mutex> lock(mu_);
    changed_.wait(lock, [this, workers] { return blocked_ == workers; });
  }

  WorkerBlocker(const WorkerBlocker&) = delete;
  WorkerBlocker& operator=(const WorkerBlocker&) = delete;

  ~WorkerBlocker() {
    Release();
    std::unique_lock<std::mutex> lock(mu_);
    changed_.wait(lock, [this] { return blocked_ == 0; });
  }

  void Release() {
    std::lock_guard<std::mutex> lock(mu_);
    released_ = true;
    changed_.notify_all();
  }

 private:
  std::mutex mu_;
  std::condition_variable changed_;
  int32_t blocked_ = 0;
  bool released_ = false;
};

/// Runs \p call on its own thread and reports whether it returned within
/// 10 s. On a timeout it releases \p blocker, so a call that waits for its
/// queued helpers finishes and the test fails instead of hanging.
bool ReturnsWhileBlocked(WorkerBlocker* blocker,
                         const std::function<void()>& call) {
  std::future<void> done = std::async(std::launch::async, call);
  const bool returned =
      done.wait_for(std::chrono::seconds(10)) == std::future_status::ready;
  if (!returned) blocker->Release();
  done.get();
  return returned;
}

TEST(ThreadPoolTest, ParallelForChunksReturnsWhileHelpersAreQueued) {
  // With every worker busy, the call's helpers cannot start; the caller
  // runs every chunk itself and must return without waiting for them.
  ThreadPool pool(3);
  WorkerBlocker blocker(&pool);
  const int64_t n = 257;
  std::vector<int> hits(static_cast<size_t>(n), 0);
  EXPECT_TRUE(ReturnsWhileBlocked(&blocker, [&pool, &hits, n] {
    pool.ParallelForChunks(n, /*grain=*/4, [&hits](int64_t begin, int64_t end) {
      for (int64_t i = begin; i < end; ++i) ++hits[static_cast<size_t>(i)];
    });
  })) << "the call waited for helpers that never ran";
  for (int64_t i = 0; i < n; ++i) {
    ASSERT_EQ(hits[static_cast<size_t>(i)], 1) << "index " << i;
  }
}

TEST(ThreadPoolTest, LateHelpersDoNotTouchTheFinishedCall) {
  // The helpers of a returned call start only after its body and token are
  // gone. They must find no chunk to claim and touch neither (a sanitizer
  // build reports the use after free if they do).
  ThreadPool pool(3);
  WorkerBlocker blocker(&pool);
  auto token = std::make_unique<CancellationToken>();
  std::atomic<int64_t> ran{0};
  auto body = std::make_unique<std::function<void(int64_t, int64_t)>>(
      [&ran](int64_t begin, int64_t end) { ran.fetch_add(end - begin); });
  ASSERT_TRUE(ReturnsWhileBlocked(&blocker, [&pool, &body, &token] {
    pool.ParallelForChunks(100, /*grain=*/1, *body, token.get());
  }));
  EXPECT_EQ(ran.load(), 100);
  body.reset();
  token.reset();
  blocker.Release();
  pool.WaitIdle();  // the late helpers run here
  EXPECT_EQ(ran.load(), 100);
}

TEST(CancellationTokenTest, StartsUncancelledAndLatchesOnRequest) {
  CancellationToken token;
  EXPECT_FALSE(token.IsCancelled());
  token.RequestCancel();
  EXPECT_TRUE(token.IsCancelled());
  EXPECT_TRUE(token.IsCancelled());  // latched
}

TEST(CancellationTokenTest, TripsWhenBoundDeadlineExpires) {
  Deadline expired(1e-9);
  // Spin briefly so the deadline is certainly past.
  while (!expired.Expired()) {
  }
  CancellationToken token(&expired);
  EXPECT_TRUE(token.IsCancelled());

  Deadline unlimited = Deadline::Unlimited();
  CancellationToken open(&unlimited);
  EXPECT_FALSE(open.IsCancelled());
}

TEST(CancellationTokenTest, CancelledTokenSkipsUnstartedWork) {
  ThreadPool pool(4);
  CancellationToken token;
  token.RequestCancel();
  std::atomic<int64_t> ran{0};
  pool.ParallelForChunks(
      100000, /*grain=*/-1,
      [&ran](int64_t begin, int64_t end) { ran.fetch_add(end - begin); },
      &token);
  EXPECT_EQ(ran.load(), 0) << "a pre-cancelled loop must not start";
}

TEST(CancellationTokenTest, MidLoopCancellationStopsWorkersEarly) {
  ThreadPool pool(4);
  CancellationToken token;
  std::atomic<int64_t> ran{0};
  const int64_t n = 1 << 20;
  pool.ParallelForChunks(
      n, /*grain=*/16,
      [&ran, &token](int64_t begin, int64_t end) {
        for (int64_t i = begin; i < end; ++i) ran.fetch_add(1);
        // First chunk to finish pulls the plug on everything else.
        token.RequestCancel();
      },
      &token);
  EXPECT_GT(ran.load(), 0);
  EXPECT_LT(ran.load(), n) << "cancellation must skip unstarted chunks";
}

}  // namespace
}  // namespace spidermine
