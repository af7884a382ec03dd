// The deterministic parallel runtime: a fixed-size thread pool draining a
// sharded, priority-ordered work queue, with results committed in
// submission order on the calling thread.
//
// Determinism contract: for pure work functions, ForEachOrdered /
// TransformOrdered produce a commit sequence that is byte-identical for any
// thread count, including the inline (num_threads <= 1) path — the thread
// count only changes wall-clock time, never results. Stateful decisions
// (budget admission, stats accumulation, bandit updates) belong in the
// commit callback, which always runs single-threaded in submission order.
//
// This is the shape of the production QO-Advisor (paper Secs. 2.5, 4.3):
// recompilation and flighting are services fanning out across a cluster,
// while pipeline outputs (hint files, telemetry) stay reproducible
// day-over-day.
#ifndef QO_RUNTIME_RUNTIME_H_
#define QO_RUNTIME_RUNTIME_H_

#include <condition_variable>
#include <cstdint>
#include <exception>
#include <functional>
#include <mutex>
#include <optional>
#include <thread>
#include <utility>
#include <vector>

#include "runtime/work_queue.h"

namespace qo::runtime {

struct RuntimeOptions {
  /// Worker threads in the pool. <= 1 runs every task inline on the calling
  /// thread (no threads are spawned). The work queue gets
  /// max(16, 4 * num_threads) shards; tasks sharing a shard key (modulo that
  /// count) never run concurrently. QO_THREADS reaches this field through
  /// service::AdvisorOptions::FromEnv.
  int num_threads = 1;
};

/// Fixed-size thread pool + sharded work queue + ordered commit.
class ParallelRuntime {
 public:
  explicit ParallelRuntime(RuntimeOptions options = {});
  ~ParallelRuntime();

  ParallelRuntime(const ParallelRuntime&) = delete;
  ParallelRuntime& operator=(const ParallelRuntime&) = delete;

  const RuntimeOptions& options() const { return options_; }
  int num_threads() const { return options_.num_threads; }
  /// True when a pool exists; false means every call runs inline.
  bool parallel() const { return !workers_.empty(); }

  /// Core primitive. Computes work(i) for i in [0, n) — fanned out across
  /// the pool, same-shard tasks serialized, lowest priority value first —
  /// and invokes commit(i, result) on the CALLING thread in strict
  /// submission order. Commits stream: commit(i) runs as soon as tasks
  /// 0..i have completed, while later tasks are still in flight, so
  /// commit-side state (e.g. a budget) advances during the run.
  ///
  /// Exceptions thrown by `work` or `commit` are rethrown on the calling
  /// thread only after all queued tasks finish (they reference this frame's
  /// state); commits stop at the first failed index.
  ///
  /// Reentrancy: calls from inside a worker thread (or while the options
  /// say serial) run inline — work/commit interleaved in submission order —
  /// which is byte-identical for pure work functions.
  template <typename R>
  void ForEachOrdered(size_t n,
                      const std::function<uint64_t(size_t)>& shard_of,
                      const std::function<double(size_t)>& priority_of,
                      const std::function<R(size_t)>& work,
                      const std::function<void(size_t, R&&)>& commit) {
    if (n == 0) return;
    if (!parallel() || n == 1 || InWorkerThread()) {
      for (size_t i = 0; i < n; ++i) commit(i, work(i));
      return;
    }
    struct Slot {
      std::optional<R> result;
      std::exception_ptr error;
      bool done = false;
    };
    std::vector<Slot> slots(n);
    std::mutex mu;
    std::condition_variable cv;
    for (size_t i = 0; i < n; ++i) {
      queue_.Push(shard_of(i), priority_of(i),
                  [&slots, &mu, &cv, &work, i] {
                    std::optional<R> result;
                    std::exception_ptr error;
                    try {
                      result.emplace(work(i));
                    } catch (...) {
                      error = std::current_exception();
                    }
                    // Notify under the lock: the caller may destroy `cv`
                    // the moment it observes the last done flag, so an
                    // unlocked notify could touch a dead condvar.
                    std::lock_guard<std::mutex> lock(mu);
                    slots[i].result = std::move(result);
                    slots[i].error = error;
                    slots[i].done = true;
                    cv.notify_all();
                  });
    }
    std::exception_ptr first_error;
    for (size_t i = 0; i < n; ++i) {
      std::unique_lock<std::mutex> lock(mu);
      cv.wait(lock, [&] { return slots[i].done; });
      if (first_error != nullptr) continue;  // drain remaining tasks
      if (slots[i].error != nullptr) {
        first_error = slots[i].error;
        continue;
      }
      std::optional<R> result = std::move(slots[i].result);
      lock.unlock();
      // A throwing commit must not unwind past the wait loop either: queued
      // tasks still reference slots/mu/cv on this frame.
      try {
        commit(i, std::move(*result));
      } catch (...) {
        first_error = std::current_exception();
      }
    }
    if (first_error != nullptr) std::rethrow_exception(first_error);
  }

  /// ForEachOrdered collecting results into a vector indexed by submission
  /// order.
  template <typename R>
  std::vector<R> TransformOrdered(size_t n,
                                  const std::function<uint64_t(size_t)>& shard_of,
                                  const std::function<double(size_t)>& priority_of,
                                  const std::function<R(size_t)>& work) {
    std::vector<R> out;
    out.reserve(n);
    ForEachOrdered<R>(n, shard_of, priority_of, work,
                      [&out](size_t, R&& r) { out.push_back(std::move(r)); });
    return out;
  }

 private:
  void WorkerLoop();
  /// True on pool worker threads; nested fan-out runs inline there.
  static bool InWorkerThread();

  RuntimeOptions options_;
  ShardedWorkQueue queue_;
  std::vector<std::thread> workers_;
};

/// Null-tolerant helpers: a null runtime degrades to a serial loop, so
/// library code can take an optional `ParallelRuntime*` without branching.
template <typename R>
void ForEachOrdered(ParallelRuntime* runtime, size_t n,
                    const std::function<uint64_t(size_t)>& shard_of,
                    const std::function<double(size_t)>& priority_of,
                    const std::function<R(size_t)>& work,
                    const std::function<void(size_t, R&&)>& commit) {
  if (runtime != nullptr) {
    runtime->ForEachOrdered<R>(n, shard_of, priority_of, work, commit);
    return;
  }
  for (size_t i = 0; i < n; ++i) commit(i, work(i));
}

}  // namespace qo::runtime

#endif  // QO_RUNTIME_RUNTIME_H_
