#include "runtime/runtime.h"

#include <algorithm>

namespace qo::runtime {

namespace {
thread_local bool t_in_worker = false;
}  // namespace

ParallelRuntime::ParallelRuntime(RuntimeOptions options)
    : options_(options), queue_(std::max(16, 4 * options.num_threads)) {
  if (options_.num_threads > 1) {
    workers_.reserve(static_cast<size_t>(options_.num_threads));
    for (int i = 0; i < options_.num_threads; ++i) {
      workers_.emplace_back([this] { WorkerLoop(); });
    }
  }
}

ParallelRuntime::~ParallelRuntime() {
  queue_.Close();
  for (std::thread& worker : workers_) worker.join();
}

void ParallelRuntime::WorkerLoop() {
  t_in_worker = true;
  while (auto lease = queue_.PopBlocking()) {
    lease->fn();
    queue_.Release(lease->shard);
  }
}

bool ParallelRuntime::InWorkerThread() { return t_in_worker; }

}  // namespace qo::runtime
