#include "cache/reclaimer.h"

#include <pthread.h>
#include <sched.h>

#include <iterator>
#include <utility>

#include "obs/metrics.h"
#include "obs/span.h"

namespace qo::cache {

Reclaimer& Reclaimer::Global() {
  static Reclaimer reclaimer;
  return reclaimer;
}

Reclaimer::~Reclaimer() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    stopping_ = true;
  }
  wake_.notify_one();
  if (thread_.joinable()) thread_.join();
}

void Reclaimer::Retire(std::vector<FrontEndPtr>* entries) {
  if (entries->empty()) return;
  bool handed_off = false;
  bool wake = false;
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (pending_.size() + entries->size() <= kMaxPending) {
      if (!thread_.joinable()) thread_ = std::thread(&Reclaimer::Run, this);
      wake = pending_.empty();
      pending_.insert(pending_.end(), std::make_move_iterator(entries->begin()),
                      std::make_move_iterator(entries->end()));
      handed_off_count_ += entries->size();
      handed_off = true;
    }
  }
  if (wake) wake_.notify_one();
  // The reclaimer is behind: these entries die here.
  if (!handed_off) {
    QO_OBS_COUNT("cache.front_end.inline_frees", entries->size());
  }
  entries->clear();
}

void Reclaimer::Flush() {
  std::unique_lock<std::mutex> lock(mu_);
  const uint64_t target = handed_off_count_;
  released_.wait(lock, [&] { return released_count_ >= target; });
}

void Reclaimer::Run() {
#if defined(__linux__)
  // Best effort: on failure the thread keeps the default policy.
  sched_param param{};
  pthread_setschedparam(pthread_self(), SCHED_IDLE, &param);
#endif
  std::vector<FrontEndPtr> batch;
  std::unique_lock<std::mutex> lock(mu_);
  for (;;) {
    wake_.wait(lock, [this] { return stopping_ || !pending_.empty(); });
    if (pending_.empty()) return;  // stopping, and everything is freed
    batch.swap(pending_);
    lock.unlock();
    const size_t n = batch.size();
    {
      QO_OBS_SPAN("cache.reclaim");
      batch.clear();  // keeps its capacity for the next swap
    }
    QO_OBS_COUNT("cache.front_end.reclaimed", n);
    lock.lock();
    released_count_ += n;
    released_.notify_all();
  }
}

}  // namespace qo::cache
