// Frees evicted front-end cache entries on a background thread.
//
// A front-end entry owns every compile result of its job (the logical plan,
// the memoized CompilationOutputs with their exec profiles, the normalized
// plans): a few hundred allocations that take tens of microseconds to free.
// The sharded LRU hands an evicted entry back to the compile that evicted
// it; Retire moves it here, so that compile returns without running the
// destructor.
//
// The thread starts on the first Retire, so a process that never evicts
// never starts it. It sleeps until the pending list goes from empty to
// non-empty, then swaps the list out and frees the batch outside the lock.
// When kMaxPending entries are already waiting, Retire frees inline
// instead, which bounds the memory held by dead entries. The destructor
// frees everything still pending and joins the thread.
//
// On Linux the thread runs under SCHED_IDLE, so it only takes CPU time no
// other thread wants. With a spare core it keeps up; on a saturated single
// core it falls behind, the list fills to the cap, and compiles free inline
// as they would without it. At normal priority it preempted the compile
// threads there instead: qobench `offline` pinned to one core measured
// compile_p99_us ~1.7-2.1 ms against ~0.47 ms, and ~0.48 ms under SCHED_IDLE.
//
// Engines share one process-wide instance (Global) rather than each owning
// a thread: glibc gives every thread that frees its own malloc arena, taken
// from the arenas that exited threads left behind. A reclaimer thread per
// engine therefore takes one such arena per engine and strands the free
// memory in it; on qobench `offline`, which builds a fresh engine per
// tenant, that raised peak RSS by ~11%. One long-lived thread takes one
// arena once.
//
// Telemetry: "cache.front_end.reclaimed" (freed on the thread),
// "cache.front_end.inline_frees" (freed by Retire over the cap) and one
// "span.cache.reclaim" sample per freed batch.
#ifndef QO_CACHE_RECLAIMER_H_
#define QO_CACHE_RECLAIMER_H_

#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <mutex>
#include <thread>
#include <vector>

#include "cache/compilation_cache.h"

namespace qo::cache {

class Reclaimer {
 public:
  /// Pending entries beyond which Retire frees inline.
  static constexpr size_t kMaxPending = 256;

  /// The process-wide instance every ScopeEngine retires into. Constructed
  /// on first use, destroyed (drained and joined) at exit.
  static Reclaimer& Global();

  Reclaimer() = default;
  /// Frees every pending entry, then joins the thread.
  ~Reclaimer();
  Reclaimer(const Reclaimer&) = delete;
  Reclaimer& operator=(const Reclaimer&) = delete;

  /// Takes every entry out of `*entries` (leaving it empty) and frees them
  /// on the background thread, or right here when the cap is reached. An
  /// entry is freed when its last reference goes, so an entry still held by
  /// a caller is released by that caller instead.
  void Retire(std::vector<FrontEndPtr>* entries);

  /// Returns once every entry handed off before the call has been released.
  void Flush();

 private:
  void Run();

  std::mutex mu_;
  std::condition_variable wake_;       ///< pending_ became non-empty
  std::condition_variable released_;   ///< released_count_ advanced
  std::vector<FrontEndPtr> pending_;   ///< guarded by mu_
  uint64_t handed_off_count_ = 0;      ///< guarded by mu_
  uint64_t released_count_ = 0;        ///< guarded by mu_
  bool stopping_ = false;              ///< guarded by mu_
  std::thread thread_;                 ///< started by the first hand-off
};

}  // namespace qo::cache

#endif  // QO_CACHE_RECLAIMER_H_
