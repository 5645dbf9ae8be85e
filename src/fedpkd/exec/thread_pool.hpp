#pragma once

#include <algorithm>
#include <condition_variable>
#include <cstddef>
#include <memory>
#include <mutex>
#include <thread>
#include <type_traits>
#include <vector>

namespace fedpkd::exec {

/// A fixed-size pool of persistent worker threads driving `parallel_for`
/// range splits. Deliberately work-stealing-free: one parallel_for call
/// splits [0, n) into at most `size()` contiguous chunks with boundaries
/// fixed by (n, lanes) alone; the caller and the workers then *claim* chunks
/// from a shared atomic cursor, so which thread runs a chunk varies but the
/// chunk boundaries — the only thing results may depend on — never do.
///
/// Dispatch is allocation-free: a run() call keeps its job descriptor on the
/// caller's stack and enqueues raw pointers to it into a pre-sized ring, so
/// the hot path never touches the heap (no std::function, no shared_ptr).
///
/// Determinism contract: a chunk body must write only state owned by its
/// index range, so results are bitwise independent of chunk boundaries and
/// thread count. Reductions across indices belong in the caller, after run()
/// returns, in index order.
///
/// Nested parallelism is governed by a lane *budget*: an outer run() that
/// splits into L lanes grants each lane a budget of floor(avail / L) lanes
/// for nested parallel_for calls, so the total number of concurrently
/// executing lanes never exceeds the pool size (no oversubscription). With
/// the common full-width outer split the budget is 1 and nested calls run
/// inline, exactly as before. Nested waits cannot deadlock: a nested caller
/// claims chunks from its own job until the cursor is exhausted, so it only
/// ever waits on chunks that another live thread is actively executing.
class ThreadPool {
 public:
  /// `num_threads` is the total number of concurrent lanes including the
  /// caller; the pool spawns num_threads - 1 workers. 1 = fully inline.
  explicit ThreadPool(std::size_t num_threads);
  ~ThreadPool();
  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  std::size_t size() const { return workers_.size() + 1; }

  /// Type-erased chunk body: fn(ctx, begin, end).
  using ChunkFn = void (*)(void*, std::size_t, std::size_t);

  /// Runs body(begin, end) over contiguous chunks covering [0, n) and blocks
  /// until every chunk finished. Rethrows the first exception a chunk threw
  /// (the remaining chunks still run to completion, so the pool stays
  /// reusable). `max_lanes` caps the split (0 = no extra cap); the effective
  /// lane count is additionally clamped by n, the pool size and the calling
  /// thread's nesting budget.
  template <typename Body>
  void run(std::size_t n, Body&& body, std::size_t max_lanes = 0) {
    using Plain = std::remove_reference_t<Body>;
    run_chunks(
        n, max_lanes,
        [](void* ctx, std::size_t begin, std::size_t end) {
          (*static_cast<Plain*>(ctx))(begin, end);
        },
        const_cast<void*>(static_cast<const void*>(std::addressof(body))));
  }

  /// The allocation-free core behind run(). Public so call sites that already
  /// have a function pointer + context can skip the template shim.
  void run_chunks(std::size_t n, std::size_t max_lanes, ChunkFn fn, void* ctx);

  /// True while the calling thread is executing a chunk body.
  static bool in_parallel_region();

  /// Lanes a nested parallel_for on the calling thread may still fan out to.
  /// 1 (the common case) means nested calls run inline. Meaningful only while
  /// in_parallel_region().
  static std::size_t lane_budget();

 private:
  struct Job;

  void worker_loop();
  void push_shares(Job* job, std::size_t shares);
  static void execute_chunks(Job& job);
  void finish_share(Job* job);

  std::vector<std::thread> workers_;
  std::vector<Job*> ring_;  // circular buffer of queued job shares
  std::size_t ring_head_ = 0;
  std::size_t ring_count_ = 0;
  std::mutex mutex_;
  std::condition_variable cv_;
  bool stop_ = false;
  /// Completion signalling for run_chunks' wait. Pool-owned (NOT per-Job) on
  /// purpose: jobs live on their caller's stack, and a worker that locked a
  /// mutex inside the Job to notify could still be touching it while the
  /// caller — having already observed refs == 0 — pops the frame. With the
  /// sync objects here, a worker's final access to a Job is the refs
  /// decrement itself, so caller-side destruction can never race a notify.
  std::mutex done_mutex_;
  std::condition_variable done_cv_;
};

/// Number of hardware threads (>= 1).
std::size_t hardware_threads();

/// Configures the process-wide pool used by parallel_for. n lanes total;
/// 1 (the default) keeps every loop serial, 0 means hardware_threads().
/// Not safe to call while parallel work is in flight.
void set_num_threads(std::size_t n);

/// Current lane count of the process-wide pool.
std::size_t num_threads();

/// The process-wide pool (created on first use).
ThreadPool& global_pool();

/// Runs body(begin, end) over chunks of [0, n) on the global pool. `grain`
/// is the minimum indices per lane: the split uses at most ceil(n / grain)
/// lanes, so small loops stay serial instead of paying a pool hand-off that
/// costs more than the work. Serial (one inline body(0, n) call) when the
/// resulting lane count is 1 — because the pool has one lane, n <= grain, or
/// the calling thread's nesting budget is exhausted.
template <typename Body>
void parallel_for(std::size_t n, std::size_t grain, Body&& body) {
  if (n == 0) return;
  const std::size_t budget = ThreadPool::in_parallel_region()
                                 ? ThreadPool::lane_budget()
                                 : num_threads();
  if (grain == 0) grain = 1;
  const std::size_t max_chunks = (n + grain - 1) / grain;
  const std::size_t lanes = std::min(budget, max_chunks);
  if (lanes <= 1) {
    body(std::size_t{0}, n);
    return;
  }
  global_pool().run(n, body, lanes);
}

/// Grain-1 convenience overload: every index may be its own lane. Right for
/// coarse loops (one client per index); give finer loops an explicit grain.
template <typename Body>
void parallel_for(std::size_t n, Body&& body) {
  parallel_for(n, std::size_t{1}, std::forward<Body>(body));
}

/// Scalar ops a lane must amortize before a fine-grained loop is worth
/// handing to the pool; below this the wakeup + claim traffic beats the work.
constexpr std::size_t kMinOpsPerLane = std::size_t{1} << 16;

/// Grain for a loop whose body costs ~ops_per_index scalar ops per index:
/// enough indices per lane that each chunk clears kMinOpsPerLane.
inline std::size_t grain_for_cost(std::size_t ops_per_index) {
  return std::max<std::size_t>(
      1, kMinOpsPerLane / std::max<std::size_t>(1, ops_per_index));
}

}  // namespace fedpkd::exec
