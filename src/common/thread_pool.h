// Small work-stealing thread pool for coarse fan-outs: the LP candidate
// sweeps and the corpus conflict sets of market::ConflictProber.
//
// Scope is deliberately narrow: callers fan out a modest number of coarse,
// independent work units (warm-start chains of candidate LPs, one query's
// conflict set each) and join before reducing. ParallelFor hands out indices through a
// shared atomic cursor — an idle worker "steals" whatever index the busy
// ones have not claimed yet — which load-balances uneven chains without
// per-task queues. The calling thread participates, so `threads = 1`
// spawns nothing and runs inline; callers get bit-identical results for
// every thread count as long as each index writes only its own slot and
// the reduction happens index-ordered after the join.
#ifndef QP_COMMON_THREAD_POOL_H_
#define QP_COMMON_THREAD_POOL_H_

#include <functional>

namespace qp::common {

class ThreadPool {
 public:
  /// A pool that runs ParallelFor on up to `num_threads` threads in total
  /// (the caller counts as one). Values <= 1 mean "run everything inline".
  explicit ThreadPool(int num_threads);

  int num_threads() const { return num_threads_; }

  /// Invokes fn(0), ..., fn(count - 1), distributing indices dynamically
  /// across the pool, and returns once every call finished. fn must not
  /// throw; distinct indices may run concurrently, so fn must only touch
  /// index-private state (e.g. preallocated result slots).
  void ParallelFor(int count, const std::function<void(int)>& fn) const;

 private:
  int num_threads_;
};

}  // namespace qp::common

#endif  // QP_COMMON_THREAD_POOL_H_
