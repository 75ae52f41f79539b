/**
 * @file
 * Host-side parallel execution substrate: a lazily-started persistent task
 * pool plus chunked parallelFor / parallelMap helpers with deterministic
 * result ordering. The compile-and-simulate pipeline uses this to evaluate
 * independent mapping candidates concurrently (autotune trials, candidate
 * scoring, figure sweeps) without changing any observable result order.
 *
 * Design points:
 *  - Results are deterministic: parallelMap returns results indexed by the
 *    input position, never by completion order. Any reduction over the
 *    results must be folded by the caller in index order if it is
 *    order-sensitive (floating-point ties, first-wins selection).
 *  - Nested use is safe but not nested-parallel: a parallelFor issued from
 *    inside a worker runs inline on the calling thread. This keeps the
 *    pool deadlock-free without a work-stealing scheduler.
 *  - Exceptions thrown by body functions are captured and rethrown on the
 *    calling thread after all chunks finish (first failing chunk by index
 *    wins, deterministically).
 *  - Thread count: hardware_concurrency, overridable with NPP_THREADS
 *    (NPP_THREADS=1 forces fully serial inline execution).
 */

#ifndef NPP_SUPPORT_PARALLEL_H
#define NPP_SUPPORT_PARALLEL_H

#include <cstdint>
#include <functional>
#include <vector>

namespace npp {

/** Number of worker threads the pool targets (>= 1). Reads NPP_THREADS on
 *  first use; 1 means all parallel helpers degrade to inline loops. */
int parallelThreadCount();

/** Override the thread count programmatically (benches compare serial vs
 *  parallel in one process). 0 restores the default/NPP_THREADS value.
 *  Must not be called from inside a parallel region. */
void setParallelThreadCount(int threads);

/** True while the calling thread is executing inside a parallelFor body
 *  (worker or participating caller). Nested parallel calls run inline. */
bool inParallelRegion();

/**
 * Scoped guard: while it lives, the calling thread is in the state a
 * parallelFor body runs in, so every parallel helper it calls runs
 * inline. Threads that already get their parallelism elsewhere (the
 * mapping service runs one thread per connection) take it so their
 * sweeps do not queue for, and contend over, the shared pool.
 */
class InlineParallelScope
{
  public:
    InlineParallelScope();
    ~InlineParallelScope();
    InlineParallelScope(const InlineParallelScope &) = delete;
    InlineParallelScope &operator=(const InlineParallelScope &) = delete;

  private:
    bool saved_;
};

/**
 * Run body(i) for every i in [begin, end), distributing contiguous chunks
 * over the task pool. The calling thread participates. Returns after every
 * iteration completed; rethrows the first (lowest-index) captured
 * exception if any body threw.
 *
 * `grain` is the minimum number of iterations per chunk; 0 picks a chunk
 * size that yields ~4 chunks per thread.
 */
void parallelFor(int64_t begin, int64_t end,
                 const std::function<void(int64_t)> &body,
                 int64_t grain = 0);

/**
 * Map fn over [0, n) and collect results in input order. fn must be
 * invocable concurrently from multiple threads.
 */
template <typename T>
std::vector<T>
parallelMap(int64_t n, const std::function<T(int64_t)> &fn, int64_t grain = 0)
{
    std::vector<T> out(static_cast<size_t>(n < 0 ? 0 : n));
    parallelFor(
        0, n, [&](int64_t i) { out[static_cast<size_t>(i)] = fn(i); }, grain);
    return out;
}

} // namespace npp

#endif // NPP_SUPPORT_PARALLEL_H
