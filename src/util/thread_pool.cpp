#include "util/thread_pool.hpp"

#include <algorithm>
#include <cstdlib>

#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "util/assert.hpp"

namespace drift::util {

namespace {
// True while this thread is executing chunks of some parallel_for (as a
// pool worker or as the submitting caller).  Nested submissions from
// such a thread run inline instead of re-entering the pool.
thread_local bool tl_in_parallel_region = false;
}  // namespace

ThreadPool& ThreadPool::instance() {
  static ThreadPool pool;
  return pool;
}

int ThreadPool::default_num_threads() {
  if (const char* env = std::getenv("DRIFT_NUM_THREADS")) {
    char* end = nullptr;
    const long n = std::strtol(env, &end, 10);
    if (end != env && n >= 1 && n <= 1024) return static_cast<int>(n);
  }
  const unsigned hw = std::thread::hardware_concurrency();
  return hw > 0 ? static_cast<int>(hw) : 1;
}

ThreadPool::ThreadPool(int num_threads) {
  start_workers(num_threads > 0 ? num_threads : default_num_threads());
}

ThreadPool::~ThreadPool() { stop_workers(); }

void ThreadPool::start_workers(int n) {
  num_threads_ = n >= 1 ? n : 1;
  // The submitting thread participates, so n threads means n-1 workers.
  workers_.reserve(static_cast<std::size_t>(num_threads_ - 1));
  for (int i = 0; i < num_threads_ - 1; ++i) {
    workers_.emplace_back([this] { worker_loop(); });
  }
}

void ThreadPool::stop_workers() {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    shutdown_ = true;
  }
  work_cv_.notify_all();
  for (auto& t : workers_) t.join();
  workers_.clear();
  shutdown_ = false;
}

void ThreadPool::resize(int n) {
  stop_workers();
  start_workers(n > 0 ? n : default_num_threads());
}

void ThreadPool::run_chunks(Job& job) {
  DRIFT_OBS_SPAN("pool.chunks");  // per-thread busy window of this job
  tl_in_parallel_region = true;
  for (;;) {
    const std::int64_t c = job.next_chunk.fetch_add(1);
    if (c >= job.num_chunks) break;
    DRIFT_OBS_COUNT("thread_pool.chunks", 1);
    bool cancelled;
    {
      std::lock_guard<std::mutex> lock(job.error_mutex);
      cancelled = static_cast<bool>(job.first_error);
    }
    if (!cancelled) {
      const std::int64_t lo = job.begin + c * job.grain;
      const std::int64_t hi = std::min(lo + job.grain, job.end);
      try {
        (*job.fn)(lo, hi);
      } catch (...) {
        std::lock_guard<std::mutex> lock(job.error_mutex);
        if (!job.first_error) job.first_error = std::current_exception();
      }
    }
    job.chunks_done.fetch_add(1);
  }
  tl_in_parallel_region = false;
}

void ThreadPool::worker_loop() {
  std::unique_lock<std::mutex> lock(mutex_);
  std::uint64_t seen_epoch = 0;
  for (;;) {
    work_cv_.wait(lock, [&] {
      return shutdown_ ||
             (job_ != nullptr && job_epoch_ != seen_epoch &&
              job_->next_chunk.load() < job_->num_chunks);
    });
    if (shutdown_) return;
    Job* job = job_;
    seen_epoch = job_epoch_;
    ++active_workers_;
    lock.unlock();
    // Wake latency from job publication to first chunk claim.  Wall
    // clock, so deliberately outside the golden-test metric prefixes.
    DRIFT_OBS_HISTOGRAM("thread_pool.queue_wait_us",
                        obs::trace_now_us() - job->publish_us,
                        1, 10, 100, 1000, 10000);
    run_chunks(*job);
    lock.lock();
    --active_workers_;
    done_cv_.notify_all();
  }
}

void ThreadPool::parallel_for(
    std::int64_t begin, std::int64_t end, std::int64_t grain,
    const std::function<void(std::int64_t, std::int64_t)>& fn) {
  DRIFT_CHECK(grain > 0, "parallel_for grain must be positive");
  if (end <= begin) return;

  Job job;
  job.begin = begin;
  job.end = end;
  job.grain = grain;
  job.num_chunks = (end - begin + grain - 1) / grain;
  job.fn = &fn;

  // Inline path: a single chunk, a single-thread pool, or a nested call
  // from inside a running parallel region.  Chunks execute in order on
  // this thread; the decomposition (and therefore the result) is the
  // same as the threaded path.
  if (job.num_chunks == 1 || num_threads_ == 1 || tl_in_parallel_region) {
    DRIFT_OBS_COUNT("thread_pool.inline_jobs", 1);
    const bool was_in_region = tl_in_parallel_region;
    tl_in_parallel_region = true;
    std::exception_ptr error;
    for (std::int64_t c = 0; c < job.num_chunks && !error; ++c) {
      const std::int64_t lo = begin + c * grain;
      const std::int64_t hi = std::min(lo + grain, end);
      try {
        fn(lo, hi);
      } catch (...) {
        error = std::current_exception();
      }
    }
    tl_in_parallel_region = was_in_region;
    if (error) std::rethrow_exception(error);
    return;
  }

  // One job at a time; concurrent submitters from distinct threads queue
  // here rather than interleaving chunk counters.
  DRIFT_OBS_COUNT("thread_pool.jobs", 1);
  std::lock_guard<std::mutex> submit_guard(submit_mutex_);
  {
    std::lock_guard<std::mutex> lock(mutex_);
    job.publish_us = obs::trace_now_us();
    job_ = &job;
    ++job_epoch_;
  }
  work_cv_.notify_all();

  run_chunks(job);  // the caller participates

  std::unique_lock<std::mutex> lock(mutex_);
  job_ = nullptr;
  done_cv_.wait(lock, [&] {
    return job.chunks_done.load() == job.num_chunks && active_workers_ == 0;
  });
  lock.unlock();

  if (job.first_error) std::rethrow_exception(job.first_error);
}

void parallel_for(std::int64_t begin, std::int64_t end, std::int64_t grain,
                  const std::function<void(std::int64_t, std::int64_t)>& fn) {
  ThreadPool::instance().parallel_for(begin, end, grain, fn);
}

}  // namespace drift::util
