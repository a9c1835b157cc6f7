// Persistent shard worker pool for the sharded simulator.
//
// One long-lived thread per shard; run(fn) invokes fn(shard) on every
// worker in parallel and returns when all are done (the sharded System
// passes its whole window loop as fn, once per run_until/run_all). The
// condition-variable handshake on both edges gives the caller/worker
// happens-before that TSan checks: everything the caller wrote before run()
// is visible to the workers, and everything any worker wrote during fn is
// visible to the caller after run() returns. Exceptions thrown by fn are
// captured and rethrown on the caller's thread (first one wins).
#pragma once

#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <exception>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

namespace hds::exp {

class ShardPool {
 public:
  explicit ShardPool(std::size_t shards) : shards_(shards) {
    workers_.reserve(shards);
    for (std::size_t s = 0; s < shards; ++s) {
      workers_.emplace_back([this, s] { worker_loop(s); });
    }
  }

  ~ShardPool() {
    {
      std::lock_guard<std::mutex> lock(mu_);
      stop_ = true;
      ++epoch_;
    }
    cv_start_.notify_all();
    for (std::thread& t : workers_) t.join();
  }

  ShardPool(const ShardPool&) = delete;
  ShardPool& operator=(const ShardPool&) = delete;

  // Runs fn(s) for every shard s in parallel; blocks until all return.
  void run(const std::function<void(std::size_t)>& fn) {
    std::unique_lock<std::mutex> lock(mu_);
    fn_ = &fn;
    remaining_ = shards_;
    ++epoch_;
    cv_start_.notify_all();
    cv_done_.wait(lock, [this] { return remaining_ == 0; });
    fn_ = nullptr;
    if (error_) {
      std::exception_ptr e = error_;
      error_ = nullptr;
      lock.unlock();
      std::rethrow_exception(e);
    }
  }

 private:
  void worker_loop(std::size_t shard) {
    std::uint64_t seen = 0;
    for (;;) {
      const std::function<void(std::size_t)>* fn = nullptr;
      {
        std::unique_lock<std::mutex> lock(mu_);
        cv_start_.wait(lock, [&] { return epoch_ != seen; });
        seen = epoch_;
        if (stop_) return;
        fn = fn_;
      }
      std::exception_ptr err;
      try {
        (*fn)(shard);
      } catch (...) {
        err = std::current_exception();
      }
      {
        std::lock_guard<std::mutex> lock(mu_);
        if (err && !error_) error_ = err;
        if (--remaining_ == 0) cv_done_.notify_one();
      }
    }
  }

  std::size_t shards_;
  std::mutex mu_;
  std::condition_variable cv_start_;
  std::condition_variable cv_done_;
  const std::function<void(std::size_t)>* fn_ = nullptr;
  std::size_t remaining_ = 0;
  std::uint64_t epoch_ = 0;
  bool stop_ = false;
  std::exception_ptr error_;
  std::vector<std::thread> workers_;
};

}  // namespace hds::exp
