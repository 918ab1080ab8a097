#pragma once
// Persistent helper threads for block-parallel launches (device.hpp).
//
// A Device with W workers leases one WorkerPool of W - 1 helpers.
// run(job) hands job(1) .. job(W - 1) to the helpers, runs job(0) on the
// calling rank thread, and returns once all W have finished.  Between
// launches the helpers sleep on a condition variable: no spinning, and no
// thread is created per launch.  The first exception by worker index (0
// first) is rethrown on the caller after every worker finished, so no
// helper can outlive the launch state it references.
//
// Pools outlive their Device: a released pool parks, and the next Device
// asking for the same helper count takes it over, so a process that runs
// one simulation after another starts its helper threads (and their
// first-touch stacks and malloc arenas) once, not once per run.  Parked
// pools are joined at process exit.

#include <condition_variable>
#include <cstdint>
#include <exception>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

namespace simcov::gpusim {

class WorkerPool {
 public:
  /// Returns a leased pool to the parked set instead of destroying it.
  struct Release {
    void operator()(WorkerPool* pool) const;
  };
  using Lease = std::unique_ptr<WorkerPool, Release>;

  /// A pool of `helpers` threads: a parked one if any, else a new one.
  static Lease lease(unsigned helpers);

  explicit WorkerPool(unsigned helpers);
  ~WorkerPool();

  WorkerPool(const WorkerPool&) = delete;
  WorkerPool& operator=(const WorkerPool&) = delete;

  /// Runs job(w) for every w in [0, helpers()] and waits for all of them.
  template <typename Job>
  void run(Job& job) {
    run_erased(&job, [](void* j, unsigned w) { (*static_cast<Job*>(j))(w); });
  }

  unsigned helpers() const { return static_cast<unsigned>(threads_.size()); }

 private:
  using Thunk = void (*)(void*, unsigned);
  void run_erased(void* job, Thunk thunk);
  void helper_loop(unsigned w);
  void stop_and_join();

  std::mutex mu_;
  std::condition_variable wake_;  ///< helpers: a new launch (or stop)
  std::condition_variable done_;  ///< caller: the last helper finished
  void* job_ = nullptr;
  Thunk thunk_ = nullptr;
  std::uint64_t generation_ = 0;
  unsigned pending_ = 0;
  bool stop_ = false;
  std::vector<std::exception_ptr> errors_;  ///< by worker index
  std::vector<std::thread> threads_;
};

}  // namespace simcov::gpusim
