#include "gpusim/pool.hpp"

namespace simcov::gpusim {

namespace {

struct Parked {
  std::mutex mu;
  std::vector<std::unique_ptr<WorkerPool>> pools;
};

Parked& parked() {
  static Parked p;
  return p;
}

}  // namespace

WorkerPool::Lease WorkerPool::lease(unsigned helpers) {
  Parked& p = parked();
  {
    const std::lock_guard<std::mutex> lock(p.mu);
    for (auto it = p.pools.begin(); it != p.pools.end(); ++it) {
      if ((*it)->helpers() == helpers) {
        Lease l((*it).release());
        p.pools.erase(it);
        return l;
      }
    }
  }
  return Lease(new WorkerPool(helpers));
}

void WorkerPool::Release::operator()(WorkerPool* pool) const {
  Parked& p = parked();
  const std::lock_guard<std::mutex> lock(p.mu);
  p.pools.emplace_back(pool);
}

WorkerPool::WorkerPool(unsigned helpers) : errors_(helpers + 1) {
  threads_.reserve(helpers);
  try {
    for (unsigned w = 1; w <= helpers; ++w) {
      threads_.emplace_back([this, w] { helper_loop(w); });
    }
  } catch (...) {
    stop_and_join();  // the destructor does not run for a failed ctor
    throw;
  }
}

WorkerPool::~WorkerPool() { stop_and_join(); }

void WorkerPool::stop_and_join() {
  {
    const std::lock_guard<std::mutex> lock(mu_);
    stop_ = true;
  }
  wake_.notify_all();
  for (std::thread& t : threads_) t.join();
}

void WorkerPool::run_erased(void* job, Thunk thunk) {
  {
    const std::lock_guard<std::mutex> lock(mu_);
    job_ = job;
    thunk_ = thunk;
    pending_ = helpers();
    ++generation_;
  }
  wake_.notify_all();
  try {
    thunk(job, 0);
  } catch (...) {
    errors_[0] = std::current_exception();
  }
  std::unique_lock<std::mutex> lock(mu_);
  done_.wait(lock, [this] { return pending_ == 0; });
  for (std::exception_ptr& e : errors_) {
    if (e) {
      const std::exception_ptr first = e;
      for (std::exception_ptr& r : errors_) r = nullptr;
      std::rethrow_exception(first);
    }
  }
}

void WorkerPool::helper_loop(unsigned w) {
  std::uint64_t seen = 0;
  std::unique_lock<std::mutex> lock(mu_);
  for (;;) {
    wake_.wait(lock, [&] { return stop_ || generation_ != seen; });
    if (stop_) return;
    seen = generation_;
    void* const job = job_;
    const Thunk thunk = thunk_;
    lock.unlock();
    try {
      thunk(job, w);
    } catch (...) {
      errors_[w] = std::current_exception();
    }
    lock.lock();
    if (--pending_ == 0) done_.notify_one();
  }
}

}  // namespace simcov::gpusim
