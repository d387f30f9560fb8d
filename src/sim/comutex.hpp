// Coroutine mutex.
//
// Serializes multi-step bus sequences: the TpWIRE master caches the selected
// node / address pointer across frames, so a SELECT + WRITE_ADDR + READ_DATA
// sequence must not interleave with another coroutine's sequence. FIFO
// handoff keeps scheduling fair and deterministic.
// A mutex may die before the suspended frame holding its Guard, which the
// Simulator reaps later, so it detaches its one live Guard when it dies.
#pragma once

#include <coroutine>
#include <deque>

#include "src/sim/simulator.hpp"
#include "src/util/assert.hpp"

namespace tb::sim {

class CoMutex {
 public:
  explicit CoMutex(Simulator& sim) : sim_(&sim) {}

  CoMutex(const CoMutex&) = delete;
  CoMutex& operator=(const CoMutex&) = delete;
  ~CoMutex() {
    if (guard_) guard_->mutex_ = nullptr;
  }

  /// co_await mutex.lock(); pair each lock with exactly one unlock().
  auto lock() { return LockAwaiter{*this}; }

  /// Releases the mutex; the longest-waiting coroutine (if any) is resumed
  /// through a zero-delay event and inherits ownership.
  void unlock() {
    TB_REQUIRE_MSG(locked_, "unlock of an unlocked CoMutex");
    if (waiters_.empty()) {
      locked_ = false;
      return;
    }
    auto next = waiters_.front();
    waiters_.pop_front();
    sim_->schedule_in(Time::zero(), [next] { next.resume(); });
  }

  bool locked() const { return locked_; }
  std::size_t waiter_count() const { return waiters_.size(); }

  /// RAII ownership: unlocks when destroyed, unless the mutex died first.
  class Guard {
   public:
    explicit Guard(CoMutex& m) : mutex_(&m) { m.guard_ = this; }
    Guard(const Guard&) = delete;
    Guard& operator=(const Guard&) = delete;
    ~Guard() {
      if (!mutex_) return;
      mutex_->guard_ = nullptr;
      mutex_->unlock();
    }

   private:
    friend class CoMutex;
    CoMutex* mutex_;
  };

 private:
  struct LockAwaiter {
    CoMutex& mutex;
    bool await_ready() const {
      if (!mutex.locked_) {
        mutex.locked_ = true;
        return true;
      }
      return false;
    }
    void await_suspend(std::coroutine_handle<> h) { mutex.waiters_.push_back(h); }
    void await_resume() const {}
  };

  Simulator* sim_;
  bool locked_ = false;
  Guard* guard_ = nullptr;  ///< the live Guard holding the lock, if any
  std::deque<std::coroutine_handle<>> waiters_;
};

}  // namespace tb::sim
