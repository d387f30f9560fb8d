// Condition objects for coroutine processes (the SystemC sc_event analogue).
//
// A Trigger parks waiting coroutines; notify_all() resumes them through
// zero-delay events so notification never re-enters the notifier's stack
// (the same discipline SystemC uses for immediate vs delta notification —
// we always use the delta form for determinism).
//
// wait_for() gives a timed wait that reports whether the trigger fired before
// the deadline — the primitive behind the TpWIRE master's RX timeout and the
// tuplespace's blocking take with lease deadlines.
#pragma once

#include <coroutine>
#include <list>
#include <memory>

#include "src/sim/process.hpp"
#include "src/sim/simulator.hpp"
#include "src/sim/time.hpp"

namespace tb::sim {

class Trigger {
 public:
  explicit Trigger(Simulator& sim) : sim_(&sim) {}

  Trigger(const Trigger&) = delete;
  Trigger& operator=(const Trigger&) = delete;

  /// co_await trigger.wait() — suspends until the next notify.
  auto wait() { return WaitAwaiter{*this, nullptr}; }

  /// co_await trigger.wait_for(t) — resumes with true when notified, false
  /// when `t` elapses first. A non-positive timeout still parks the waiter
  /// and times out after a zero-delay event round.
  auto wait_for(Time timeout) { return TimedWaitAwaiter{*this, timeout, nullptr}; }

  /// Wakes every currently parked waiter (waiters added during notification
  /// processing wait for the next notify).
  void notify_all();

  std::size_t waiter_count() const { return waiters_.size(); }
  Simulator& simulator() { return *sim_; }

 private:
  struct WaitNode {
    std::coroutine_handle<> handle;
    bool notified = false;
    EventHandle timeout_event;  // valid only for timed waits
  };
  using NodePtr = std::shared_ptr<WaitNode>;

  struct WaitAwaiter {
    Trigger& trigger;
    NodePtr node;
    bool await_ready() const { return false; }
    void await_suspend(std::coroutine_handle<> h);
    void await_resume() const {}
  };

  struct TimedWaitAwaiter {
    Trigger& trigger;
    Time timeout;
    NodePtr node;
    bool await_ready() const { return false; }
    void await_suspend(std::coroutine_handle<> h);
    bool await_resume() const { return node->notified; }
  };

  void wake(const NodePtr& node, bool notified);

  Simulator* sim_;
  std::list<NodePtr> waiters_;
};

}  // namespace tb::sim
