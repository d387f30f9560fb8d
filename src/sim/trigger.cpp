#include "src/sim/trigger.hpp"

#include <vector>

namespace tb::sim {

void Trigger::WaitAwaiter::await_suspend(std::coroutine_handle<> h) {
  node = std::make_shared<WaitNode>();
  node->handle = h;
  trigger.waiters_.push_back(node);
}

void Trigger::TimedWaitAwaiter::await_suspend(std::coroutine_handle<> h) {
  node = std::make_shared<WaitNode>();
  node->handle = h;
  trigger.waiters_.push_back(node);
  NodePtr captured = node;
  Trigger* t = &trigger;
  node->timeout_event = trigger.sim_->schedule_in(
      timeout < Time::zero() ? Time::zero() : timeout,
      [t, captured] {
        // Remove from the wait list and resume with notified == false.
        t->waiters_.remove(captured);
        captured->notified = false;
        captured->handle.resume();
      });
}

void Trigger::wake(const NodePtr& node, bool notified) {
  node->notified = notified;
  if (node->timeout_event.valid()) sim_->cancel(node->timeout_event);
  NodePtr captured = node;
  // Resume via a zero-delay event: keeps notify_all() non-reentrant.
  sim_->schedule_in(Time::zero(), [captured] { captured->handle.resume(); });
}

void Trigger::notify_all() {
  std::vector<NodePtr> batch(waiters_.begin(), waiters_.end());
  waiters_.clear();
  for (const auto& node : batch) wake(node, /*notified=*/true);
}

}  // namespace tb::sim
