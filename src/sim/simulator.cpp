#include "src/sim/simulator.hpp"

#include <cassert>
#include <sstream>
#include <utility>
#include <vector>

#include "src/obs/metrics.hpp"
#include "src/sim/process.hpp"
#include "src/util/assert.hpp"
#include "src/util/strings.hpp"

namespace tb::sim {

std::string Time::to_string() const {
  return util::format_seconds(seconds());
}

namespace {

thread_local Simulator* t_running = nullptr;  ///< innermost run on this thread
thread_local std::vector<Simulator*> t_live;  ///< in construction order

/// Marks a simulator as the one being run on this thread for one scope.
struct RunScope {
  explicit RunScope(Simulator* sim) : outer(std::exchange(t_running, sim)) {}
  RunScope(const RunScope&) = delete;
  RunScope& operator=(const RunScope&) = delete;
  ~RunScope() { t_running = outer; }
  Simulator* outer;
};

}  // namespace

Simulator::Simulator(std::uint64_t seed) : rng_(seed) {
  t_live.push_back(this);
}

Simulator::~Simulator() {
  // Destroying a root unlinks it, so the head walks the list newest first.
  using Root = detail::Process::promise_type;
  while (processes_ != nullptr) {
    std::coroutine_handle<Root>::from_promise(static_cast<Root&>(*processes_))
        .destroy();
  }
  std::erase(t_live, this);
}

Simulator& Simulator::current() {
  Simulator* sim = t_running;
  if (sim == nullptr && !t_live.empty()) sim = t_live.back();
  TB_REQUIRE_MSG(sim != nullptr, "no live Simulator on this thread");
  return *sim;
}

void Simulator::adopt(detail::ProcessLink& root) {
  root.next = processes_;
  root.prev_next = &processes_;
  if (processes_ != nullptr) processes_->prev_next = &root.next;
  processes_ = &root;
}

EventHandle Simulator::schedule_at(Time at, detail::EventFn fn) {
  TB_REQUIRE(fn != nullptr);
  if (at < now_) {
#ifdef TB_SIM_PAST_IS_FATAL
    assert(false && "event scheduled in the past");
#endif
    at = now_;  // documented clamp: fires next, in seq order at now()
  }
  const std::uint64_t id = pool_.acquire(std::move(fn), next_seq_++);
  queue_.push({at, id});
  ++scheduled_;
  if (pool_.live() > peak_pending_) peak_pending_ = pool_.live();
  return EventHandle(id);
}

EventHandle Simulator::schedule_in(Time delay, detail::EventFn fn) {
  TB_REQUIRE_MSG(delay >= Time::zero(), "negative delay");
  if (perturb_delay_ && delay > Time::zero()) {
    delay = perturb_delay_(now_, delay);
    TB_REQUIRE_MSG(delay >= Time::zero(), "perturbed delay went negative");
  }
  return schedule_at(now_ + delay, std::move(fn));
}

bool Simulator::cancel(EventHandle handle) {
  if (!handle.valid() || !pool_.is_live(handle.id())) return false;
  pool_.release(handle.id());  // destroys the callback; heap entry dies lazily
  ++cancelled_;
  return true;
}

bool Simulator::is_pending(EventHandle handle) const {
  return handle.valid() && pool_.is_live(handle.id());
}

bool Simulator::dispatch_next(Time limit, bool bounded) {
  while (const detail::Entry* top = queue_.peek()) {
    if (!pool_.is_live(top->id)) {
      queue_.pop();  // lazily discard a cancelled event
      continue;
    }
    if (bounded && top->at > limit) return false;
    const detail::Entry entry = *top;
    queue_.pop();
    detail::EventFn fn = pool_.release(entry.id);
    TB_ASSERT(entry.at >= now_);
    now_ = entry.at;
    ++executed_;
    fn();
    return true;
  }
  return false;
}

std::optional<Time> Simulator::next_event_time() {
  while (const detail::Entry* top = queue_.peek()) {
    if (pool_.is_live(top->id)) return top->at;
    queue_.pop();
  }
  return std::nullopt;
}

bool Simulator::step() {
  const RunScope scope(this);
  return dispatch_next(Time::zero(), /*bounded=*/false);
}

void Simulator::run() {
  const RunScope scope(this);
  stop_requested_ = false;
  while (!stop_requested_ && dispatch_next(Time::zero(), /*bounded=*/false)) {
  }
}

void Simulator::run_until(Time until) {
  TB_REQUIRE(until >= now_);
  const RunScope scope(this);
  stop_requested_ = false;
  while (!stop_requested_ && dispatch_next(until, /*bounded=*/true)) {
  }
  if (!stop_requested_ && now_ < until) now_ = until;
}

void Simulator::bind_metrics(obs::Registry& registry) {
  if (!registry.has_clock()) {
    registry.set_clock(
        [this] { return static_cast<std::uint64_t>(now_.count_ns()); });
  }
  obs::Counter& scheduled = registry.counter("sim.events.scheduled");
  obs::Counter& fired = registry.counter("sim.events.fired");
  obs::Counter& cancelled = registry.counter("sim.events.cancelled");
  obs::Gauge& depth = registry.gauge("sim.queue.depth");
  obs::Gauge& peak = registry.gauge("sim.queue.peak_depth");
  registry.add_collector([this, &scheduled, &fired, &cancelled, &depth, &peak] {
    scheduled.set(scheduled_);
    fired.set(executed_);
    cancelled.set(cancelled_);
    depth.set(static_cast<double>(pool_.live()));
    peak.set(static_cast<double>(peak_pending_));
  });
}

}  // namespace tb::sim
