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

/// Sets a kernel flag or bound for one scope and restores it on exit,
/// exceptions included.
template <typename T>
struct Scoped {
  Scoped(T& slot, T value) : slot(slot), outer(std::exchange(slot, value)) {}
  Scoped(const Scoped&) = delete;
  Scoped& operator=(const Scoped&) = delete;
  ~Scoped() { slot = outer; }
  T& slot;
  T outer;
};

}  // namespace

Simulator::Simulator(std::uint64_t seed, Binding binding) : rng_(seed) {
  if (binding == Binding::kAmbient) t_live.push_back(this);
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
  if (at < horizon_) horizon_ = at;  // never true while horizon_ is kNever
  ++scheduled_;
  if (pool_.live() > peak_pending_) peak_pending_ = pool_.live();
  return EventHandle(id);
}

Time Simulator::perturbed(Time delay) {
  if (perturb_delay_ && delay > Time::zero()) {
    delay = perturb_delay_(now_, delay);
    TB_REQUIRE_MSG(delay >= Time::zero(), "perturbed delay went negative");
  }
  return delay;
}

EventHandle Simulator::schedule_in(Time delay, detail::EventFn fn) {
  TB_REQUIRE_MSG(delay >= Time::zero(), "negative delay");
  return schedule_at(now_ + perturbed(delay), std::move(fn));
}

bool Simulator::try_advance(Time at) {
  // Only the delay-resume event's own coroutine chain may run ahead: code
  // an inline resume returns to must still run at the current time.
  if (tail_budget_ == 0 || detail::t_nested_resumes != 0 || stop_requested_ ||
      at > ahead_limit_) {
    return false;
  }
  if (horizon_ == kNever) horizon_ = next_event_time().value_or(Time::max());
  // An event pending at exactly `at` has a lower seq than the resume event
  // would get, so it must run first.
  if (at >= horizon_) return false;
  now_ = at;
  --tail_budget_;
  ++advanced_;
  return true;
}

bool Simulator::suspend_for(Time delay, std::coroutine_handle<> h) {
  TB_REQUIRE_MSG(delay > Time::zero(), "suspend_for needs a positive delay");
  const Time at = now_ + perturbed(delay);
  if (try_advance(at)) return false;
  schedule_at(at, [this, h] {
    const Scoped<int> tail(tail_budget_, kTailBudget);
    h.resume();
  });
  return true;
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
    horizon_ = kNever;  // the popped event may have been the bound
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
  const Scoped<Time> ahead(ahead_limit_, kNever);
  return dispatch_next(Time::zero(), /*bounded=*/false);
}

void Simulator::run() {
  const RunScope scope(this);
  const Scoped<Time> ahead(ahead_limit_, Time::max());
  stop_requested_ = false;
  while (!stop_requested_ && dispatch_next(Time::zero(), /*bounded=*/false)) {
  }
}

void Simulator::run_until(Time until) {
  TB_REQUIRE(until >= now_);
  const RunScope scope(this);
  const Scoped<Time> ahead(ahead_limit_, until);
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
  obs::Counter& advanced = registry.counter("sim.events.advanced");
  obs::Gauge& depth = registry.gauge("sim.queue.depth");
  obs::Gauge& peak = registry.gauge("sim.queue.peak_depth");
  registry.add_collector([this, &scheduled, &fired, &cancelled, &advanced,
                          &depth, &peak] {
    scheduled.set(scheduled_);
    fired.set(executed_);
    cancelled.set(cancelled_);
    advanced.set(advanced_);
    depth.set(static_cast<double>(pool_.live()));
    peak.set(static_cast<double>(peak_pending_));
  });
}

}  // namespace tb::sim
