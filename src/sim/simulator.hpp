// Discrete-event simulation kernel.
//
// This is the substrate the paper obtains from NS-2: a time-ordered event
// queue with deterministic execution. Events scheduled for the same instant
// execute in scheduling order (a monotonic sequence number breaks ties), so
// every run with the same seed is bit-identical.
//
// Hot-path layout (DESIGN.md §8): callbacks live in a slab-allocated event
// pool with generation-tagged handles (cancel/is_pending are O(1) array
// probes), callback captures up to 48 bytes are stored inline (no heap
// allocation on the common schedule_in), and pending events sit in a
// two-tier split queue ordered by (time, seq) with lazy deletion.
//
// Lookahead (DESIGN.md §8): a coroutine that co_awaits a delay at the tail
// of a delay-resume event continues in place, with now() advanced to its
// wake-up time and no event scheduled, when no other event could run
// first: the wake-up time is strictly earlier than the next live event,
// within the run_until() bound, no stop is requested, and no inline resume
// (resume_nested, spawn) is on the stack. One delay-resume event advances
// at most 128 delays in a row before the next goes through the queue (a
// bound on native stack depth). step() never looks ahead. Every
// simulated timestamp, RNG draw and perturbation-hook call is the same
// either way; only executed_events() counts fewer.
#pragma once

#include <coroutine>
#include <cstdint>
#include <functional>
#include <optional>

#include "src/sim/event_pool.hpp"
#include "src/sim/time.hpp"
#include "src/util/rng.hpp"

namespace tb::obs {
class Registry;
}

namespace tb::sim {

namespace detail {

/// Coroutine resumes nested inside an event callback on this thread
/// (resume_nested, spawn). The kernel looks ahead only at depth 0.
inline thread_local int t_nested_resumes = 0;

/// Counts one nested resume for its scope, exceptions included.
struct NestedResume {
  NestedResume() { ++t_nested_resumes; }
  ~NestedResume() { --t_nested_resumes; }
  NestedResume(const NestedResume&) = delete;
  NestedResume& operator=(const NestedResume&) = delete;
};

/// Intrusive link of a detached process's root frame (process.hpp) into its
/// Simulator; it unlinks itself when the frame dies.
struct ProcessLink {
  ProcessLink* next = nullptr;
  ProcessLink** prev_next = nullptr;  ///< the pointer that points here
  ~ProcessLink() {
    if (prev_next == nullptr) return;  // never adopted
    if (next != nullptr) next->prev_next = prev_next;
    *prev_next = next;
  }
};
}  // namespace detail

/// Resumes `h` inline from inside another callback (a completion that
/// hands a coroutine its result). Every inline resume outside src/sim goes
/// through here: while `h` runs, a delay it awaits is scheduled as an event
/// rather than advanced in place, because the caller's code after this
/// call must still run at the current time.
inline void resume_nested(std::coroutine_handle<> h) {
  const detail::NestedResume nested;
  h.resume();
}

/// Identifies a scheduled event; value-semantic and cheap to copy.
/// A default-constructed handle is "null" and safe to cancel (no-op).
/// The id packs a pool slot index with a generation tag, so a handle left
/// over from a fired or cancelled event never aliases a newer event that
/// reuses the slot.
class EventHandle {
 public:
  EventHandle() = default;
  bool valid() const { return id_ != 0; }
  std::uint64_t id() const { return id_; }

 private:
  friend class Simulator;
  explicit EventHandle(std::uint64_t id) : id_(id) {}
  std::uint64_t id_ = 0;
};

/// The event-driven simulator. Single-threaded by design: all model code runs
/// on the scheduler's call stack, so models need no locking. Independent
/// Simulator instances share no state at all, which is what lets tb::par run
/// one per thread. A Simulator is created and destroyed on the same thread.
/// It owns the detached processes bound to it and destroys those still
/// suspended when it dies, newest first (DESIGN.md §8).
class Simulator {
 public:
  /// Whether spawns made outside any run may bind here (see current()).
  /// A model that spawns no processes, such as an oracle space on its own
  /// ticket clock, runs on a kPrivate simulator: built in the middle of
  /// another model's set-up, it must not capture that model's processes.
  enum class Binding : bool { kAmbient, kPrivate };

  explicit Simulator(std::uint64_t seed = 1,
                     Binding binding = Binding::kAmbient);
  ~Simulator();

  Simulator(const Simulator&) = delete;
  Simulator& operator=(const Simulator&) = delete;

  /// The simulator a process spawned now binds to: the one whose run(),
  /// run_until() or step() is executing on this thread, otherwise the most
  /// recently constructed live kAmbient Simulator on this thread. Requires
  /// one.
  static Simulator& current();

  /// Takes ownership of a detached process's root frame.
  void adopt(detail::ProcessLink& root);

  /// Current simulated time. Monotonically non-decreasing.
  Time now() const { return now_; }

  /// Schedules `fn` at absolute time `at`. An `at` in the past is clamped
  /// to now() — the event fires next, after already-pending events at
  /// now() (seq order breaks the tie). Model code should not rely on the
  /// clamp: define TB_SIM_PAST_IS_FATAL to turn it into a hard assert in
  /// debug builds when flushing out misbehaving models.
  EventHandle schedule_at(Time at, detail::EventFn fn);

  /// Schedules `fn` after a relative delay (must be >= 0).
  EventHandle schedule_in(Time delay, detail::EventFn fn);

  /// Suspends coroutine `h` for `delay` (> 0), remapped once through the
  /// delay-perturbation hook. Returns false when the kernel instead
  /// advanced now() to the wake-up time in place (see the lookahead rule at
  /// the top of this file): the caller then continues without suspending.
  /// Otherwise schedules the resume event and returns true.
  bool suspend_for(Time delay, std::coroutine_handle<> h);

  /// Cancels a pending event. Safe on null, fired, stale, or
  /// already-cancelled handles. Returns true iff the event was pending and
  /// is now cancelled.
  bool cancel(EventHandle handle);

  bool is_pending(EventHandle handle) const;

  /// Executes the next event, if any. Returns false when the queue is empty.
  bool step();

  /// Runs until the queue drains or stop() is called.
  void run();

  /// Runs all events with timestamp <= `until`, then advances now() to
  /// `until` even if the queue drained early (NS-2 "run for" semantics —
  /// lets callers compose successive run windows).
  void run_until(Time until);

  /// Convenience: run_until(now() + delta).
  void run_for(Time delta) { run_until(now_ + delta); }

  /// Requests run()/run_until() to return after the current event.
  void stop() { stop_requested_ = true; }

  /// Timestamp of the next live event, or nullopt when the queue is empty.
  /// Discards cancelled entries encountered while peeking.
  std::optional<Time> next_event_time();

  std::size_t pending_events() const { return pool_.live(); }
  /// Events dispatched. A delay the kernel advanced in place is not an
  /// event; advanced_events() counts those.
  std::uint64_t executed_events() const { return executed_; }
  std::uint64_t advanced_events() const { return advanced_; }
  std::uint64_t scheduled_events() const { return scheduled_; }
  std::uint64_t cancelled_events() const { return cancelled_; }
  /// High-water mark of pending_events() over the run.
  std::size_t peak_pending_events() const { return peak_pending_; }

  /// Observability hook (DESIGN.md §7): installs this simulator as the
  /// registry's clock (unless one is already set) and registers a collector
  /// that mirrors the kernel counters into `sim.events.*` / `sim.queue.*`
  /// at snapshot time. Pull-only — the hot path pays four always-on
  /// integer bumps and nothing else. The simulator must outlive the
  /// registry's last snapshot().
  void bind_metrics(obs::Registry& registry);

  /// Root RNG for the simulation; components should fork() child streams.
  util::Xoshiro256& rng() { return rng_; }

  /// Clock-skew / jitter hook (fault injection): every relative delay passed
  /// to schedule_in() or suspend_for() is remapped through `f(now, delay)`
  /// before scheduling or advancing.
  /// The hook must be a pure function of its arguments (and of deterministic
  /// state such as a forked RNG stream) so runs stay reproducible; it must
  /// return a non-negative delay. Pass nullptr to remove.
  using DelayPerturbation = std::function<Time(Time now, Time delay)>;
  void set_delay_perturbation(DelayPerturbation f) {
    perturb_delay_ = std::move(f);
  }

 private:
  /// Marks "not known" in horizon_ and "no lookahead" in ahead_limit_:
  /// every event time is >= 0.
  static constexpr Time kNever = Time::ns(-1);

  bool dispatch_next(Time limit, bool bounded);
  Time perturbed(Time delay);
  bool try_advance(Time at);

  Time now_ = Time::zero();
  /// Latest time run()/run_until() lets a delay advance to; kNever outside
  /// them and under step().
  Time ahead_limit_ = kNever;
  /// A lower bound on the next live event's time (Time::max() when none),
  /// or kNever when not known. schedule_at lowers it, a dispatch forgets
  /// it; a cancel leaves it too low, which only refuses an advance.
  Time horizon_ = kNever;
  /// Delays the running event may still advance: kTailBudget when a delay
  /// resume starts, 0 outside one. The budget bounds the native stack:
  /// without optimization a symmetric transfer between coroutines is a
  /// nested call, so a chain that never suspends grows the stack with each
  /// child task it finishes until it goes back through the queue.
  int tail_budget_ = 0;
  static constexpr int kTailBudget = 128;
  std::uint64_t next_seq_ = 1;  ///< > 0: a packed event id is never 0
  std::uint64_t executed_ = 0;
  std::uint64_t advanced_ = 0;
  std::uint64_t scheduled_ = 0;
  std::uint64_t cancelled_ = 0;
  std::size_t peak_pending_ = 0;
  bool stop_requested_ = false;
  detail::EventPool pool_;
  detail::EventQueue queue_;
  util::Xoshiro256 rng_;
  DelayPerturbation perturb_delay_;
  detail::ProcessLink* processes_ = nullptr;  ///< live roots, newest first
};

}  // namespace tb::sim
