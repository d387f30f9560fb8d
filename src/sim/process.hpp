// Coroutine processes on top of the event kernel.
//
// This provides the role SystemC's SC_THREAD plays in the paper's
// co-simulation: sequential model code that suspends on simulated time
// (`co_await delay(sim, t)`) or on conditions (`co_await trigger.wait()`),
// scheduled by the same deterministic event queue as everything else.
//
// Usage:
//   Task<void> producer(Simulator& sim, ...) {
//     co_await delay(sim, Time::ms(10));
//     ...
//   }
//   spawn(producer(sim, ...));   // detached: runs under the simulator
//
// Tasks are lazy: nothing runs until the task is spawned or co_awaited.
// A co_awaited child propagates its exception to the awaiting parent; an
// exception escaping a detached process propagates out of Simulator::run().
//
// Ownership: a detached process frees itself when it finishes or when its
// simulator dies. spawn() binds it to the simulator being run on this thread
// (inside run(), run_until() or step()), otherwise to the most recently
// constructed live Simulator on this thread. Destroying a process destroys
// the child tasks it awaits, so every frame's locals are destroyed.
#pragma once

#include <coroutine>
#include <exception>
#include <optional>
#include <type_traits>
#include <utility>

#include "src/sim/simulator.hpp"
#include "src/util/assert.hpp"

namespace tb::sim {

namespace detail {

/// Thread-local freelist recycling coroutine frames. Model code allocates a
/// frame per co_awaited child — one per bus cycle on the hot paths — and
/// glibc malloc/free dominates the frame-level bus model's per-cycle cost
/// (DESIGN.md §13). Frames cluster into a handful of sizes, so a
/// size-classed freelist turns the pair into two pointer swaps. Lists are
/// per-thread (the threaded runtime runs a simulator per thread); a frame
/// freed on a foreign thread just migrates lists, which stays safe because
/// each list is only ever touched by its owning thread.
class FrameArena {
 public:
  static void* allocate(std::size_t n) {
    const std::size_t cls = (n + kGranularity - 1) / kGranularity;
    if (cls == 0 || cls > kClasses) return ::operator new(n);
    List& list = tls().lists[cls - 1];
    if (list.head != nullptr) {
      Block* block = list.head;
      list.head = block->next;
      --list.count;
      return block;
    }
    return ::operator new(cls * kGranularity);
  }

  static void release(void* p, std::size_t n) noexcept {
    const std::size_t cls = (n + kGranularity - 1) / kGranularity;
    List* list = cls >= 1 && cls <= kClasses ? &tls().lists[cls - 1] : nullptr;
    if (list == nullptr || list->count >= kMaxPerClass) {
      ::operator delete(p);
      return;
    }
    Block* block = static_cast<Block*>(p);
    block->next = list->head;
    list->head = block;
    ++list->count;
  }

 private:
  struct Block {
    Block* next;
  };
  struct List {
    Block* head = nullptr;
    std::size_t count = 0;
  };
  struct Tls {
    List lists[16];
    ~Tls() {  // drain so thread exit leaks nothing
      for (List& list : lists) {
        while (list.head != nullptr) {
          Block* block = list.head;
          list.head = block->next;
          ::operator delete(block);
        }
      }
    }
  };

  static constexpr std::size_t kGranularity = 64;
  static constexpr std::size_t kClasses = 16;
  static constexpr std::size_t kMaxPerClass = 256;

  static Tls& tls() {
    static thread_local Tls t;
    return t;
  }
};

/// Routes every coroutine-frame allocation through the arena. The compiler
/// resolves these in the promise's scope, so every frame type qualifies.
struct ArenaFrame {
  void* operator new(std::size_t n) { return FrameArena::allocate(n); }
  void operator delete(void* p, std::size_t n) noexcept {
    FrameArena::release(p, n);
  }
};

struct PromiseBase : ArenaFrame {
  std::coroutine_handle<> continuation;
  std::exception_ptr exception;

  struct FinalAwaiter {
    std::coroutine_handle<> continuation;
    bool await_ready() const noexcept { return false; }
    std::coroutine_handle<> await_suspend(std::coroutine_handle<>) const noexcept {
      return continuation ? continuation : std::noop_coroutine();
    }
    void await_resume() const noexcept {}
  };

  std::suspend_always initial_suspend() noexcept { return {}; }
  FinalAwaiter final_suspend() noexcept { return {continuation}; }
  void unhandled_exception() { exception = std::current_exception(); }
};

template <typename T>
struct ResultPromise : PromiseBase {
  std::optional<T> value;
  void return_value(T v) { value = std::move(v); }
};

template <>
struct ResultPromise<void> : PromiseBase {
  void return_void() noexcept {}
};

}  // namespace detail

/// Lazily started coroutine returning T. Move-only; owns its frame.
template <typename T = void>
class [[nodiscard]] Task {
 public:
  struct promise_type : detail::ResultPromise<T> {
    Task get_return_object() {
      return Task(std::coroutine_handle<promise_type>::from_promise(*this));
    }
  };
  using handle_type = std::coroutine_handle<promise_type>;

  Task() = default;
  explicit Task(handle_type h) : handle_(h) {}
  Task(Task&& other) noexcept : handle_(std::exchange(other.handle_, nullptr)) {}
  Task& operator=(Task&& other) noexcept {
    if (this != &other) {
      destroy();
      handle_ = std::exchange(other.handle_, nullptr);
    }
    return *this;
  }
  ~Task() { destroy(); }

  Task(const Task&) = delete;
  Task& operator=(const Task&) = delete;

  bool valid() const { return handle_ != nullptr; }

  /// Awaiting a task starts it (symmetric transfer) and resumes the awaiter
  /// on completion, rethrowing any exception from the child.
  auto operator co_await() && {
    struct Awaiter {
      handle_type h;
      bool await_ready() const { return !h || h.done(); }
      std::coroutine_handle<> await_suspend(std::coroutine_handle<> cont) {
        h.promise().continuation = cont;
        return h;
      }
      T await_resume() {
        if (h && h.promise().exception) std::rethrow_exception(h.promise().exception);
        if constexpr (!std::is_void_v<T>) {
          TB_ASSERT(h.promise().value.has_value());
          return std::move(*h.promise().value);
        }
      }
    };
    return Awaiter{handle_};
  }

 private:
  void destroy() {
    if (handle_) {
      handle_.destroy();
      handle_ = nullptr;
    }
  }
  handle_type handle_ = nullptr;
};

namespace detail {

/// Root frame of a detached process: the only frame type with a
/// ProcessLink, so per-cycle child frames stay small. It binds itself to
/// Simulator::current() and starts at once.
struct Process {
  struct promise_type : ArenaFrame, ProcessLink {
    promise_type() { Simulator::current().adopt(*this); }
    Process get_return_object() noexcept { return {}; }
    std::suspend_never initial_suspend() noexcept { return {}; }
    std::suspend_never final_suspend() noexcept { return {}; }
    void return_void() noexcept {}
    // Surfaces through Simulator::run(); the simulator frees the frame.
    void unhandled_exception() { throw; }
  };
};

template <typename Fn>
Process run_callable(Fn fn) {
  co_await fn();
}

}  // namespace detail

/// Starts a detached process: runs synchronously until its first
/// suspension, then continues under simulator control.
///
/// LIFETIME: the coroutine frame stores references to its *parameters*, but
/// a lambda coroutine's captures live in the closure object, which the frame
/// only points to. `spawn(lambda())` would therefore dangle once the
/// temporary closure dies — use the callable overload below, which copies
/// the closure into the process's root frame for the process lifetime.
void spawn(Task<void> task);

/// Spawns `fn()` as a detached process, keeping a copy of the callable (and
/// thus a lambda's captures) alive until the process ends. Prefer this for
/// lambda coroutines: `spawn([&]() -> Task<void> { ... });`
template <typename Fn>
  requires(!std::same_as<std::remove_cvref_t<Fn>, Task<void>> &&
           std::same_as<std::invoke_result_t<std::remove_cvref_t<Fn>&>,
                        Task<void>>)
void spawn(Fn&& fn) {
  const detail::NestedResume nested;  // the process starts inline
  detail::run_callable<std::remove_cvref_t<Fn>>(std::forward<Fn>(fn));
}

/// Awaitable that resumes the coroutine after `d` of simulated time. When
/// nothing else could run in between, the kernel advances the clock in
/// place and the coroutine continues without suspending (simulator.hpp).
struct DelayAwaiter {
  Simulator& sim;
  Time d;
  bool await_ready() const { return d <= Time::zero(); }
  bool await_suspend(std::coroutine_handle<> h) {
    return sim.suspend_for(d, h);
  }
  void await_resume() const {}
};

inline DelayAwaiter delay(Simulator& sim, Time d) { return DelayAwaiter{sim, d}; }

}  // namespace tb::sim
