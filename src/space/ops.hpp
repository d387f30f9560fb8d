// Coroutine adapters over SpaceEngine's callback API.
//
//   std::optional<Tuple> t = co_await space::take(space, tmpl, Time::sec(5));
//
// Safe because SpaceEngine delivers every completion through a zero-delay
// simulator event — the callback can never fire before the coroutine has
// finished suspending.
#pragma once

#include <coroutine>
#include <optional>

#include "src/sim/process.hpp"
#include "src/space/engine.hpp"

namespace tb::space {

namespace detail {

struct MatchAwaiter {
  SpaceEngine& space;
  Template tmpl;
  sim::Time timeout;
  bool take;
  std::optional<Tuple> result;

  bool await_ready() const { return false; }
  void await_suspend(std::coroutine_handle<> h) {
    auto callback = [this, h](std::optional<Tuple> r) {
      result = std::move(r);
      sim::resume_nested(h);
    };
    if (take) {
      space.take_async(std::move(tmpl), timeout, std::move(callback));
    } else {
      space.read_async(std::move(tmpl), timeout, std::move(callback));
    }
  }
  std::optional<Tuple> await_resume() { return std::move(result); }
};

}  // namespace detail

/// co_await: destructive match, blocking up to `timeout`.
inline detail::MatchAwaiter take(SpaceEngine& space, Template tmpl,
                                 sim::Time timeout = kLeaseForever) {
  return {space, std::move(tmpl), timeout, /*take=*/true, std::nullopt};
}

/// co_await: non-destructive match, blocking up to `timeout`.
inline detail::MatchAwaiter read(SpaceEngine& space, Template tmpl,
                                 sim::Time timeout = kLeaseForever) {
  return {space, std::move(tmpl), timeout, /*take=*/false, std::nullopt};
}

}  // namespace tb::space
