// Small-buffer-optimized move-only callable wrapper.
//
// std::function's type-erased storage heap-allocates for anything larger
// than two or three pointers, and every Simulator::schedule_in call used to
// pay that allocation. InplaceFunction keeps captures up to `Capacity` bytes
// inline (the kernel's event slots use 48, enough for every callback the
// models create today) and only falls back to the heap for fat captures.
// Unlike std::function it is move-only, so move-only captures (coroutine
// handles wrapped in RAII guards, unique_ptrs) work directly.
//
// Dispatch is a single ops-table pointer per erased type — no virtual
// bases, no RTTI — so invoking an engaged function is one indirect load
// plus one indirect call.
#pragma once

#include <cstddef>
#include <memory>
#include <new>
#include <type_traits>
#include <utility>

#include "src/util/assert.hpp"

namespace tb::util {

template <typename, std::size_t Capacity = 48>
class InplaceFunction;

template <typename R, typename... Args, std::size_t Capacity>
class InplaceFunction<R(Args...), Capacity> {
 public:
  InplaceFunction() = default;

  template <typename F>
    requires(!std::is_same_v<std::remove_cvref_t<F>, InplaceFunction> &&
             std::is_invocable_r_v<R, std::remove_cvref_t<F>&, Args...>)
  InplaceFunction(F&& f) {  // NOLINT(google-explicit-constructor)
    emplace<std::remove_cvref_t<F>>(std::forward<F>(f));
  }

  InplaceFunction(std::nullptr_t) {}  // NOLINT(google-explicit-constructor)

  InplaceFunction(InplaceFunction&& other) noexcept { move_from(other); }

  InplaceFunction& operator=(InplaceFunction&& other) noexcept {
    if (this != &other) {
      reset();
      move_from(other);
    }
    return *this;
  }

  InplaceFunction(const InplaceFunction&) = delete;
  InplaceFunction& operator=(const InplaceFunction&) = delete;

  ~InplaceFunction() { reset(); }

  explicit operator bool() const { return ops_ != nullptr; }
  bool operator==(std::nullptr_t) const { return ops_ == nullptr; }

  R operator()(Args... args) {
    TB_ASSERT(ops_ != nullptr);
    return ops_->invoke(&storage_, std::forward<Args>(args)...);
  }

  /// Destroys the held callable (no-op when empty).
  void reset() {
    if (ops_ != nullptr) {
      ops_->destroy(&storage_);
      ops_ = nullptr;
    }
  }

 private:
  struct Ops {
    R (*invoke)(void*, Args&&...);
    void (*destroy)(void*) noexcept;
    void (*relocate)(void* dst, void* src) noexcept;  ///< move + destroy src
  };

  template <typename F>
  static constexpr bool fits_inline =
      sizeof(F) <= Capacity && alignof(F) <= alignof(std::max_align_t) &&
      std::is_nothrow_move_constructible_v<F>;

  template <typename F>
  void emplace(F f) {
    if constexpr (fits_inline<F>) {
      static constexpr Ops ops = {
          [](void* s, Args&&... args) -> R {
            return (*std::launder(reinterpret_cast<F*>(s)))(
                std::forward<Args>(args)...);
          },
          [](void* s) noexcept { std::launder(reinterpret_cast<F*>(s))->~F(); },
          [](void* dst, void* src) noexcept {
            F* from = std::launder(reinterpret_cast<F*>(src));
            ::new (dst) F(std::move(*from));
            from->~F();
          }};
      ::new (&storage_) F(std::move(f));
      ops_ = &ops;
    } else {
      static constexpr Ops ops = {
          [](void* s, Args&&... args) -> R {
            return (**std::launder(reinterpret_cast<F**>(s)))(
                std::forward<Args>(args)...);
          },
          [](void* s) noexcept {
            delete *std::launder(reinterpret_cast<F**>(s));
          },
          [](void* dst, void* src) noexcept {
            F** from = std::launder(reinterpret_cast<F**>(src));
            ::new (dst) F*(*from);
          }};
      ::new (&storage_) F*(new F(std::move(f)));
      ops_ = &ops;
    }
  }

  void move_from(InplaceFunction& other) noexcept {
    ops_ = other.ops_;
    if (ops_ != nullptr) {
      ops_->relocate(&storage_, &other.storage_);
      other.ops_ = nullptr;
    }
  }

  alignas(std::max_align_t) std::byte storage_[Capacity];
  const Ops* ops_ = nullptr;
};

}  // namespace tb::util
