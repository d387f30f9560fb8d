// Multicast callback signal for observer wiring (traces, monitors, mailbox
// notifications). Header-only; not related to POSIX signals.
#pragma once

#include <cstddef>
#include <functional>
#include <vector>

namespace tb::sim {

/// Connect-only multicast delegate. Slots run synchronously in connection
/// order. No disconnection support: observers live as long as the model —
/// matching how traces attach in NS-2 scripts.
template <typename... Args>
class Signal {
 public:
  using Slot = std::function<void(Args...)>;

  void connect(Slot slot) { slots_.push_back(std::move(slot)); }

  void emit(Args... args) const {
    for (const auto& slot : slots_) slot(args...);
  }

  bool empty() const { return slots_.empty(); }

 private:
  std::vector<Slot> slots_;
};

}  // namespace tb::sim
