#include "src/wire/multibus_relay.hpp"

#include <algorithm>

#include "src/util/assert.hpp"

namespace tb::wire {

MultiBusRelay::MultiBusRelay(MultiBusSystem& system,
                             std::vector<std::uint8_t> nodes,
                             RelayConfig config)
    : system_(&system),
      nodes_(std::move(nodes)),
      config_(config),
      poller_(config_, [this](const RelaySegment& segment) {
        return enqueue(segment);
      }) {
  TB_REQUIRE(!nodes_.empty());
  for (std::uint8_t node : nodes_) {
    (void)system_->bus_for_node(node);  // throws when not attached
  }
  for (int b = 0; b < system_->bus_count(); ++b) {
    auto queue = std::make_unique<BusQueue>();
    queue->wake =
        std::make_unique<sim::Trigger>(system_->bus(b).simulator());
    queues_.push_back(std::move(queue));
  }
}

void MultiBusRelay::start() {
  TB_REQUIRE_MSG(!started_, "relay already running");
  for (int b = 0; b < system_->bus_count(); ++b) {
    TB_REQUIRE_MSG(
        config_.poll_period < system_->bus(b).link().reset_timeout(),
        "poll period exceeds the slave reset watchdog");
  }
  started_ = true;
  for (int b = 0; b < system_->bus_count(); ++b) {
    sim::spawn(poll_loop(b));
    sim::spawn(push_loop(b));
  }
}

sim::Task<void> MultiBusRelay::enqueue(const RelaySegment& segment) {
  if (segment.broadcast()) {
    for (std::uint8_t node : nodes_) {
      if (node == segment.src) continue;
      RelaySegment copy = segment;
      copy.dst = node;
      const int bus = system_->bus_for_node(node);
      queues_[bus]->pending.push_back(std::move(copy));
      queues_[bus]->wake->notify_all();
    }
    co_return;
  }
  if (std::find(nodes_.begin(), nodes_.end(), segment.dst) == nodes_.end()) {
    ++poller_.stats().segments_dropped;
    co_return;
  }
  const int bus = system_->bus_for_node(segment.dst);
  queues_[bus]->pending.push_back(segment);
  queues_[bus]->wake->notify_all();
}

sim::Task<void> MultiBusRelay::poll_loop(int bus_index) {
  sim::Simulator& sim = system_->bus(bus_index).simulator();
  std::vector<std::uint8_t> local;
  for (std::uint8_t node : nodes_) {
    if (system_->bus_for_node(node) == bus_index) local.push_back(node);
  }
  if (local.empty()) co_return;

  Master& master = system_->master(bus_index);
  for (;;) {
    const bool moved = co_await poller_.round(master, local, started_);
    if (!moved) co_await sim::delay(sim, config_.poll_period);
  }
}

sim::Task<void> MultiBusRelay::push_loop(int bus_index) {
  BusQueue& queue = *queues_[bus_index];
  Master& master = system_->master(bus_index);
  for (;;) {
    if (queue.pending.empty()) {
      // Re-armed every poll period rather than waiting forever: the
      // committed bench baselines measure this event schedule.
      (void)co_await queue.wake->wait_for(config_.poll_period);
      continue;
    }
    RelaySegment segment = std::move(queue.pending.front());
    queue.pending.pop_front();
    const std::vector<std::uint8_t> raw = encode_segment(segment);
    WireStatus status = co_await master.inbox_push(segment.dst, raw);
    if (status == WireStatus::kOk) {
      ++poller_.stats().segments_forwarded;
    } else {
      ++poller_.stats().segments_dropped;
    }
  }
}

}  // namespace tb::wire
