#include "src/wire/multibus_relay.hpp"

#include <algorithm>

#include "src/util/assert.hpp"

namespace tb::wire {

MultiBusRelay::MultiBusRelay(MultiBusSystem& system,
                             std::vector<std::uint8_t> nodes,
                             RelayConfig config)
    : system_(&system), nodes_(std::move(nodes)), config_(config) {
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

void MultiBusRelay::enqueue(const RelaySegment& segment) {
  if (segment.broadcast()) {
    for (std::uint8_t node : nodes_) {
      if (node == segment.src) continue;
      RelaySegment copy = segment;
      copy.dst = node;
      const int bus = system_->bus_for_node(node);
      queues_[bus]->pending.push_back(std::move(copy));
      queues_[bus]->wake->notify_all();
    }
    return;
  }
  if (std::find(nodes_.begin(), nodes_.end(), segment.dst) == nodes_.end()) {
    ++stats_.segments_dropped;
    return;
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
    ++stats_.rounds;
    bool moved_any = false;
    for (std::uint8_t node : local) {
      ++stats_.probes;
      PingResult probe = co_await master.ping(node);
      if (!probe.ok() || !probe.interrupt) continue;
      const bool moved = co_await service(node);
      moved_any = moved_any || moved;
    }
    if (!moved_any) co_await sim::delay(sim, config_.poll_period);
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
      ++stats_.segments_forwarded;
    } else {
      ++stats_.segments_dropped;
    }
  }
}

sim::Task<bool> MultiBusRelay::service(std::uint8_t node) {
  Master& master = system_->master_for_node(node);
  BlockResult drained =
      co_await master.outbox_drain(node, config_.max_drain_per_visit);
  if (drained.data.empty()) {
    co_await master.write_command(node, cmdbits::kClearInterrupt);
    co_return false;
  }
  stats_.bytes_drained += drained.data.size();
  auto [it, inserted] = parsers_.try_emplace(node);
  SegmentParser& parser = it->second;
  if (inserted) parser.set_max_payload(config_.max_segment_payload);
  parser.feed(drained.data);
  while (std::optional<RelaySegment> segment = parser.next()) {
    enqueue(*segment);
  }
  co_return true;
}

}  // namespace tb::wire
