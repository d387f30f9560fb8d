#include "src/wire/relay.hpp"

#include <algorithm>

#include "src/util/assert.hpp"

namespace tb::wire {

sim::Task<bool> RelayPoller::round(Master& master,
                                   const std::vector<std::uint8_t>& nodes,
                                   const bool& running) {
  ++stats_.rounds;
  bool moved_any = false;
  for (std::uint8_t node : nodes) {
    if (!running) break;
    ++stats_.probes;
    PingResult probe = co_await master.ping(node);
    if (!probe.ok() || !probe.interrupt) continue;
    const bool moved = co_await drain(master, node);
    moved_any = moved_any || moved;
  }
  co_return moved_any;
}

sim::Task<bool> RelayPoller::drain(Master& master, std::uint8_t node) {
  BlockResult drained =
      co_await master.outbox_drain(node, config_.max_drain_per_visit);
  if (drained.data.empty()) {
    // Interrupt without outbox data (e.g. board-raised attention): clear it
    // so the poll loop does not spin on this node forever.
    co_await master.write_command(node, cmdbits::kClearInterrupt);
    co_return false;
  }
  stats_.bytes_drained += drained.data.size();
  auto [it, inserted] = parsers_.try_emplace(node);
  SegmentParser& parser = it->second;
  if (inserted) parser.set_max_payload(config_.max_segment_payload);
  parser.feed(drained.data);
  while (std::optional<RelaySegment> segment = parser.next()) {
    co_await forward_(*segment);
  }
  stats_.crc_failures = 0;
  for (const auto& [id, p] : parsers_) stats_.crc_failures += p.crc_failures();
  co_return true;
}

MasterRelay::MasterRelay(Master& master, std::vector<std::uint8_t> nodes,
                         RelayConfig config)
    : master_(&master),
      nodes_(std::move(nodes)),
      config_(config),
      poller_(config_, [this](const RelaySegment& segment) {
        return forward(segment);
      }) {
  TB_REQUIRE(!nodes_.empty());
  TB_REQUIRE(config_.max_drain_per_visit > 0);
}

void MasterRelay::start() {
  TB_REQUIRE_MSG(!running_, "relay already running");
  TB_REQUIRE_MSG(config_.poll_period < master_->bus().link().reset_timeout(),
                 "poll period exceeds the slave reset watchdog: idle slaves "
                 "would reset and lose their mailboxes between polls");
  running_ = true;
  sim::spawn(run());
}

sim::Task<void> MasterRelay::run() {
  sim::Simulator& sim = master_->bus().simulator();
  while (running_) {
    const bool moved = co_await poller_.round(*master_, nodes_, running_);
    if (!moved && running_) co_await sim::delay(sim, config_.poll_period);
  }
}

sim::Task<void> MasterRelay::forward(const RelaySegment& segment) {
  const std::vector<std::uint8_t> raw = encode_segment(segment);
  RelayStats& stats = poller_.stats();
  if (segment.broadcast()) {
    for (std::uint8_t node : nodes_) {
      if (node == segment.src) continue;
      WireStatus status = co_await master_->inbox_push(node, raw);
      if (status == WireStatus::kOk) {
        ++stats.segments_forwarded;
      } else {
        ++stats.segments_dropped;
      }
    }
    co_return;
  }
  if (std::find(nodes_.begin(), nodes_.end(), segment.dst) == nodes_.end()) {
    ++stats.segments_dropped;
    co_return;
  }
  WireStatus status = co_await master_->inbox_push(segment.dst, raw);
  if (status == WireStatus::kOk) {
    ++stats.segments_forwarded;
  } else {
    ++stats.segments_dropped;
  }
}

}  // namespace tb::wire
