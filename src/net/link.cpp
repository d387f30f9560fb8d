#include "src/net/link.hpp"

#include <algorithm>

#include "src/net/node.hpp"
#include "src/util/assert.hpp"

namespace tb::net {

SimplexLink::SimplexLink(sim::Simulator& sim, Node& from, Node& to,
                         LinkParams params)
    : sim_(&sim), from_(&from), to_(&to), params_(params) {
  TB_REQUIRE(params.bandwidth_bps > 0.0);
  TB_REQUIRE(params.queue_limit_packets > 0);
}

void SimplexLink::transmit(Packet packet) {
  if (queue_.size() >= params_.queue_limit_packets) {
    ++stats_.dropped;  // DropTail
    on_drop_.emit(packet);
    return;
  }
  on_enqueue_.emit(packet);
  queue_.push_back(std::move(packet));
  ++stats_.enqueued;
  stats_.max_queue_depth = std::max(stats_.max_queue_depth, queue_.size());
  if (!busy_) start_next();
}

void SimplexLink::start_next() {
  TB_ASSERT(!busy_);
  if (queue_.empty()) return;
  busy_ = true;
  Packet packet = std::move(queue_.front());
  queue_.pop_front();
  on_dequeue_.emit(packet);
  const sim::Time tx = tx_time(packet.size_bytes);
  // The link frees after serialization; delivery adds propagation on top.
  sim_->schedule_in(tx, [this] {
    busy_ = false;
    start_next();
  });
  sim_->schedule_in(tx + params_.prop_delay,
                    [this, p = std::move(packet)]() mutable {
                      ++stats_.transmitted;
                      stats_.bytes_transmitted += p.size_bytes;
                      on_receive_.emit(p);
                      to_->receive(std::move(p));
                    });
}

}  // namespace tb::net
