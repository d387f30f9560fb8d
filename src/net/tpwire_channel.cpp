#include "src/net/tpwire_channel.hpp"

#include "src/util/assert.hpp"
#include "src/util/byte_buffer.hpp"

namespace tb::net {

WireCbrSource::WireCbrSource(sim::Simulator& sim, wire::SlaveDevice& slave,
                             std::uint8_t dst_node, CbrParams params)
    : sim_(&sim), slave_(&slave), dst_node_(dst_node), params_(params) {
  TB_REQUIRE(params.packet_size > 0);
  TB_REQUIRE(params.packet_size <= wire::kMaxSegmentPayload);
}

void WireCbrSource::start() {
  TB_REQUIRE_MSG(params_.rate_bytes_per_sec > 0.0,
                 "a zero-rate CBR source must simply not be started");
  if (running_) return;
  running_ = true;
  emit_and_reschedule();
}

void WireCbrSource::emit_and_reschedule() {
  if (!running_) return;
  wire::RelaySegment segment;
  segment.src = slave_->node_id();
  segment.dst = dst_node_;
  segment.payload.assign(params_.packet_size, 0);
  if (params_.packet_size >= 8) {
    util::ByteBuffer ts;
    ts.put_i64(sim_->now().count_ns());
    std::copy(ts.bytes().begin(), ts.bytes().end(), segment.payload.begin());
  }
  // A full outbox refuses the segment (overflow back-pressure); the source
  // keeps its rate regardless.
  slave_->host_send(wire::encode_segment(segment));
  const sim::Time gap = sim::Time::from_seconds(
      static_cast<double>(params_.packet_size) / params_.rate_bytes_per_sec);
  sim_->schedule_in(gap, [this] { emit_and_reschedule(); });
}

WireSink::WireSink(sim::Simulator& sim, wire::SlaveDevice& slave)
    : sim_(&sim), slave_(&slave) {
  slave_->on_inbox_byte().connect([this](std::uint8_t) { drain(); });
}

void WireSink::drain() {
  const std::vector<std::uint8_t> bytes = slave_->host_receive();
  parser_.feed(bytes);
  while (auto segment = parser_.next()) {
    ++segments_;
    payload_bytes_ += segment->payload.size();
    if (segment->payload.size() >= 8) {
      util::ByteCursor cursor(segment->payload);
      const auto sent_ns = cursor.get_i64();
      latency_.add((sim_->now() - sim::Time::ns(sent_ns)).seconds());
    }
  }
}

}  // namespace tb::net
