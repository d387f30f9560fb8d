#include "src/mw/net_transport.hpp"

#include "src/util/assert.hpp"

namespace tb::mw {
namespace {

/// Chops a framed byte stream into MTU-sized packets and sends each. The
/// per-packet payload is the one copy a packet hop needs — downstream links
/// share it copy-on-write.
template <typename SendPacket>
void chop_and_send(std::span<const std::uint8_t> framed,
                   const NetTransportParams& params, SendPacket&& send_packet) {
  std::size_t offset = 0;
  while (offset < framed.size()) {
    const std::size_t chunk = std::min(params.mtu_payload, framed.size() - offset);
    send_packet(net::Payload(std::vector<std::uint8_t>(
        framed.begin() + offset, framed.begin() + offset + chunk)));
    offset += chunk;
  }
}

}  // namespace

NetClientTransport::NetClientTransport(sim::Simulator& sim, net::Node& node,
                                       std::uint16_t port, net::Address server,
                                       NetTransportParams params)
    : net::Agent(sim, node, port), server_(server), params_(params) {
  TB_REQUIRE(params.mtu_payload > 0);
}

void NetClientTransport::send(std::span<const std::uint8_t> message) {
  note_sent(message.size());
  frame_buf_.clear();
  MessageFramer::frame_into(message, frame_buf_);
  chop_and_send(frame_buf_, params_, [this](net::Payload payload) {
    net::Packet packet;
    packet.dst = server_;
    packet.seq = seq_++;
    packet.size_bytes = payload.size() + params_.header_overhead;
    packet.payload = std::move(payload);
    Agent::send(std::move(packet));
  });
}

void NetClientTransport::recv(net::Packet packet) {
  framer_.feed(packet.payload);
  while (auto message = framer_.next()) deliver(*message);
}

NetServerTransport::NetServerTransport(sim::Simulator& sim, net::Node& node,
                                       std::uint16_t port,
                                       NetTransportParams params)
    : net::Agent(sim, node, port), params_(params) {}

void NetServerTransport::send(SessionId session,
                              std::span<const std::uint8_t> message) {
  auto it = sessions_.find(session);
  TB_REQUIRE_MSG(it != sessions_.end(), "unknown net transport session");
  note_sent(message.size());
  frame_buf_.clear();
  MessageFramer::frame_into(message, frame_buf_);
  Session& s = it->second;
  chop_and_send(frame_buf_, params_, [this, &s](net::Payload payload) {
    net::Packet packet;
    packet.dst = s.peer;
    packet.seq = s.seq++;
    packet.size_bytes = payload.size() + params_.header_overhead;
    packet.payload = std::move(payload);
    Agent::send(std::move(packet));
  });
}

void NetServerTransport::recv(net::Packet packet) {
  const SessionId session = session_of(packet.src);
  Session& s = sessions_[session];
  s.peer = packet.src;
  s.framer.feed(packet.payload);
  while (auto message = s.framer.next()) deliver(session, *message);
}

}  // namespace tb::mw
