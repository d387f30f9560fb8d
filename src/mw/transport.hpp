// Message transports between SpaceClient and NodeCore.
//
// The transport is deliberately message-oriented: codecs produce whole
// messages, and each implementation owns its own framing/segmentation. Three
// implementations reproduce the paper's architecture alternatives:
//  * LoopbackTransport  — in-process with fixed delay (the Java RMI prototype
//    of Figure 3);
//  * NetTransport       — over an Ethernet/TCP-like net link (the socket
//    configuration of Figure 4, whose cost §4.3 argues against);
//  * WireTransport      — over TpWIRE slave mailboxes via the master relay
//    (the Figure 5/7 board configuration the paper evaluates).
#pragma once

#include <cstdint>
#include <initializer_list>
#include <span>
#include <vector>

#include "src/sim/signal.hpp"

namespace tb::mw {

struct TransportStats {
  std::uint64_t messages_sent = 0;
  std::uint64_t bytes_sent = 0;  ///< message payload bytes, pre-framing
  std::uint64_t messages_received = 0;
  std::uint64_t bytes_received = 0;
};

/// Client endpoint: one connection to the server.
///
/// send() and on_message() trade in spans: the sender keeps ownership of its
/// encode buffer (transports copy what they must into their own wire
/// containers), and received messages are views into the transport's framer
/// storage, valid only for the duration of the emit. Handlers that need the
/// bytes later must copy; SpaceClient/NodeCore decode immediately instead.
class ClientTransport {
 public:
  virtual ~ClientTransport() = default;

  /// Queues a whole encoded message toward the server. The span must stay
  /// valid for the duration of the call only.
  virtual void send(std::span<const std::uint8_t> message) = 0;

  /// Brace-literal convenience for tests: send({0x01, 0x02}).
  void send(std::initializer_list<std::uint8_t> message) {
    send(std::span<const std::uint8_t>(message.begin(), message.size()));
  }

  /// Fires once per complete message from the server.
  sim::Signal<std::span<const std::uint8_t>>& on_message() {
    return on_message_;
  }

  const TransportStats& stats() const { return stats_; }

 protected:
  void note_sent(std::size_t bytes) {
    ++stats_.messages_sent;
    stats_.bytes_sent += bytes;
  }
  void deliver(std::span<const std::uint8_t> message) {
    ++stats_.messages_received;
    stats_.bytes_received += message.size();
    on_message_.emit(message);
  }

  TransportStats stats_;
  sim::Signal<std::span<const std::uint8_t>> on_message_;
};

/// Server endpoint: talks to many clients, each identified by a session id
/// (transport-specific: loopback client index, network address hash, or
/// TpWIRE node id). Same span lifetime contract as ClientTransport.
class ServerTransport {
 public:
  using SessionId = std::uint64_t;

  virtual ~ServerTransport() = default;

  virtual void send(SessionId session, std::span<const std::uint8_t> message) = 0;

  void send(SessionId session, std::initializer_list<std::uint8_t> message) {
    send(session, std::span<const std::uint8_t>(message.begin(), message.size()));
  }

  sim::Signal<SessionId, std::span<const std::uint8_t>>& on_message() {
    return on_message_;
  }

  const TransportStats& stats() const { return stats_; }

 protected:
  void note_sent(std::size_t bytes) {
    ++stats_.messages_sent;
    stats_.bytes_sent += bytes;
  }
  void deliver(SessionId session, std::span<const std::uint8_t> message) {
    ++stats_.messages_received;
    stats_.bytes_received += message.size();
    on_message_.emit(session, message);
  }

  TransportStats stats_;
  sim::Signal<SessionId, std::span<const std::uint8_t>> on_message_;
};

}  // namespace tb::mw
