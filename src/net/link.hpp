// Point-to-point simplex link with a DropTail queue (the NS-2 duplex-link's
// directed half).
//
// Serialization: tx_time = size * 8 / bandwidth; a packet in flight holds
// the link; arrivals meanwhile enter the queue; overflow drops from the
// tail, exactly NS-2's default DropTail discipline. Delivery happens
// tx_time + prop_delay after transmission starts.
#pragma once

#include <cstdint>
#include <deque>

#include "src/net/packet.hpp"
#include "src/sim/signal.hpp"
#include "src/sim/simulator.hpp"

namespace tb::net {

class Node;

struct LinkParams {
  double bandwidth_bps = 10'000'000.0;  ///< bits per second
  sim::Time prop_delay = sim::Time::us(10);
  std::size_t queue_limit_packets = 50;  ///< DropTail capacity
};

class SimplexLink {
 public:
  SimplexLink(sim::Simulator& sim, Node& from, Node& to, LinkParams params);

  SimplexLink(const SimplexLink&) = delete;
  SimplexLink& operator=(const SimplexLink&) = delete;

  /// Enqueues a packet for transmission; drops when the queue is full.
  void transmit(Packet packet);

  Node& from() { return *from_; }
  Node& to() { return *to_; }
  const LinkParams& params() const { return params_; }

  sim::Time tx_time(std::size_t size_bytes) const {
    return sim::Time::from_seconds(static_cast<double>(size_bytes) * 8.0 /
                                   params_.bandwidth_bps);
  }

  struct Stats {
    std::uint64_t enqueued = 0;
    std::uint64_t transmitted = 0;
    std::uint64_t dropped = 0;
    std::uint64_t bytes_transmitted = 0;
    std::size_t max_queue_depth = 0;
  };
  const Stats& stats() const { return stats_; }

  /// Packet event hooks in NS-2 trace terms: enqueue ('+'), dequeue /
  /// transmission start ('-'), receive at the far node ('r'), drop ('d').
  sim::Signal<const Packet&>& on_enqueue() { return on_enqueue_; }
  sim::Signal<const Packet&>& on_dequeue() { return on_dequeue_; }
  sim::Signal<const Packet&>& on_receive() { return on_receive_; }
  sim::Signal<const Packet&>& on_drop() { return on_drop_; }

 private:
  void start_next();

  sim::Simulator* sim_;
  Node* from_;
  Node* to_;
  LinkParams params_;
  std::deque<Packet> queue_;
  bool busy_ = false;
  sim::Signal<const Packet&> on_enqueue_;
  sim::Signal<const Packet&> on_dequeue_;
  sim::Signal<const Packet&> on_receive_;
  sim::Signal<const Packet&> on_drop_;
  Stats stats_;
};

}  // namespace tb::net
