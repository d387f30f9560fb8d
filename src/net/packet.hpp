// Network packet (the NS-2 Packet analogue).
//
// Carries explicit header fields rather than NS-2's header stack: enough for
// the traffic generators, links, static routing and the flow monitors. The
// byte payload is optional — pure load packets (CBR background traffic)
// carry only a size.
#pragma once

#include <algorithm>
#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "src/sim/time.hpp"

namespace tb::net {

/// Immutable shared byte payload. Packets are copied by value per hop;
/// sharing the byte block behind a refcount turns those copies into pointer
/// bumps. Nothing writes a block once it is built, so every copy may alias
/// it.
class Payload {
 public:
  Payload() = default;
  Payload(std::vector<std::uint8_t> bytes)  // NOLINT: implicit by design
      : data_(bytes.empty()
                  ? nullptr
                  : std::make_shared<std::vector<std::uint8_t>>(std::move(bytes))) {}

  Payload& operator=(std::vector<std::uint8_t> bytes) {
    *this = Payload(std::move(bytes));
    return *this;
  }

  void assign(std::size_t n, std::uint8_t value) {
    data_ = n == 0 ? nullptr
                   : std::make_shared<std::vector<std::uint8_t>>(n, value);
  }

  std::size_t size() const { return data_ ? data_->size() : 0; }
  bool empty() const { return size() == 0; }

  std::span<const std::uint8_t> bytes() const {
    return data_ ? std::span<const std::uint8_t>(*data_)
                 : std::span<const std::uint8_t>();
  }
  operator std::span<const std::uint8_t>() const { return bytes(); }

  std::uint8_t operator[](std::size_t i) const { return (*data_)[i]; }

  bool operator==(const Payload& other) const {
    const auto a = bytes();
    const auto b = other.bytes();
    return a.size() == b.size() && std::equal(a.begin(), a.end(), b.begin());
  }

 private:
  /// Null means empty.
  std::shared_ptr<const std::vector<std::uint8_t>> data_;
};

/// (node, port) addressing; port selects the agent within the node.
struct Address {
  std::uint32_t node = 0;
  std::uint16_t port = 0;

  bool operator==(const Address&) const = default;
  std::string to_string() const;
};

enum class PacketType : std::uint8_t {
  kData = 0,
  kAck,
  kControl,
};

struct Packet {
  std::uint64_t uid = 0;       ///< globally unique, stamped by the sender
  std::uint32_t flow_id = 0;   ///< groups packets for monitoring
  std::uint64_t seq = 0;       ///< per-flow sequence number
  PacketType type = PacketType::kData;
  Address src;
  Address dst;
  std::size_t size_bytes = 0;  ///< wire size (headers + payload)
  std::uint8_t ttl = 32;
  Payload payload;             ///< may be smaller than size_bytes
  sim::Time created_at;        ///< stamped by the sender

  std::string to_string() const;
};

}  // namespace tb::net
