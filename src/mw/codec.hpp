// Message codec interface.
//
// Two implementations reproduce the paper's stack and its obvious ablation:
//  * XmlCodec    — "XML is used to represent data entries" (Figure 4). The
//                  verbose text encoding is a first-order contributor to the
//                  middleware's load on the bus.
//  * BinaryCodec — compact TLV encoding; bench_transport_stack quantifies
//                  how much of Table 4's cost is the XML representation.
#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <vector>

#include "src/mw/message.hpp"

namespace tb::mw {

class Codec {
 public:
  virtual ~Codec() = default;

  /// Appends the encoded message to `out`. The buffer-reuse hot path: a
  /// connection keeps one scratch vector and clears it between messages, so
  /// steady-state encodes allocate nothing.
  virtual void encode_into(const Message& message,
                           std::vector<std::uint8_t>& out) const = 0;

  /// Fresh-vector convenience over encode_into.
  std::vector<std::uint8_t> encode(const Message& message) const {
    std::vector<std::uint8_t> out;
    encode_into(message, out);
    return out;
  }

  /// nullopt on malformed input.
  virtual std::optional<Message> decode(
      std::span<const std::uint8_t> bytes) const = 0;

  virtual const char* name() const = 0;
};

class XmlCodec final : public Codec {
 public:
  void encode_into(const Message& message,
                   std::vector<std::uint8_t>& out) const override;
  std::optional<Message> decode(
      std::span<const std::uint8_t> bytes) const override;
  const char* name() const override { return "xml"; }
};

class BinaryCodec final : public Codec {
 public:
  void encode_into(const Message& message,
                   std::vector<std::uint8_t>& out) const override;
  std::optional<Message> decode(
      std::span<const std::uint8_t> bytes) const override;
  const char* name() const override { return "binary"; }
};

}  // namespace tb::mw
