// GDB Remote Serial Protocol framing.
//
// The paper's co-simulation chain reaches the board software "through an
// interface based on the remote debugging features of gdb" (Figure 5): the
// C++ client under the instruction-set simulator exchanges bytes with the
// SystemC bus endpoint over gdb's remote protocol. We reproduce the framing
// layer of that protocol:
//
//   $<payload>#<2-hex-digit checksum>     checksum = sum(payload) mod 256
//   '+' acknowledge / '-' negative acknowledge (retransmit request)
//
// Payload bytes '$', '#', '}' are escaped as '}' followed by byte^0x20.
// bench_transport_stack measures the byte overhead this hop adds.
#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <vector>

namespace tb::cosim {

/// Encodes one RSP packet (without the expected '+' ack).
std::vector<std::uint8_t> rsp_encode(std::span<const std::uint8_t> payload);

/// Incremental RSP packet parser. Feed raw bytes; complete, checksum-valid
/// payloads pop out of next(); each consumed packet queues the ack byte
/// ('+' or '-') retrievable via take_acks().
class RspParser {
 public:
  void feed(std::span<const std::uint8_t> bytes);
  void feed_byte(std::uint8_t byte);

  /// Next decoded payload, if any.
  std::optional<std::vector<std::uint8_t>> next();

  /// Drains the pending ack bytes the receiver should transmit.
  std::vector<std::uint8_t> take_acks();

  std::uint64_t checksum_errors() const { return checksum_errors_; }
  std::uint64_t junk_bytes() const { return junk_bytes_; }

 private:
  enum class State { kIdle, kPayload, kEscape, kChecksumHi, kChecksumLo };

  State state_ = State::kIdle;
  std::vector<std::uint8_t> payload_;
  std::uint8_t checksum_hi_ = 0;
  std::vector<std::vector<std::uint8_t>> ready_;
  std::vector<std::uint8_t> acks_;
  std::uint64_t checksum_errors_ = 0;
  std::uint64_t junk_bytes_ = 0;
};

/// Total wire bytes rsp_encode produces for a payload of this size
/// (including the peer's ack byte) — used by the overhead ablation.
std::size_t rsp_wire_size(std::span<const std::uint8_t> payload);

}  // namespace tb::cosim
