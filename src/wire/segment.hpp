// Relay segment framing.
//
// TpWIRE slaves can talk to the master only (paper §3.1), so any
// slave-to-slave byte flow — CBR background traffic and the tuplespace
// transport alike — is shuttled by the master: it drains the source slave's
// outbox and pushes into the destination slave's inbox. The mailboxes are
// plain byte FIFOs, so flows are framed into segments the relay can route:
//
//   | 0xA5 | src | dst | len_lo | len_hi | payload... | crc8 |
//
// crc8 covers src..payload. dst 127 broadcasts to every other node. The
// parser is incremental (bytes arrive one mailbox pop at a time) and
// resynchronizes on the 0xA5 magic after a CRC error, counting the damage.
//
// Resynchronization re-scans the bytes of the failed frame rather than
// discarding them: a single byte lost in transit (a mailbox pop whose RX
// frame was corrupted) shifts the stream so the parser swallows the next
// segment's header as payload — without the re-scan, one lost byte costs
// every segment consumed while mis-framed. A length sanity cap
// (set_max_payload) bounds the same failure when the mis-framed "length"
// field is garbage: a ghost header claiming a 16-bit payload would
// otherwise absorb kilobytes of good segments before the CRC exposes it.
#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <vector>

#include "src/wire/frame.hpp"

namespace tb::wire {

struct RelaySegment {
  std::uint8_t src = 0;
  std::uint8_t dst = 0;
  std::vector<std::uint8_t> payload;

  bool broadcast() const { return dst == kBroadcastNodeId; }
  bool operator==(const RelaySegment&) const = default;
};

inline constexpr std::uint8_t kSegmentMagic = 0xA5;
inline constexpr std::size_t kSegmentHeaderBytes = 5;  // magic..len_hi
inline constexpr std::size_t kSegmentTrailerBytes = 1; // crc8
inline constexpr std::size_t kMaxSegmentPayload = 0xFFFF;

/// Wire size of a segment carrying `payload_size` bytes.
constexpr std::size_t segment_wire_size(std::size_t payload_size) {
  return kSegmentHeaderBytes + payload_size + kSegmentTrailerBytes;
}

/// Serializes one segment.
std::vector<std::uint8_t> encode_segment(const RelaySegment& segment);

/// Appends one encoded segment whose payload is `head` followed by `body`.
/// The split spares callers that prepend a small header to a larger chunk
/// (the tuplespace transport's fragmentation path) from assembling a
/// temporary payload vector; bytes are identical to encode_segment() on the
/// concatenation.
void encode_segment_into(std::uint8_t src, std::uint8_t dst,
                         std::span<const std::uint8_t> head,
                         std::span<const std::uint8_t> body,
                         std::vector<std::uint8_t>& out);

/// Incremental decoder: feed mailbox bytes, poll complete segments.
class SegmentParser {
 public:
  /// Consumes bytes; completed segments become available via next().
  void feed(std::span<const std::uint8_t> bytes);
  void feed_byte(std::uint8_t byte);

  /// Pops the next fully parsed segment, if any.
  std::optional<RelaySegment> next();

  /// Rejects in-flight frames whose header claims more than `cap` payload
  /// bytes and re-scans them immediately.
  /// Streams whose producers are known to emit small segments should set a
  /// tight cap; the default accepts anything encodable.
  void set_max_payload(std::size_t cap) { max_payload_ = cap; }

  std::uint64_t crc_failures() const { return crc_failures_; }
  std::uint64_t resync_bytes() const { return resync_bytes_; }

 private:
  enum class State { kMagic, kHeader, kPayload, kCrc };

  /// Advances the state machine by one byte; on a failed frame, appends the
  /// frame's bytes (minus its false magic) to `salvage` for re-scanning.
  void step(std::uint8_t byte, std::vector<std::uint8_t>& salvage);

  State state_ = State::kMagic;
  std::size_t max_payload_ = kMaxSegmentPayload;
  std::vector<std::uint8_t> raw_;  ///< bytes of the in-progress frame
  std::vector<std::uint8_t> header_;
  std::vector<std::uint8_t> payload_;
  std::size_t expected_payload_ = 0;
  std::vector<RelaySegment> ready_;
  std::uint64_t crc_failures_ = 0;
  std::uint64_t resync_bytes_ = 0;
};

}  // namespace tb::wire
