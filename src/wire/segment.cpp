#include "src/wire/segment.hpp"

#include "src/util/assert.hpp"
#include "src/util/crc.hpp"

namespace tb::wire {

void encode_segment_into(std::uint8_t src, std::uint8_t dst,
                         std::span<const std::uint8_t> head,
                         std::span<const std::uint8_t> body,
                         std::vector<std::uint8_t>& out) {
  const std::size_t payload_size = head.size() + body.size();
  TB_REQUIRE(payload_size <= kMaxSegmentPayload);
  TB_REQUIRE(src <= kMaxNodeId);
  TB_REQUIRE(dst <= kBroadcastNodeId);
  const std::size_t base = out.size();
  out.reserve(base + segment_wire_size(payload_size));
  out.push_back(kSegmentMagic);
  out.push_back(src);
  out.push_back(dst);
  out.push_back(static_cast<std::uint8_t>(payload_size & 0xFF));
  out.push_back(static_cast<std::uint8_t>(payload_size >> 8));
  out.insert(out.end(), head.begin(), head.end());
  out.insert(out.end(), body.begin(), body.end());
  // CRC over src..payload (everything after the magic).
  out.push_back(util::crc8({out.data() + base + 1, out.size() - base - 1}));
}

std::vector<std::uint8_t> encode_segment(const RelaySegment& segment) {
  std::vector<std::uint8_t> out;
  encode_segment_into(segment.src, segment.dst, segment.payload, {}, out);
  return out;
}

void SegmentParser::feed(std::span<const std::uint8_t> bytes) {
  for (std::uint8_t b : bytes) feed_byte(b);
}

void SegmentParser::feed_byte(std::uint8_t byte) {
  // A failed frame's bytes are re-scanned, not discarded: step() appends
  // them (minus the false magic, so progress is guaranteed) to `pending`
  // right after the position that exposed the failure, preserving stream
  // order. Iterative rather than recursive — a pathological run of magic
  // bytes would otherwise nest one re-scan per byte.
  std::vector<std::uint8_t> pending;
  step(byte, pending);  // the common case salvages nothing: no allocation
  for (std::size_t i = 0; i < pending.size(); ++i) {
    std::vector<std::uint8_t> salvage;
    step(pending[i], salvage);
    if (!salvage.empty()) {
      pending.insert(pending.begin() + static_cast<std::ptrdiff_t>(i) + 1,
                     salvage.begin(), salvage.end());
    }
  }
}

void SegmentParser::step(std::uint8_t byte,
                         std::vector<std::uint8_t>& salvage) {
  switch (state_) {
    case State::kMagic:
      if (byte == kSegmentMagic) {
        raw_.assign(1, byte);
        header_.clear();
        payload_.clear();
        state_ = State::kHeader;
      } else {
        ++resync_bytes_;
      }
      return;

    case State::kHeader:
      raw_.push_back(byte);
      header_.push_back(byte);
      if (header_.size() == kSegmentHeaderBytes - 1) {  // src,dst,len_lo,len_hi
        expected_payload_ = static_cast<std::size_t>(header_[2]) |
                            (static_cast<std::size_t>(header_[3]) << 8);
        if (expected_payload_ > max_payload_) {
          ++length_errors_;
          salvage.assign(raw_.begin() + 1, raw_.end());
          state_ = State::kMagic;
          return;
        }
        state_ = expected_payload_ > 0 ? State::kPayload : State::kCrc;
      }
      return;

    case State::kPayload:
      raw_.push_back(byte);
      payload_.push_back(byte);
      if (payload_.size() == expected_payload_) state_ = State::kCrc;
      return;

    case State::kCrc: {
      // raw_ holds magic, header, payload: the CRC covers all but the magic.
      const std::uint8_t crc = util::crc8({raw_.data() + 1, raw_.size() - 1});
      raw_.push_back(byte);
      if (crc == byte) {
        RelaySegment segment;
        segment.src = header_[0];
        segment.dst = header_[1];
        segment.payload = payload_;
        ready_.push_back(std::move(segment));
        ++parsed_;
        raw_.clear();
      } else {
        ++crc_failures_;
        salvage.assign(raw_.begin() + 1, raw_.end());
      }
      state_ = State::kMagic;
      return;
    }
  }
}

std::optional<RelaySegment> SegmentParser::next() {
  if (ready_.empty()) return std::nullopt;
  RelaySegment segment = std::move(ready_.front());
  ready_.erase(ready_.begin());
  return segment;
}

}  // namespace tb::wire
