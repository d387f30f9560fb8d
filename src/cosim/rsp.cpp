#include "src/cosim/rsp.hpp"

namespace tb::cosim {
namespace {

constexpr std::uint8_t kStart = '$';
constexpr std::uint8_t kEnd = '#';
constexpr std::uint8_t kEscape = '}';

bool needs_escape(std::uint8_t b) {
  return b == kStart || b == kEnd || b == kEscape;
}

int hex_digit(std::uint8_t c) {
  if (c >= '0' && c <= '9') return c - '0';
  if (c >= 'a' && c <= 'f') return c - 'a' + 10;
  if (c >= 'A' && c <= 'F') return c - 'A' + 10;
  return -1;
}

char hex_char(std::uint8_t v) { return "0123456789abcdef"[v & 0xF]; }

}  // namespace

std::vector<std::uint8_t> rsp_encode(std::span<const std::uint8_t> payload) {
  std::vector<std::uint8_t> out;
  out.reserve(payload.size() + 4);
  out.push_back(kStart);
  std::uint8_t checksum = 0;
  for (std::uint8_t b : payload) {
    if (needs_escape(b)) {
      out.push_back(kEscape);
      checksum += kEscape;
      const std::uint8_t escaped = b ^ 0x20;
      out.push_back(escaped);
      checksum += escaped;
    } else {
      out.push_back(b);
      checksum += b;
    }
  }
  out.push_back(kEnd);
  out.push_back(static_cast<std::uint8_t>(hex_char(checksum >> 4)));
  out.push_back(static_cast<std::uint8_t>(hex_char(checksum & 0xF)));
  return out;
}

std::size_t rsp_wire_size(std::span<const std::uint8_t> payload) {
  std::size_t escapes = 0;
  for (std::uint8_t b : payload) {
    if (needs_escape(b)) ++escapes;
  }
  // $ payload escapes # xx + peer ack
  return payload.size() + escapes + 4 + 1;
}

void RspParser::feed(std::span<const std::uint8_t> bytes) {
  for (std::uint8_t b : bytes) feed_byte(b);
}

void RspParser::feed_byte(std::uint8_t byte) {
  switch (state_) {
    case State::kIdle:
      if (byte == kStart) {
        payload_.clear();
        state_ = State::kPayload;
      } else if (byte != '+' && byte != '-') {
        ++junk_bytes_;  // acks between packets are expected, others are junk
      }
      return;

    case State::kPayload:
      if (byte == kEnd) {
        state_ = State::kChecksumHi;
      } else if (byte == kEscape) {
        state_ = State::kEscape;
      } else if (byte == kStart) {
        // Unexpected restart: drop the partial packet.
        junk_bytes_ += payload_.size() + 1;
        payload_.clear();
      } else {
        payload_.push_back(byte);
      }
      return;

    case State::kEscape:
      payload_.push_back(byte ^ 0x20);
      state_ = State::kPayload;
      return;

    case State::kChecksumHi:
      checksum_hi_ = byte;
      state_ = State::kChecksumLo;
      return;

    case State::kChecksumLo: {
      state_ = State::kIdle;
      const int hi = hex_digit(checksum_hi_);
      const int lo = hex_digit(byte);
      if (hi < 0 || lo < 0) {
        ++checksum_errors_;
        acks_.push_back('-');
        return;
      }
      const auto received = static_cast<std::uint8_t>((hi << 4) | lo);
      std::uint8_t computed = 0;
      for (std::uint8_t b : payload_) {
        // The checksum covers the *escaped* stream; recompute accordingly.
        if (needs_escape(b)) {
          computed += kEscape;
          computed += b ^ 0x20;
        } else {
          computed += b;
        }
      }
      if (computed == received) {
        ready_.push_back(payload_);
        acks_.push_back('+');
      } else {
        ++checksum_errors_;
        acks_.push_back('-');
      }
      return;
    }
  }
}

std::optional<std::vector<std::uint8_t>> RspParser::next() {
  if (ready_.empty()) return std::nullopt;
  std::vector<std::uint8_t> payload = std::move(ready_.front());
  ready_.erase(ready_.begin());
  return payload;
}

std::vector<std::uint8_t> RspParser::take_acks() {
  std::vector<std::uint8_t> acks = std::move(acks_);
  acks_.clear();
  return acks;
}

}  // namespace tb::cosim
