// CRC implementations used across the protocol stack.
//
// TpWIRE frames protect CMD/TYPE + DATA with a 4-bit CRC over the generator
// polynomial x^4 + x + 1 (0b10011) — see Tables 1 and 2 of the paper. The
// relay segments that carry middleware messages over the bus end in a CRC-8
// (ATM HEC polynomial).
#pragma once

#include <cstdint>
#include <span>

namespace tb::util {

/// CRC-4 with generator x^4 + x + 1, MSB-first, zero initial remainder.
///
/// `bits` is the message as a big-endian integer occupying the low
/// `bit_count` bits, processed most-significant bit first — exactly the
/// transmission order of a TpWIRE frame body.
std::uint8_t crc4_itu(std::uint64_t bits, int bit_count);

/// CRC-8 with generator x^8 + x^2 + x + 1 (0x07), MSB-first, init 0.
std::uint8_t crc8(std::span<const std::uint8_t> data);

}  // namespace tb::util
