// Hex encoding and decoding (bytes fields of the XML codec).
#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <string>
#include <string_view>
#include <vector>

namespace tb::util {

/// Lowercase hex string, no separators: {0xDE, 0xAD} -> "dead".
std::string to_hex(std::span<const std::uint8_t> data);

/// Parses a hex string (even length, [0-9a-fA-F]); nullopt on bad input.
std::optional<std::vector<std::uint8_t>> from_hex(std::string_view hex);

}  // namespace tb::util
