// Small string helpers shared by the XML codec and report printers.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

namespace tb::util {

/// Trims ASCII whitespace from both ends.
std::string_view trim(std::string_view s);

/// Appends `s` to `out` with &, <, >, ", ' escaped as XML character
/// entities, without intermediate strings — the XML writer's hot path. Runs
/// of ordinary characters append in bulk.
void xml_escape_into(std::string_view s, std::vector<std::uint8_t>& out);

/// Inverse of xml_escape_into; unknown entities are passed through verbatim.
std::string xml_unescape(std::string_view s);

/// Fixed-precision decimal rendering (printf "%.*f").
std::string format_double(double v, int precision);

/// Renders seconds with engineering units: "1.50 ms", "140 s", ...
std::string format_seconds(double seconds);

}  // namespace tb::util
