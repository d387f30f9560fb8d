#include "src/util/strings.hpp"

#include <cctype>
#include <cmath>
#include <cstdio>

namespace tb::util {

std::string_view trim(std::string_view s) {
  std::size_t begin = 0;
  while (begin < s.size() && std::isspace(static_cast<unsigned char>(s[begin]))) ++begin;
  std::size_t end = s.size();
  while (end > begin && std::isspace(static_cast<unsigned char>(s[end - 1]))) --end;
  return s.substr(begin, end - begin);
}

void xml_escape_into(std::string_view s, std::vector<std::uint8_t>& out) {
  std::size_t plain = 0;  // start of the pending run of ordinary characters
  const auto flush = [&](std::size_t end) {
    out.insert(out.end(), s.begin() + static_cast<std::ptrdiff_t>(plain),
               s.begin() + static_cast<std::ptrdiff_t>(end));
  };
  const auto entity = [&](std::string_view e) {
    out.insert(out.end(), e.begin(), e.end());
  };
  for (std::size_t i = 0; i < s.size(); ++i) {
    switch (s[i]) {
      case '&': flush(i); entity("&amp;"); plain = i + 1; break;
      case '<': flush(i); entity("&lt;"); plain = i + 1; break;
      case '>': flush(i); entity("&gt;"); plain = i + 1; break;
      case '"': flush(i); entity("&quot;"); plain = i + 1; break;
      case '\'': flush(i); entity("&apos;"); plain = i + 1; break;
      default: break;
    }
  }
  flush(s.size());
}

std::string xml_unescape(std::string_view s) {
  std::string out;
  out.reserve(s.size());
  std::size_t i = 0;
  while (i < s.size()) {
    if (s[i] != '&') {
      out.push_back(s[i++]);
      continue;
    }
    const std::size_t semi = s.find(';', i);
    if (semi == std::string_view::npos) {
      out.push_back(s[i++]);
      continue;
    }
    const std::string_view entity = s.substr(i, semi - i + 1);
    if (entity == "&amp;") out.push_back('&');
    else if (entity == "&lt;") out.push_back('<');
    else if (entity == "&gt;") out.push_back('>');
    else if (entity == "&quot;") out.push_back('"');
    else if (entity == "&apos;") out.push_back('\'');
    else { out.append(entity); }
    i = semi + 1;
  }
  return out;
}

std::string format_double(double v, int precision) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.*f", precision, v);
  return buf;
}

std::string format_seconds(double seconds) {
  const double mag = std::fabs(seconds);
  char buf[64];
  if (mag == 0.0) {
    return "0 s";
  } else if (mag < 1e-6) {
    std::snprintf(buf, sizeof buf, "%.2f ns", seconds * 1e9);
  } else if (mag < 1e-3) {
    std::snprintf(buf, sizeof buf, "%.2f us", seconds * 1e6);
  } else if (mag < 1.0) {
    std::snprintf(buf, sizeof buf, "%.2f ms", seconds * 1e3);
  } else {
    std::snprintf(buf, sizeof buf, "%.2f s", seconds);
  }
  return buf;
}

}  // namespace tb::util
