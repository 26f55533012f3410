#include "src/support/strings.hpp"

#include <cctype>
#include <charconv>
#include <cmath>
#include <cstdio>
#include <cstdlib>

namespace splice {

std::vector<std::string> split(std::string_view s, char delim) {
  std::vector<std::string> out;
  std::size_t start = 0;
  while (true) {
    std::size_t pos = s.find(delim, start);
    if (pos == std::string_view::npos) {
      out.emplace_back(s.substr(start));
      return out;
    }
    out.emplace_back(s.substr(start, pos - start));
    start = pos + 1;
  }
}

std::vector<std::string> split_ws(std::string_view s) {
  std::vector<std::string> out;
  std::size_t i = 0;
  while (i < s.size()) {
    while (i < s.size() && std::isspace(static_cast<unsigned char>(s[i]))) ++i;
    std::size_t start = i;
    while (i < s.size() && !std::isspace(static_cast<unsigned char>(s[i]))) ++i;
    if (i > start) out.emplace_back(s.substr(start, i - start));
  }
  return out;
}

std::string join(const std::vector<std::string>& parts, std::string_view sep) {
  std::string out;
  for (std::size_t i = 0; i < parts.size(); ++i) {
    if (i) out.append(sep);
    out.append(parts[i]);
  }
  return out;
}

std::string_view trim(std::string_view s) {
  std::size_t b = 0, e = s.size();
  while (b < e && std::isspace(static_cast<unsigned char>(s[b]))) ++b;
  while (e > b && std::isspace(static_cast<unsigned char>(s[e - 1]))) --e;
  return s.substr(b, e - b);
}

bool is_identifier(std::string_view s) {
  if (s.empty()) return false;
  auto lower_or_digit = [](char c) {
    return (c >= 'a' && c <= 'z') || (c >= '0' && c <= '9');
  };
  if (!lower_or_digit(s[0])) return false;
  for (char c : s.substr(1)) {
    if (!lower_or_digit(c) && c != '_' && c != '-') return false;
  }
  return true;
}

std::string replace_all(std::string s, std::string_view from, std::string_view to) {
  if (from.empty()) return s;
  std::size_t pos = 0;
  while ((pos = s.find(from, pos)) != std::string::npos) {
    s.replace(pos, from.size(), to);
    pos += to.size();
  }
  return s;
}

std::optional<std::uint64_t> parse_count(std::string_view s) {
  std::uint64_t n = 0;
  auto [end, ec] = std::from_chars(s.data(), s.data() + s.size(), n);
  if (s.empty() || ec != std::errc() || end != s.data() + s.size()) {
    return std::nullopt;
  }
  return n;
}

std::optional<double> parse_non_negative(std::string_view s) {
  // A leading digit or '.' rules out a sign, "inf" and "nan".
  if (s.empty() || !(std::isdigit(static_cast<unsigned char>(s[0])) ||
                     s[0] == '.')) {
    return std::nullopt;
  }
  double x = 0;
  auto [end, ec] = std::from_chars(s.data(), s.data() + s.size(), x);
  if (ec != std::errc() || end != s.data() + s.size() || !std::isfinite(x)) {
    return std::nullopt;
  }
  return x;
}

bool parse_switch(const char* value, bool fallback) {
  if (value == nullptr || *value == '\0') return fallback;
  std::string_view v(value);
  return v != "0" && v != "off" && v != "false";
}

namespace {

void warn_env(const char* var, const char* value, const std::string& expected) {
  std::fprintf(stderr,
               "splice: warning: ignoring malformed %s=\"%s\" (expected %s)\n",
               var, value, expected.c_str());
}

}  // namespace

std::string env_path(const char* var) {
  const char* value = std::getenv(var);
  if (value == nullptr) return {};
  if (trim(value).empty()) {
    warn_env(var, value, "a path");
    return {};
  }
  return value;
}

std::uint64_t env_count(const char* var, std::uint64_t fallback,
                        std::uint64_t max) {
  const char* value = std::getenv(var);
  if (value == nullptr) return fallback;
  std::optional<std::uint64_t> n = parse_count(value);
  if (n && *n <= max) return *n;
  warn_env(var, value, n ? "at most " + std::to_string(max) : "a number");
  return fallback;
}

double env_number(const char* var, double fallback) {
  const char* value = std::getenv(var);
  if (value == nullptr) return fallback;
  if (std::optional<double> x = parse_non_negative(value)) return *x;
  warn_env(var, value, "a number");
  return fallback;
}

bool env_switch(const char* var, bool fallback) {
  return parse_switch(std::getenv(var), fallback);
}

}  // namespace splice
