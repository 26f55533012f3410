// Small string helpers used across the library.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

namespace splice {

/// Split on a single-character delimiter; empty fields are preserved.
std::vector<std::string> split(std::string_view s, char delim);

/// Split on any whitespace run; no empty fields.
std::vector<std::string> split_ws(std::string_view s);

/// Join with a separator.
std::string join(const std::vector<std::string>& parts, std::string_view sep);

/// Strip ASCII whitespace from both ends.
std::string_view trim(std::string_view s);

/// True if `s` is a valid package/variant identifier:
/// [a-z0-9][a-z0-9_-]* (Spack package names are lowercase).
bool is_identifier(std::string_view s);

/// Replace every occurrence of `from` in `s` with `to`.
std::string replace_all(std::string s, std::string_view from, std::string_view to);

/// The strict number parsers behind every numeric flag and environment
/// value: the whole of `s` must be the number, with no sign, space, prefix
/// or suffix.  parse_count() takes decimal digits that fit in 64 bits;
/// parse_non_negative() takes a finite decimal such as "2", "0.5", ".5" or
/// "1e3" (no hex, inf or nan).  Malformed input gives nullopt.
std::optional<std::uint64_t> parse_count(std::string_view s);
std::optional<double> parse_non_negative(std::string_view s);

/// An on/off setting such as SPLICE_FLIGHT or SPLICE_PROFILE: "0", "off"
/// and "false" turn it off, any other value turns it on, and an unset
/// (nullptr) or empty value leaves `fallback`.
bool parse_switch(const char* value, bool fallback);

/// The readers of every SPLICE_* environment setting.  Each reads `var`
/// once.  Unset gives the fallback silently; a set value it cannot use
/// warns once on stderr, as
///   splice: warning: ignoring malformed VAR="value" (expected ...)
/// and gives the fallback, so no setting is silently dropped.
///   env_path    a file or directory path; blank (empty or all whitespace)
///               is unusable.  Gives "" when unset or unusable.
///   env_count   parse_count(), at most `max`.
///   env_number  parse_non_negative().
///   env_switch  parse_switch(); every value is usable.
std::string env_path(const char* var);
std::uint64_t env_count(const char* var, std::uint64_t fallback,
                        std::uint64_t max = UINT64_MAX);
double env_number(const char* var, double fallback);
bool env_switch(const char* var, bool fallback);

}  // namespace splice
