#ifndef GRASP_COMMON_STRING_UTIL_H_
#define GRASP_COMMON_STRING_UTIL_H_

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

namespace grasp {

/// Splits `text` on any occurrence of `sep`, keeping empty pieces.
std::vector<std::string> Split(std::string_view text, char sep);

/// Splits `text` on runs of ASCII whitespace, dropping empty pieces.
std::vector<std::string> SplitWhitespace(std::string_view text);

/// Joins `pieces` with `sep` between consecutive elements.
std::string Join(const std::vector<std::string>& pieces, std::string_view sep);

/// ASCII lower-casing (locale independent).
std::string ToLower(std::string_view text);

/// ASCII upper-casing (locale independent).
std::string ToUpper(std::string_view text);

/// Removes leading and trailing ASCII whitespace.
std::string_view Trim(std::string_view text);

bool StartsWith(std::string_view text, std::string_view prefix);
bool EndsWith(std::string_view text, std::string_view suffix);

/// Parses `text` as a decimal unsigned integer no greater than `max`.
/// Rejects empty input, any sign, leading or trailing bytes, and values
/// that overflow or exceed `max` — command-line flags must not wrap or
/// turn "-1" into SIZE_MAX.
std::optional<std::uint64_t> ParseUint(std::string_view text,
                                       std::uint64_t max);

/// printf-style formatting into a std::string.
std::string StrFormat(const char* fmt, ...) __attribute__((format(printf, 1, 2)));

/// Renders a byte count as a human-readable string ("1.2 MB").
std::string HumanBytes(std::size_t bytes);

}  // namespace grasp

#endif  // GRASP_COMMON_STRING_UTIL_H_
