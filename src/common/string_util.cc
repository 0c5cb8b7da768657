#include "common/string_util.h"

#include <cctype>
#include <charconv>
#include <cstdarg>
#include <cstdio>

namespace grasp {

std::vector<std::string> Split(std::string_view text, char sep) {
  std::vector<std::string> pieces;
  std::size_t begin = 0;
  while (true) {
    std::size_t end = text.find(sep, begin);
    if (end == std::string_view::npos) {
      pieces.emplace_back(text.substr(begin));
      return pieces;
    }
    pieces.emplace_back(text.substr(begin, end - begin));
    begin = end + 1;
  }
}

std::optional<std::uint64_t> ParseUint(std::string_view text,
                                       std::uint64_t max) {
  // from_chars accepts no sign or whitespace for unsigned types and
  // reports overflow, so only the full-consumption and bound checks remain.
  std::uint64_t value = 0;
  const char* end = text.data() + text.size();
  const auto [ptr, ec] = std::from_chars(text.data(), end, value);
  if (ec != std::errc() || ptr != end || value > max) return std::nullopt;
  return value;
}

std::vector<std::string> SplitWhitespace(std::string_view text) {
  std::vector<std::string> pieces;
  std::size_t i = 0;
  while (i < text.size()) {
    while (i < text.size() &&
           std::isspace(static_cast<unsigned char>(text[i]))) {
      ++i;
    }
    std::size_t begin = i;
    while (i < text.size() &&
           !std::isspace(static_cast<unsigned char>(text[i]))) {
      ++i;
    }
    if (i > begin) pieces.emplace_back(text.substr(begin, i - begin));
  }
  return pieces;
}

std::string Join(const std::vector<std::string>& pieces,
                 std::string_view sep) {
  std::string out;
  for (std::size_t i = 0; i < pieces.size(); ++i) {
    if (i > 0) out += sep;
    out += pieces[i];
  }
  return out;
}

std::string ToLower(std::string_view text) {
  std::string out(text);
  for (char& c : out) {
    c = static_cast<char>(std::tolower(static_cast<unsigned char>(c)));
  }
  return out;
}

std::string ToUpper(std::string_view text) {
  std::string out(text);
  for (char& c : out) {
    c = static_cast<char>(std::toupper(static_cast<unsigned char>(c)));
  }
  return out;
}

std::string_view Trim(std::string_view text) {
  std::size_t begin = 0;
  while (begin < text.size() &&
         std::isspace(static_cast<unsigned char>(text[begin]))) {
    ++begin;
  }
  std::size_t end = text.size();
  while (end > begin &&
         std::isspace(static_cast<unsigned char>(text[end - 1]))) {
    --end;
  }
  return text.substr(begin, end - begin);
}

bool StartsWith(std::string_view text, std::string_view prefix) {
  return text.size() >= prefix.size() &&
         text.substr(0, prefix.size()) == prefix;
}

bool EndsWith(std::string_view text, std::string_view suffix) {
  return text.size() >= suffix.size() &&
         text.substr(text.size() - suffix.size()) == suffix;
}

std::string StrFormat(const char* fmt, ...) {
  va_list args;
  va_start(args, fmt);
  va_list args_copy;
  va_copy(args_copy, args);
  int needed = std::vsnprintf(nullptr, 0, fmt, args);
  va_end(args);
  std::string out;
  if (needed > 0) {
    out.resize(static_cast<std::size_t>(needed));
    std::vsnprintf(out.data(), out.size() + 1, fmt, args_copy);
  }
  va_end(args_copy);
  return out;
}

std::string HumanBytes(std::size_t bytes) {
  const char* units[] = {"B", "KB", "MB", "GB", "TB"};
  double value = static_cast<double>(bytes);
  int unit = 0;
  while (value >= 1024.0 && unit < 4) {
    value /= 1024.0;
    ++unit;
  }
  if (unit == 0) return StrFormat("%zu B", bytes);
  return StrFormat("%.1f %s", value, units[unit]);
}

}  // namespace grasp
