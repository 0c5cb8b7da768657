#ifndef GRASP_COMMON_FILTER_OP_H_
#define GRASP_COMMON_FILTER_OP_H_

#include <charconv>
#include <cstdlib>
#include <optional>
#include <string>
#include <string_view>

namespace grasp {

/// Comparison operator of a numeric filter condition — the "special query
/// operators such as filters" extension the paper sketches in Sec. IX.
enum class FilterOp {
  kLess,
  kLessEqual,
  kGreater,
  kGreaterEqual,
  kNotEqual,
};

/// SPARQL spelling of the operator.
constexpr std::string_view FilterOpSymbol(FilterOp op) {
  switch (op) {
    case FilterOp::kLess:
      return "<";
    case FilterOp::kLessEqual:
      return "<=";
    case FilterOp::kGreater:
      return ">";
    case FilterOp::kGreaterEqual:
      return ">=";
    case FilterOp::kNotEqual:
      return "!=";
  }
  return "?";
}

/// Applies the comparison.
constexpr bool EvalFilterOp(FilterOp op, double lhs, double rhs) {
  switch (op) {
    case FilterOp::kLess:
      return lhs < rhs;
    case FilterOp::kLessEqual:
      return lhs <= rhs;
    case FilterOp::kGreater:
      return lhs > rhs;
    case FilterOp::kGreaterEqual:
      return lhs >= rhs;
    case FilterOp::kNotEqual:
      return lhs != rhs;
  }
  return false;
}

/// Renders a filter value in the shortest fixed notation that reads back as
/// the same double ("2000", "19.5", "1234567", "0.1234567"), so distinct
/// values never render alike and a rendered SPARQL FILTER reparses (the
/// SPARQL number token has no exponent).
inline std::string RenderFilterValue(double value) {
  // The longest fixed rendering is a negative subnormal: "-0." + 323 zeros
  // + up to 17 significant digits.
  char buf[400];
  const auto result =
      std::to_chars(buf, buf + sizeof(buf), value, std::chars_format::fixed);
  return std::string(buf, result.ptr);
}

/// A parsed filter keyword such as ">2000" or "<=1995".
struct FilterSpec {
  FilterOp op;
  double value;
};

/// Recognizes operator-prefixed numeric keywords: `>2000`, `>=10`,
/// `<1995.5`, `<=0`, `!=3`. Whitespace between the operator and the number
/// is allowed. Returns nullopt for everything else (plain keywords).
inline std::optional<FilterSpec> ParseFilterKeyword(std::string_view keyword) {
  FilterOp op;
  std::size_t skip = 0;
  if (keyword.rfind(">=", 0) == 0) {
    op = FilterOp::kGreaterEqual;
    skip = 2;
  } else if (keyword.rfind("<=", 0) == 0) {
    op = FilterOp::kLessEqual;
    skip = 2;
  } else if (keyword.rfind("!=", 0) == 0) {
    op = FilterOp::kNotEqual;
    skip = 2;
  } else if (!keyword.empty() && keyword[0] == '>') {
    op = FilterOp::kGreater;
    skip = 1;
  } else if (!keyword.empty() && keyword[0] == '<') {
    op = FilterOp::kLess;
    skip = 1;
  } else {
    return std::nullopt;
  }
  const std::string rest(keyword.substr(skip));
  char* end = nullptr;
  const double value = std::strtod(rest.c_str(), &end);
  if (end == rest.c_str()) return std::nullopt;  // no digits at all
  while (*end != '\0') {
    if (*end != ' ' && *end != '\t') return std::nullopt;  // trailing junk
    ++end;
  }
  return FilterSpec{op, value};
}

/// Parses a literal as a double; nullopt when the text is not numeric.
inline std::optional<double> ParseNumericLiteral(std::string_view text) {
  const std::string copy(text);
  char* end = nullptr;
  const double value = std::strtod(copy.c_str(), &end);
  if (end == copy.c_str()) return std::nullopt;
  while (*end != '\0') {
    if (*end != ' ' && *end != '\t') return std::nullopt;
    ++end;
  }
  return value;
}

}  // namespace grasp

#endif  // GRASP_COMMON_FILTER_OP_H_
