// Name tables for enums that appear in specs, traces and flags: one
// {value, name} array per enum serves its parser, its printer and the
// "(want a|b|c)" list in error and help messages.
#pragma once

#include <cstddef>
#include <optional>
#include <string>
#include <utility>

namespace sgprs::common {

template <typename E>
using EnumName = std::pair<E, const char*>;

/// The name `value` has in `table` ("?" when absent).
template <typename E, std::size_t N>
constexpr const char* name_of(const EnumName<E> (&table)[N], E value) {
  for (const auto& [e, name] : table) {
    if (e == value) return name;
  }
  return "?";
}

/// The value named `name` in `table`; std::nullopt when none is.
template <typename E, std::size_t N>
std::optional<E> parse_name(const EnumName<E> (&table)[N],
                            const std::string& name) {
  for (const auto& [e, n] : table) {
    if (name == n) return e;
  }
  return std::nullopt;
}

/// All names in `table`, pipe-separated.
template <typename E, std::size_t N>
std::string names_of(const EnumName<E> (&table)[N]) {
  std::string names;
  for (const auto& [e, name] : table) {
    if (!names.empty()) names += '|';
    names += name;
  }
  return names;
}

}  // namespace sgprs::common
