#pragma once

/// \file charconv.hpp
/// \brief Exact, allocation-free number and field helpers over `<charconv>`
///        for the service's text records (journal, snapshot).
///
/// Doubles are written in their shortest round-trip form, so parsing the
/// text back yields the same bits; parsing also accepts any other decimal
/// spelling of a number (e.g. 17 significant digits, or fixed notation).

#include <charconv>
#include <string>
#include <string_view>
#include <system_error>

namespace easched {

/// Append `value` as text: integers in decimal, doubles in their shortest
/// round-trip form.
template <typename T>
void append_number(std::string& out, T value) {
  char buf[32];
  const auto result = std::to_chars(buf, buf + sizeof(buf), value);
  out.append(buf, result.ptr);
}

/// Parse all of `text` as a number. False when `text` is empty, is not
/// entirely a number, or is out of `T`'s range.
template <typename T>
bool parse_number(std::string_view text, T& value) {
  const char* end = text.data() + text.size();
  const auto [ptr, ec] = std::from_chars(text.data(), end, value);
  return !text.empty() && ec == std::errc() && ptr == end;
}

/// Remove and return the text of `rest` up to the next `delimiter` (all of
/// it when there is none), consuming the delimiter. With '\n' it takes one
/// line; the last line may lack its newline.
inline std::string_view take_field(std::string_view& rest, char delimiter) {
  const auto end = rest.find(delimiter);
  const std::string_view field = rest.substr(0, end);
  rest.remove_prefix(end == std::string_view::npos ? rest.size() : end + 1);
  return field;
}

}  // namespace easched
