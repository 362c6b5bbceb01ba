#pragma once

/// \file cli.hpp
/// \brief A minimal declarative command-line option parser for the tools.
///
/// Supports `--key value`, `--key=value`, boolean switches (`--flag`),
/// positional arguments, defaults, and generated `--help` text. Unknown
/// options are errors (catches typos in experiment scripts), and so is a
/// numeric value that does not parse whole.

#include <limits>
#include <map>
#include <optional>
#include <string>
#include <vector>

namespace easched {

/// Declarative option set + parser.
class CliParser {
 public:
  /// `program` and `summary` appear in the help text.
  CliParser(std::string program, std::string summary);

  /// Declare a valued option with a default (shown in --help).
  void add_option(const std::string& name, const std::string& default_value,
                  const std::string& help);

  /// Declare a boolean switch (false unless present).
  void add_switch(const std::string& name, const std::string& help);

  /// Declare a named positional argument (optional; in declaration order).
  void add_positional(const std::string& name, const std::string& help);

  /// Parse. Returns false (after filling `error()`) on malformed input;
  /// `help_requested()` is set when `--help`/`-h` appears.
  bool parse(int argc, const char* const* argv);

  bool help_requested() const { return help_requested_; }
  const std::string& error() const { return error_; }

  /// Accessors (valid after a successful parse). The numeric ones parse
  /// the whole value and throw `std::invalid_argument` naming the option
  /// when it is not a number ("12x", "abc", "") or not in `[lo, hi]`.
  std::string get(const std::string& name) const;
  double get_double(const std::string& name) const;
  int get_int(const std::string& name, int lo = std::numeric_limits<int>::min(),
              int hi = std::numeric_limits<int>::max()) const;
  bool get_switch(const std::string& name) const;
  /// Positional by name; nullopt when the caller didn't supply it.
  std::optional<std::string> positional(const std::string& name) const;

  /// The generated help text.
  std::string help() const;

 private:
  struct Option {
    std::string default_value;
    std::string help;
    bool is_switch = false;
  };

  std::string program_;
  std::string summary_;
  std::map<std::string, Option> options_;
  std::vector<std::string> option_order_;
  std::vector<std::pair<std::string, std::string>> positionals_;  // (name, help)

  std::map<std::string, std::string> values_;
  std::vector<std::string> positional_values_;
  bool help_requested_ = false;
  std::string error_;
};

}  // namespace easched
