#include "easched/common/cli.hpp"

#include <charconv>
#include <sstream>
#include <stdexcept>
#include <system_error>

#include "easched/common/contracts.hpp"

namespace easched {

CliParser::CliParser(std::string program, std::string summary)
    : program_(std::move(program)), summary_(std::move(summary)) {}

void CliParser::add_option(const std::string& name, const std::string& default_value,
                           const std::string& help) {
  EASCHED_EXPECTS(!name.empty());
  EASCHED_EXPECTS_MSG(options_.find(name) == options_.end(), "duplicate option: " + name);
  options_[name] = {default_value, help, false};
  option_order_.push_back(name);
}

void CliParser::add_switch(const std::string& name, const std::string& help) {
  EASCHED_EXPECTS(!name.empty());
  EASCHED_EXPECTS_MSG(options_.find(name) == options_.end(), "duplicate option: " + name);
  options_[name] = {"false", help, true};
  option_order_.push_back(name);
}

void CliParser::add_positional(const std::string& name, const std::string& help) {
  positionals_.push_back({name, help});
}

bool CliParser::parse(int argc, const char* const* argv) {
  values_.clear();
  positional_values_.clear();
  error_.clear();
  help_requested_ = false;
  for (const auto& [name, opt] : options_) values_[name] = opt.default_value;

  for (int k = 1; k < argc; ++k) {
    std::string arg = argv[k];
    if (arg == "--help" || arg == "-h") {
      help_requested_ = true;
      return true;
    }
    if (arg.rfind("--", 0) == 0) {
      std::string name = arg.substr(2);
      std::string value;
      bool has_value = false;
      const auto eq = name.find('=');
      if (eq != std::string::npos) {
        value = name.substr(eq + 1);
        name = name.substr(0, eq);
        has_value = true;
      }
      const auto it = options_.find(name);
      if (it == options_.end()) {
        error_ = "unknown option --" + name;
        return false;
      }
      if (it->second.is_switch) {
        if (has_value) {
          error_ = "switch --" + name + " takes no value";
          return false;
        }
        values_[name] = "true";
        continue;
      }
      if (!has_value) {
        if (k + 1 >= argc) {
          error_ = "option --" + name + " needs a value";
          return false;
        }
        value = argv[++k];
      }
      values_[name] = value;
      continue;
    }
    positional_values_.push_back(arg);
  }
  if (positional_values_.size() > positionals_.size()) {
    error_ = "too many positional arguments";
    return false;
  }
  return true;
}

std::string CliParser::get(const std::string& name) const {
  const auto it = values_.find(name);
  EASCHED_EXPECTS_MSG(it != values_.end(), "undeclared option: " + name);
  return it->second;
}

namespace {

/// `text` parsed whole as a `T`; throws naming `--name` otherwise.
template <typename T>
T parse_number(const std::string& name, const std::string& text, const char* kind) {
  T value{};
  const char* end = text.data() + text.size();
  const auto [stop, ec] = std::from_chars(text.data(), end, value);
  if (ec == std::errc::result_out_of_range) {
    throw std::invalid_argument("--" + name + ": '" + text + "' is out of range");
  }
  if (ec != std::errc() || stop != end) {
    throw std::invalid_argument("--" + name + ": '" + text + "' is not " + kind);
  }
  return value;
}

}  // namespace

double CliParser::get_double(const std::string& name) const {
  return parse_number<double>(name, get(name), "a number");
}

int CliParser::get_int(const std::string& name, int lo, int hi) const {
  const int value = parse_number<int>(name, get(name), "an integer");
  if (value < lo || value > hi) {
    throw std::invalid_argument("--" + name + ": " + std::to_string(value) + " is outside [" +
                                std::to_string(lo) + ", " + std::to_string(hi) + "]");
  }
  return value;
}

bool CliParser::get_switch(const std::string& name) const { return get(name) == "true"; }

std::optional<std::string> CliParser::positional(const std::string& name) const {
  for (std::size_t k = 0; k < positionals_.size(); ++k) {
    if (positionals_[k].first == name) {
      if (k < positional_values_.size()) return positional_values_[k];
      return std::nullopt;
    }
  }
  EASCHED_EXPECTS_MSG(false, "undeclared positional: " + name);
  return std::nullopt;  // unreachable
}

std::string CliParser::help() const {
  std::ostringstream os;
  os << program_ << " — " << summary_ << "\n\nusage: " << program_ << " [options]";
  for (const auto& [name, help] : positionals_) os << " [" << name << "]";
  os << "\n\noptions:\n";
  for (const std::string& name : option_order_) {
    const Option& opt = options_.at(name);
    os << "  --" << name;
    if (!opt.is_switch) os << " <value>   (default: " << opt.default_value << ")";
    os << "\n      " << opt.help << "\n";
  }
  for (const auto& [name, help] : positionals_) {
    os << "  " << name << ": " << help << "\n";
  }
  return os.str();
}

}  // namespace easched
