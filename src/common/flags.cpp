#include "common/flags.hpp"

#include <cstdlib>
#include <sstream>

#include "common/check.hpp"

namespace sgprs::common {

void FlagParser::define(const std::string& name, const std::string& help,
                        const std::string& default_value) {
  SGPRS_CHECK_MSG(!flags_.contains(name), "duplicate flag --" << name);
  flags_[name] = Flag{help, default_value, false, false, false, {}};
  order_.push_back(name);
}

void FlagParser::define_bool(const std::string& name,
                             const std::string& help) {
  SGPRS_CHECK_MSG(!flags_.contains(name), "duplicate flag --" << name);
  Flag f;
  f.help = help;
  f.value = "false";
  f.is_bool = true;
  flags_[name] = std::move(f);
  order_.push_back(name);
}

void FlagParser::define_multi(const std::string& name,
                              const std::string& help) {
  SGPRS_CHECK_MSG(!flags_.contains(name), "duplicate flag --" << name);
  Flag f;
  f.help = help;
  f.is_multi = true;
  flags_[name] = std::move(f);
  order_.push_back(name);
}

bool FlagParser::parse(int argc, const char* const* argv) {
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    if (arg.rfind("--", 0) != 0) {
      positional_.push_back(arg);
      continue;
    }
    arg = arg.substr(2);
    std::string name = arg;
    std::optional<std::string> value;
    if (const auto eq = arg.find('='); eq != std::string::npos) {
      name = arg.substr(0, eq);
      value = arg.substr(eq + 1);
    }
    auto it = flags_.find(name);
    if (it == flags_.end()) {
      error_ = "unknown flag --" + name;
      return false;
    }
    Flag& f = it->second;
    if (f.is_bool) {
      f.value = value.value_or("true");
    } else if (value) {
      f.value = *value;
    } else if (i + 1 < argc) {
      f.value = argv[++i];
    } else {
      error_ = "flag --" + name + " expects a value";
      return false;
    }
    if (f.is_multi) f.values.push_back(f.value);
    f.set = true;
  }
  return true;
}

bool FlagParser::has(const std::string& name) const {
  auto it = flags_.find(name);
  SGPRS_CHECK_MSG(it != flags_.end(), "undefined flag --" << name);
  return it->second.set;
}

std::string FlagParser::get(const std::string& name) const {
  auto it = flags_.find(name);
  SGPRS_CHECK_MSG(it != flags_.end(), "undefined flag --" << name);
  return it->second.value;
}

int FlagParser::get_int(const std::string& name) const {
  const std::string v = get(name);
  char* end = nullptr;
  const long parsed = std::strtol(v.c_str(), &end, 10);
  SGPRS_CHECK_MSG(end && *end == '\0' && !v.empty(),
                  "flag --" << name << " is not an integer: " << v);
  return static_cast<int>(parsed);
}

double FlagParser::get_double(const std::string& name) const {
  const std::string v = get(name);
  char* end = nullptr;
  const double parsed = std::strtod(v.c_str(), &end);
  SGPRS_CHECK_MSG(end && *end == '\0' && !v.empty(),
                  "flag --" << name << " is not a number: " << v);
  return parsed;
}

const std::vector<std::string>& FlagParser::get_all(
    const std::string& name) const {
  auto it = flags_.find(name);
  SGPRS_CHECK_MSG(it != flags_.end(), "undefined flag --" << name);
  SGPRS_CHECK_MSG(it->second.is_multi,
                  "flag --" << name << " is not repeatable");
  return it->second.values;
}

bool FlagParser::get_bool(const std::string& name) const {
  const std::string v = get(name);
  if (v == "true" || v == "1" || v == "yes") return true;
  if (v == "false" || v == "0" || v == "no") return false;
  SGPRS_CHECK_MSG(false, "flag --" << name << " is not a boolean: " << v);
  return false;
}

std::string FlagParser::help(const std::string& program) const {
  std::ostringstream os;
  os << "usage: " << program << " [flags]\n";
  for (const auto& name : order_) {
    const Flag& f = flags_.at(name);
    os << "  --" << name;
    if (!f.is_bool) os << "=<value>";
    os << "  " << f.help;
    if (f.is_multi) os << " (repeatable)";
    if (!f.is_bool && !f.value.empty()) os << " (default: " << f.value << ")";
    os << "\n";
  }
  return os.str();
}

}  // namespace sgprs::common
