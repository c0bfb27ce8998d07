#pragma once

// Minimal command-line option parsing for benches and examples:
// --key=value and --flag forms, with typed accessors and defaults. Keys
// listed in `value_keys` also accept the space-separated "--key value"
// form (the value is the next argv token unless it looks like a flag).

#include <cstdlib>
#include <initializer_list>
#include <map>
#include <set>
#include <string>
#include <vector>

#include "support/error.hpp"

namespace repmpi::support {

class Options {
 public:
  Options(int argc, char** argv,
          std::initializer_list<const char*> value_keys = {}) {
    const std::set<std::string> takes_value(value_keys.begin(),
                                            value_keys.end());
    for (int i = 1; i < argc; ++i) {
      std::string arg = argv[i];
      if (arg.rfind("--", 0) != 0) {
        positional_.push_back(std::move(arg));
        continue;
      }
      arg = arg.substr(2);
      const auto eq = arg.find('=');
      if (eq == std::string::npos) {
        if (takes_value.count(arg) > 0 && i + 1 < argc &&
            std::string(argv[i + 1]).rfind("--", 0) != 0) {
          values_[arg] = argv[++i];
        } else {
          values_[arg] = "true";
        }
      } else {
        values_[arg.substr(0, eq)] = arg.substr(eq + 1);
      }
    }
  }

  bool has(const std::string& key) const { return values_.count(key) > 0; }

  /// Installs a default that user-provided values override — used by the
  /// bench driver's --smoke profile to scale every bench down without each
  /// bench knowing about profiles.
  void set_default(const std::string& key, const std::string& value) {
    values_.emplace(key, value);
  }

  std::string get(const std::string& key, const std::string& def = "") const {
    const auto it = values_.find(key);
    return it == values_.end() ? def : it->second;
  }

  long get_int(const std::string& key, long def) const {
    const auto it = values_.find(key);
    if (it == values_.end()) return def;
    return std::strtol(it->second.c_str(), nullptr, 10);
  }

  double get_double(const std::string& key, double def) const {
    const auto it = values_.find(key);
    if (it == values_.end()) return def;
    return std::strtod(it->second.c_str(), nullptr);
  }

  bool get_bool(const std::string& key, bool def) const {
    const auto it = values_.find(key);
    if (it == values_.end()) return def;
    return it->second == "true" || it->second == "1" || it->second == "yes";
  }

  const std::vector<std::string>& positional() const { return positional_; }

  /// Every key given on the command line (plus installed defaults), sorted.
  std::vector<std::string> keys() const {
    std::vector<std::string> out;
    out.reserve(values_.size());
    for (const auto& kv : values_) out.push_back(kv.first);
    return out;
  }

 private:
  std::map<std::string, std::string> values_;
  std::vector<std::string> positional_;
};

}  // namespace repmpi::support
