#include "util/cli.h"

#include <stdexcept>
#include <string>
#include <string_view>

namespace mlaas {

long long parse_int(const std::string& value, const std::string& what) {
  std::size_t used = 0;
  try {
    const long long parsed = std::stoll(value, &used);
    if (used == value.size()) return parsed;
  } catch (const std::exception&) {  // no digits, or out of range
  }
  throw std::invalid_argument(what + ": expected an integer, got '" + value + "'");
}

double parse_double(const std::string& value, const std::string& what) {
  std::size_t used = 0;
  try {
    const double parsed = std::stod(value, &used);
    if (used == value.size()) return parsed;
  } catch (const std::exception&) {  // no digits, or out of range
  }
  throw std::invalid_argument(what + ": expected a number, got '" + value + "'");
}

CliFlags::CliFlags(int argc, const char* const* argv) {
  for (int i = 1; i < argc; ++i) {
    std::string_view arg = argv[i];
    if (arg.rfind("--", 0) != 0) {
      throw std::invalid_argument("unexpected positional argument: " + std::string(arg));
    }
    arg.remove_prefix(2);
    if (auto eq = arg.find('='); eq != std::string_view::npos) {
      flags_[std::string(arg.substr(0, eq))] = std::string(arg.substr(eq + 1));
    } else if (i + 1 < argc && std::string_view(argv[i + 1]).rfind("--", 0) != 0) {
      flags_[std::string(arg)] = argv[++i];
    } else {
      flags_[std::string(arg)] = "true";  // bare boolean flag
    }
  }
}

std::optional<std::string> CliFlags::get(const std::string& name) const {
  read_.insert(name);
  auto it = flags_.find(name);
  if (it == flags_.end()) return std::nullopt;
  return it->second;
}

std::string CliFlags::get_or(const std::string& name, const std::string& def) const {
  return get(name).value_or(def);
}

long long CliFlags::int_or(const std::string& name, long long def) const {
  const auto v = get(name);
  return v ? parse_int(*v, "--" + name) : def;
}

double CliFlags::double_or(const std::string& name, double def) const {
  const auto v = get(name);
  return v ? parse_double(*v, "--" + name) : def;
}

bool CliFlags::bool_or(const std::string& name, bool def) const {
  const auto v = get(name);
  if (!v) return def;
  if (*v == "true" || *v == "1" || *v == "yes") return true;
  if (*v == "false" || *v == "0" || *v == "no") return false;
  throw std::invalid_argument("--" + name + ": expected true/false, got '" + *v + "'");
}

void CliFlags::reject_unread() const {
  for (const auto& [name, value] : flags_) {
    if (read_.count(name) == 0) throw std::invalid_argument("unknown flag --" + name);
  }
}

}  // namespace mlaas
