// Tiny command-line flag parser shared by the CLI and the bench binaries.
//
// Supports "--name value", "--name=value" and bare boolean "--name"; a
// positional argument is an error.  Values parse strictly: a numeric getter
// rejects trailing characters ("2x"), and a boolean is one of true/1/yes or
// false/0/no; anything else throws std::invalid_argument naming the flag.
// CliFlags remembers which flags its getters were asked for, so a command
// that has read every flag it understands can call reject_unread() to turn
// a typo into an error naming the flag; mlaas_cli and the study benches do.
//
// The campaign knobs every front end shares, and their MLAAS_* environment
// defaults, are read in one place: StudyOptions::from_flags (core/study.h).
#pragma once

#include <map>
#include <optional>
#include <set>
#include <string>

namespace mlaas {

/// Whole-string numeric parses; `what` names the source of `value` (a flag
/// or an environment variable) in the std::invalid_argument they throw.
long long parse_int(const std::string& value, const std::string& what);
double parse_double(const std::string& value, const std::string& what);

class CliFlags {
 public:
  /// Parse argv; throws std::invalid_argument on malformed input.
  CliFlags(int argc, const char* const* argv);

  std::optional<std::string> get(const std::string& name) const;
  std::string get_or(const std::string& name, const std::string& def) const;
  long long int_or(const std::string& name, long long def) const;
  double double_or(const std::string& name, double def) const;
  bool bool_or(const std::string& name, bool def) const;

  /// Throws std::invalid_argument naming the first given flag that no getter
  /// above has been asked for.
  void reject_unread() const;

 private:
  std::map<std::string, std::string> flags_;
  mutable std::set<std::string> read_;  // names passed to the getters
};

}  // namespace mlaas
