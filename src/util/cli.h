// Tiny command-line flag parser shared by the CLI and the bench/example
// binaries.
//
// Supports "--name value", "--name=value" and bare boolean "--name"; a
// positional argument is an error.  CliFlags remembers which flags its
// getters were asked for, so a command that has read every flag it
// understands can call reject_unread() to turn a typo into an error naming
// the flag; mlaas_cli does this for every subcommand.  parse_bench_options
// does not, since bench binaries read further flags of their own.  Also
// reads MLAAS_SCALE / MLAAS_SEED environment variables as defaults for the
// common knobs.
#pragma once

#include <cstdint>
#include <map>
#include <optional>
#include <set>
#include <string>

namespace mlaas {

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

/// Common bench configuration derived from flags + environment.
struct BenchOptions {
  std::uint64_t seed = 42;      // --seed / MLAAS_SEED
  double scale = 1.0;           // --scale / MLAAS_SCALE: grid & corpus scaling
  int threads = 0;              // --threads (0 = hardware; negative rejected)
  std::string schedule = "dynamic";  // --schedule: static|dynamic session dispatch
  bool quick = false;           // --quick: tiny corpus for smoke runs
  // Campaign transport envelope (service simulation):
  double fault_rate = 0.0;          // --fault-rate / MLAAS_FAULT_RATE
  std::string quota_profile = "default";  // --quota-profile
  int retry_budget = 6;             // --retry-budget: attempts per request
  // Resilience knobs (chaos schedules, circuit breakers, retry jitter):
  std::string chaos_profile = "none";  // --chaos-profile: none|outages|bursts|latency|storm
  bool breakers = false;            // --breakers: per-platform circuit breakers
  int breaker_threshold = 3;        // --breaker-threshold: failures before opening
  double breaker_cooldown = 300.0;  // --breaker-cooldown: seconds before half-open probe
  int breaker_probes = 2;           // --breaker-probes: half-open probes before latching
  bool jitter = false;              // --jitter: decorrelated backoff jitter
  bool resume = true;               // --resume / --fresh: journal resume on crash
};

BenchOptions parse_bench_options(int argc, const char* const* argv);

}  // namespace mlaas
