#include "util/cli.h"

#include <cmath>
#include <cstdlib>
#include <stdexcept>
#include <string>
#include <string_view>

namespace mlaas {

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
  auto v = get(name);
  if (!v) return def;
  try {
    return std::stoll(*v);
  } catch (const std::exception&) {
    throw std::invalid_argument("--" + name + ": expected an integer, got '" + *v + "'");
  }
}

double CliFlags::double_or(const std::string& name, double def) const {
  auto v = get(name);
  if (!v) return def;
  try {
    return std::stod(*v);
  } catch (const std::exception&) {
    throw std::invalid_argument("--" + name + ": expected a number, got '" + *v + "'");
  }
}

bool CliFlags::bool_or(const std::string& name, bool def) const {
  auto v = get(name);
  if (!v) return def;
  return *v == "true" || *v == "1" || *v == "yes";
}

void CliFlags::reject_unread() const {
  for (const auto& [name, value] : flags_) {
    if (read_.count(name) == 0) throw std::invalid_argument("unknown flag --" + name);
  }
}

BenchOptions parse_bench_options(int argc, const char* const* argv) {
  CliFlags flags(argc, argv);
  BenchOptions opt;
  if (const char* env = std::getenv("MLAAS_SEED")) opt.seed = std::strtoull(env, nullptr, 10);
  if (const char* env = std::getenv("MLAAS_SCALE")) opt.scale = std::strtod(env, nullptr);
  if (const char* env = std::getenv("MLAAS_FAULT_RATE")) {
    opt.fault_rate = std::strtod(env, nullptr);
  }
  opt.seed = static_cast<std::uint64_t>(flags.int_or("seed", static_cast<long long>(opt.seed)));
  opt.scale = flags.double_or("scale", opt.scale);
  opt.threads = static_cast<int>(flags.int_or("threads", 0));
  if (opt.threads < 0) {
    // Catch this at parse time: the old behavior cast -1 to size_t and asked
    // the thread pool for ~2^64 workers.
    throw std::invalid_argument("--threads must be >= 0 (0 = hardware concurrency), got " +
                                std::to_string(opt.threads));
  }
  opt.schedule = flags.get_or("schedule", opt.schedule);
  if (opt.schedule != "static" && opt.schedule != "dynamic") {
    throw std::invalid_argument("--schedule must be 'static' or 'dynamic', got '" +
                                opt.schedule + "'");
  }
  opt.quick = flags.bool_or("quick", false);
  // Validate the shared campaign knobs at parse time, like --threads above:
  // each of these used to flow unchecked into the service layer, where a
  // nonsense value (negative retry budget, fault rate above 1) produced a
  // silently degenerate campaign instead of a usage error.
  if (!(opt.scale > 0.0) || !std::isfinite(opt.scale)) {
    throw std::invalid_argument("--scale must be a finite value > 0");
  }
  opt.fault_rate = flags.double_or("fault-rate", opt.fault_rate);
  if (!(opt.fault_rate >= 0.0 && opt.fault_rate <= 1.0)) {
    throw std::invalid_argument("--fault-rate must be in [0, 1]");
  }
  opt.quota_profile = flags.get_or("quota-profile", opt.quota_profile);
  opt.retry_budget = static_cast<int>(flags.int_or("retry-budget", opt.retry_budget));
  if (opt.retry_budget < 1) {
    throw std::invalid_argument("--retry-budget must be >= 1, got " +
                                std::to_string(opt.retry_budget));
  }
  opt.chaos_profile = flags.get_or("chaos-profile", opt.chaos_profile);
  opt.breakers = flags.bool_or("breakers", opt.breakers);
  opt.breaker_threshold =
      static_cast<int>(flags.int_or("breaker-threshold", opt.breaker_threshold));
  if (opt.breaker_threshold < 1) {
    throw std::invalid_argument("--breaker-threshold must be >= 1, got " +
                                std::to_string(opt.breaker_threshold));
  }
  opt.breaker_cooldown = flags.double_or("breaker-cooldown", opt.breaker_cooldown);
  if (!(opt.breaker_cooldown >= 0.0) || !std::isfinite(opt.breaker_cooldown)) {
    throw std::invalid_argument("--breaker-cooldown must be a finite value >= 0");
  }
  opt.breaker_probes = static_cast<int>(flags.int_or("breaker-probes", opt.breaker_probes));
  if (opt.breaker_probes < 0) {
    throw std::invalid_argument("--breaker-probes must be >= 0, got " +
                                std::to_string(opt.breaker_probes));
  }
  opt.jitter = flags.bool_or("jitter", opt.jitter);
  opt.resume = flags.bool_or("resume", opt.resume);
  if (flags.bool_or("fresh", false)) opt.resume = false;
  return opt;
}

}  // namespace mlaas
