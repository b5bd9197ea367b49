// Shared setup for the study bench binaries: flag parsing and Study
// construction.
//
// Every study bench takes the campaign flags StudyOptions::from_flags reads,
// rejects any other flag, prints the flag list on --help, and shares the
// on-disk measurement cache, so the expensive measurement pass runs once
// for the whole bench suite.
#pragma once

#include <cstdlib>
#include <exception>
#include <iostream>

#include "core/study.h"
#include "util/cli.h"

namespace mlaas {

inline StudyOptions study_options_from_cli(int argc, const char* const* argv) {
  try {
    const CliFlags flags(argc, argv);
    if (flags.get("help")) {
      std::cout << "usage: " << argv[0] << " [flags]\n\nflags (defaults in parentheses):\n"
                << StudyOptions::flags_usage() << "  --help                  print this text\n";
      std::exit(0);
    }
    const StudyOptions opt = StudyOptions::from_flags(flags);
    flags.reject_unread();
    return opt;
  } catch (const std::exception& e) {
    std::cerr << argv[0] << ": " << e.what() << "\n";
    std::exit(1);
  }
}

inline void print_bench_header(const std::string& title, const StudyOptions& opt) {
  std::cout << "==== " << title << " ====\n"
            << "seed=" << opt.seed << " scale=" << opt.scale
            << (opt.quick ? " (quick mode)" : "");
  if (opt.fault_rate > 0.0 || opt.quota_profile != "default") {
    std::cout << " fault-rate=" << opt.fault_rate << " quota-profile=" << opt.quota_profile
              << " retry-budget=" << opt.retry_budget;
  }
  if (opt.chaos_profile != "none") std::cout << " chaos-profile=" << opt.chaos_profile;
  if (opt.schedule != Schedule::kDynamic) std::cout << " schedule=" << to_string(opt.schedule);
  if (opt.breaker.enabled) {
    std::cout << " breakers=on(" << opt.breaker.failure_threshold << "/"
              << opt.breaker.cooldown_seconds << "s/" << opt.breaker.max_probes << ")";
  }
  std::cout << "\n\n";
}

}  // namespace mlaas
