// The benchmark's three workloads, driven through the library's public API.
//
//   campaign   run_campaign over a seeded corpus sample (fit-heavy batch work)
//   serve      open-loop Poisson/Zipf traffic against one QueryRouter
//              (predict-heavy; every request carries fresh rows)
//   reproduce  fresh Study over a saved measurement cache, every experiment
//              method (cache parsing + eval/ aggregation)
//
// Each workload sets up (timed separately as setup_s), then runs identical
// iterations; main.cpp owns the timing loop and the metrics.  Digests and
// counters are taken after each iteration's clock has stopped.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <ostream>
#include <string>
#include <vector>

namespace perfbench {

struct RunConfig {
  std::string workload;
  std::uint64_t seed = 42;
  bool smoke = false;       // seconds-long sizes with the same checks
  std::size_t threads = 1;  // campaign pool size (host threads)
  std::string workdir;      // journals, caches and span files go here
};

/// Named numbers a workload reports beside the spans: scheduler, service
/// and router counters, the CPU ledger the reconciliation checks against.
using Facts = std::map<std::string, double>;

struct IterationResult {
  /// Must be equal across all iterations of a run, traced or not, and (at
  /// the default seed) equal to the recorded digest.
  std::string digest;
  std::size_t attempted = 0;
  std::size_t failed = 0;
  std::size_t ok = 0;  // units behind ops_per_s: ok cells / requests / experiments
  Facts facts;
};

class Workload {
 public:
  virtual ~Workload() = default;

  /// Build the inputs and the system state for the plain (`traced` false) or
  /// the decorated roster.  Called several times; the last call's state is
  /// used.  Facts of the set-up (e.g. the cache-writing campaign of
  /// `reproduce`) are returned.
  virtual Facts setup(bool traced) = 0;
  /// One timed iteration on the plain or the decorated state.
  virtual void run(bool traced) = 0;
  /// Digest and count the outputs of the iteration run() just did (untimed).
  virtual IterationResult collect(bool traced) = 0;
  /// Untimed spot checks of the last iteration against direct library
  /// calls; throws std::runtime_error on a mismatch.
  virtual void verify() = 0;
  /// Workload-specific lines of the human-readable report.
  virtual void report(std::ostream& out, const std::vector<IterationResult>& iterations,
                      double median_wall_s, double median_cpu_s) const = 0;
};

std::unique_ptr<Workload> make_workload(const RunConfig& config);

/// Every "<platform>.<classifier>" pair of the default roster (28), the
/// names of the per-pair ledger metrics.
std::vector<std::string> roster_pairs();

/// Names of the experiment methods timed by `reproduce`.
std::vector<std::string> experiment_names();

}  // namespace perfbench
