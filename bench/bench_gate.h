// The regression gate of the JSON-mode perf harnesses (bench_micro_classifiers
// --json / --json-predict, bench_micro_model_selection, bench_ext_serving
// --json).  Each harness measures one metric per named row and compares it
// with the committed baseline's rows of the same metric name.
//
// Flags:
//   --out FILE               output path (each harness has its own default)
//   --baseline FILE          committed baseline (bench/baselines/*.json)
//   --check-regression F     exit 1 if any row's metric drops below
//                            baseline / F.  Also exits 1, without measuring,
//                            when F is not a positive number or --baseline is
//                            missing, and after measuring when the baseline
//                            lists a row this run did not measure or holds no
//                            positive value for one.
#pragma once

#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <optional>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

namespace mlaas {

struct JsonModeArgs {
  std::string out_path;
  std::string baseline_path;
  double check_factor = 0.0;  // 0: no regression check
};

/// Parses the gate flags out of `args`; returns nullopt (after printing why)
/// when --check-regression is not a positive number or has no --baseline.
inline std::optional<JsonModeArgs> parse_json_mode_args(const std::vector<std::string>& args,
                                                        std::string default_out) {
  JsonModeArgs parsed{std::move(default_out), "", 0.0};
  std::optional<std::string> factor;
  for (std::size_t i = 0; i < args.size(); ++i) {
    if (args[i] == "--out" && i + 1 < args.size()) parsed.out_path = args[++i];
    else if (args[i] == "--baseline" && i + 1 < args.size()) parsed.baseline_path = args[++i];
    else if (args[i] == "--check-regression") factor = i + 1 < args.size() ? args[++i] : "";
  }
  if (!factor) return parsed;
  char* end = nullptr;
  parsed.check_factor = std::strtod(factor->c_str(), &end);
  if (factor->empty() || *end != '\0' || !std::isfinite(parsed.check_factor) ||
      parsed.check_factor <= 0.0) {
    std::cerr << "--check-regression needs a positive number, got '" << *factor << "'\n";
    return std::nullopt;
  }
  if (parsed.baseline_path.empty()) {
    std::cerr << "--check-regression needs --baseline FILE\n";
    return std::nullopt;
  }
  return parsed;
}

/// Every (name, `metric`) row of the (small, known-shape) baseline JSON,
/// read without a JSON library.  A row whose metric is missing or does not
/// parse gets 0.
inline std::vector<std::pair<std::string, double>> baseline_rows(const std::string& json,
                                                                 const std::string& metric) {
  std::vector<std::pair<std::string, double>> rows;
  const std::string anchor = "\"name\": \"";
  const std::string key = "\"" + metric + "\":";
  for (std::size_t at = json.find(anchor); at != std::string::npos;
       at = json.find(anchor, at)) {
    at += anchor.size();
    const std::size_t close = json.find('"', at);
    if (close == std::string::npos) break;
    std::string name = json.substr(at, close - at);
    const std::size_t row_end = std::min(json.find('}', close), json.find(anchor, close));
    const std::size_t value = json.find(key, close);
    const double expected =
        value < row_end ? std::strtod(json.c_str() + value + key.size(), nullptr) : 0.0;
    rows.emplace_back(std::move(name), expected);
    at = close;
  }
  return rows;
}

/// Writes `json` to args.out_path, then runs the regression gate on the
/// (name, `metric`) rows this run measured when --check-regression was
/// given.  Returns the process exit code: 1 when the baseline cannot be read
/// or lists no row, when a baseline row was not measured by this run or has
/// no positive value, or when a measured value falls below baseline / factor.
inline int finish_json_mode(const JsonModeArgs& args, const std::string& json,
                            const std::string& metric,
                            const std::vector<std::pair<std::string, double>>& measured) {
  std::ofstream out(args.out_path);
  out << json;
  out.close();
  std::cout << "wrote " << args.out_path << "\n";
  if (args.check_factor <= 0.0) return 0;

  std::ifstream in(args.baseline_path);
  if (!in.good()) {
    std::cerr << "baseline missing: " << args.baseline_path << "\n";
    return 1;
  }
  std::stringstream buf;
  buf << in.rdbuf();
  const auto baseline = baseline_rows(buf.str(), metric);
  if (baseline.empty()) {
    std::cerr << "baseline lists no rows: " << args.baseline_path << "\n";
    return 1;
  }
  int failures = 0;
  for (const auto& [name, expected] : baseline) {
    const auto row = std::find_if(measured.begin(), measured.end(),
                                  [&](const auto& r) { return r.first == name; });
    if (row == measured.end()) {
      std::cerr << "UNCHECKED " << name << ": in the baseline but not measured\n";
      ++failures;
      continue;
    }
    if (!(expected > 0.0)) {
      std::cerr << "UNCHECKED " << name << ": baseline " << metric
                << " is not a positive number\n";
      ++failures;
      continue;
    }
    const double floor = expected / args.check_factor;
    if (row->second < floor) {
      std::cerr << "REGRESSION " << name << ": " << metric << " " << row->second
                << " below floor " << floor << " (baseline " << expected << " / factor "
                << args.check_factor << ")\n";
      ++failures;
    }
  }
  if (failures > 0) return 1;
  std::cout << "regression check passed (factor " << args.check_factor << ")\n";
  return 0;
}

}  // namespace mlaas
