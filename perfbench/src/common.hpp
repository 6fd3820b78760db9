// Shared pieces of the benchmark: run options, the result record every
// workload fills in, and small statistics and timing helpers.
#pragma once

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

// Command-line options shared by every workload.
struct RunOptions {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  bool tiny = false;          // self-test size
  std::string tamper;         // "", "receipt" or "tally" (self-test only)
  std::string work_dir;       // scratch space for WAL directories
  std::string node_binary;    // ddemos_node beside the benchmark binary
};

struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
};

// One workload run. `correct` is false as soon as any output check fails;
// the caller then exits non-zero without printing metrics. Every workload
// reports the same end-to-end and per-layer metrics (the result line);
// figures that only one workload has are printed as details beside them.
struct Result {
  bool correct = true;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<Metric> end_to_end;
  std::vector<Metric> per_layer;
  std::vector<Metric> details;
  std::vector<std::string> problems;

  void fail(std::string what) {
    correct = false;
    problems.push_back(std::move(what));
  }
  void e2e(std::string name, double value, std::string unit) {
    end_to_end.push_back({std::move(name), value, std::move(unit)});
  }
  void layer(std::string name, double value, std::string unit) {
    per_layer.push_back({std::move(name), value, std::move(unit)});
  }
  void detail(std::string name, double value, std::string unit) {
    details.push_back({std::move(name), value, std::move(unit)});
  }
};

// Nearest-rank quantile of an unsorted sample (q in [0, 1]).
template <typename T>
double quantile(std::vector<T> v, double q) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  std::size_t rank = static_cast<std::size_t>(q * static_cast<double>(v.size()));
  if (rank >= v.size()) rank = v.size() - 1;
  return static_cast<double>(v[rank]);
}

template <typename T>
double median(std::vector<T> v) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  std::size_t n = v.size();
  return n % 2 ? static_cast<double>(v[n / 2])
               : (static_cast<double>(v[n / 2 - 1]) +
                  static_cast<double>(v[n / 2])) / 2.0;
}

// A p99 is reported only when at least ten samples lie beyond it.
inline bool supports_p99(std::size_t samples) { return samples >= 1000; }

}  // namespace perfbench
