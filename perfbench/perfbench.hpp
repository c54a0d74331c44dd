#pragma once
// Shared declarations of the STTSV benchmark: command-line options, the
// result every workload fills in, and small statistics helpers.

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

struct Options {
  std::string workload;
  std::uint64_t seed = 0;
  double seconds = 0.0;
  bool trace = false;
  /// Host threads behind Machine::run_ranks (pinned for the whole run).
  std::size_t threads = 1;
};

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

/// What one run reports: the correctness verdict, the attempted/failed
/// counts, and metrics by name and unit (end-to-end ones in an untraced
/// run, per-layer ones in a traced run).
struct Result {
  bool correct = true;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<Metric> metrics;

  void add(std::string name, double value, std::string unit) {
    metrics.push_back({std::move(name), value, std::move(unit)});
  }
  /// Records a failed check; the run still finishes and reports.
  void fail(const std::string& what);
};

Result run_panel_b16(const Options& opts);
Result run_serve_light(const Options& opts);
Result run_reliable_p20(const Options& opts);

/// Monotonic wall clock in nanoseconds.
std::uint64_t now_ns();

/// CPU time of the whole process (every thread) in nanoseconds. On a
/// paravirtualised guest it excludes time the host stole from the vCPUs,
/// and idle pool threads sleep, so it counts the work a batch did rather
/// than how busy the neighbours were.
std::uint64_t cpu_ns();

/// Linear-interpolated quantile q in [0, 1] (NaN-free; 0 for no samples).
double quantile(std::vector<double> samples, double q);
double median(std::vector<double> samples);
double mean(const std::vector<double>& samples);

/// Peak resident set size of this process so far, MiB.
double peak_rss_mib();

/// Human-readable context line on stdout (before the JSON result line).
void note(const std::string& line);

}  // namespace perfbench
