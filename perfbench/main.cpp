// STTSV benchmark: one process, one workload, one seed.
//
//   perfbench --workload <panel-b16|serve-light|reliable-p20> --seed <n>
//             --seconds <s> --trace <0|1>
//
// Prints a run header and context lines, then as its last stdout line one
// JSON object {"correct", "attempted", "failed", "metrics"}: end-to-end
// metrics with --trace 0, per-layer metrics with --trace 1. Exits nonzero
// when any check failed, and with code 2 (printing no result) on bad
// arguments.

#include <sched.h>
#include <sys/resource.h>
#include <time.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <iostream>
#include <string>
#include <thread>

#include "perfbench.hpp"
#include "simt/parallel_for.hpp"
#include "simt/simd.hpp"

namespace perfbench {

std::uint64_t now_ns() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

std::uint64_t cpu_ns() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<std::uint64_t>(ts.tv_sec) * 1'000'000'000ULL +
         static_cast<std::uint64_t>(ts.tv_nsec);
}

double quantile(std::vector<double> samples, double q) {
  if (samples.empty()) return 0.0;
  std::sort(samples.begin(), samples.end());
  const double pos = q * static_cast<double>(samples.size() - 1);
  const auto lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, samples.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return samples[lo] + frac * (samples[hi] - samples[lo]);
}

double median(std::vector<double> samples) {
  return quantile(std::move(samples), 0.5);
}

double mean(const std::vector<double>& samples) {
  if (samples.empty()) return 0.0;
  double sum = 0.0;
  for (const double s : samples) sum += s;
  return sum / static_cast<double>(samples.size());
}

double peak_rss_mib() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

void note(const std::string& line) { std::cout << "# " << line << "\n"; }

void Result::fail(const std::string& what) {
  constexpr std::uint64_t kShown = 8;
  static std::uint64_t shown = 0;
  correct = false;
  if (shown++ < kShown) std::cerr << "perfbench: check failed: " << what << "\n";
}

}  // namespace perfbench

namespace {

using namespace perfbench;

[[noreturn]] void usage(const std::string& why) {
  std::cerr << "perfbench: " << why
            << "\nusage: perfbench --workload <panel-b16|serve-light|"
               "reliable-p20> --seed <n> --seconds <s> --trace <0|1>\n";
  std::exit(2);
}

std::size_t affinity_cpus() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof(set), &set) != 0) return 1;
  return static_cast<std::size_t>(CPU_COUNT(&set));
}

Options parse(int argc, char** argv) {
  Options opts;
  bool seen[4] = {false, false, false, false};
  for (int i = 1; i < argc; i += 2) {
    const std::string key = argv[i];
    if (i + 1 >= argc) usage("missing value for " + key);
    const std::string val = argv[i + 1];
    char* end = nullptr;
    if (key == "--workload") {
      opts.workload = val;
      seen[0] = true;
    } else if (key == "--seed") {
      opts.seed = std::strtoull(val.c_str(), &end, 10);
      if (val.empty() || *end != '\0') usage("bad --seed " + val);
      seen[1] = true;
    } else if (key == "--seconds") {
      opts.seconds = std::strtod(val.c_str(), &end);
      if (val.empty() || *end != '\0' || !(opts.seconds > 0) ||
          opts.seconds > 120) {
        usage("--seconds must be in (0, 120]");
      }
      seen[2] = true;
    } else if (key == "--trace") {
      if (val != "0" && val != "1") usage("--trace must be 0 or 1");
      opts.trace = val == "1";
      seen[3] = true;
    } else {
      usage("unknown option " + key);
    }
  }
  for (const bool s : seen) {
    if (!s) usage("--workload, --seed, --seconds and --trace are required");
  }
  return opts;
}

void print_header(const Options& opts) {
  const auto cache = [](int name) {
    const long v = sysconf(name);
    return std::to_string(v > 0 ? v : 0);
  };
  note("perfbench workload=" + opts.workload +
       " seed=" + std::to_string(opts.seed) +
       " seconds=" + std::to_string(opts.seconds) +
       " trace=" + (opts.trace ? "1" : "0"));
  note("kernel_isa=" +
       std::string(sttsv::simt::isa_name(sttsv::simt::preferred_isa())) +
       " cpu_features=\"" + sttsv::simt::cpu_features_string() + "\"" +
       " host_threads=" + std::to_string(sttsv::simt::host_concurrency()) +
       " nproc=" + std::to_string(affinity_cpus()) +
       " hardware_concurrency=" +
       std::to_string(std::thread::hardware_concurrency()));
  note("l1d_bytes=" + cache(_SC_LEVEL1_DCACHE_SIZE) +
       " l2_bytes=" + cache(_SC_LEVEL2_CACHE_SIZE) +
       " l3_bytes=" + cache(_SC_LEVEL3_CACHE_SIZE) +
       " build_type=" PERFBENCH_BUILD_TYPE);
}

void print_result(const Result& res) {
  std::cout << "{\"correct\": " << (res.correct ? "true" : "false")
            << ", \"attempted\": " << res.attempted
            << ", \"failed\": " << res.failed << ", \"metrics\": {";
  for (std::size_t i = 0; i < res.metrics.size(); ++i) {
    const Metric& m = res.metrics[i];
    char value[64];
    std::snprintf(value, sizeof(value), "%.17g",
                  std::isfinite(m.value) ? m.value : 0.0);
    std::cout << (i == 0 ? "" : ", ") << "\"" << m.name
              << "\": {\"value\": " << value << ", \"unit\": \"" << m.unit
              << "\"}";
  }
  std::cout << "}}" << std::endl;
}

}  // namespace

int main(int argc, char** argv) {
  Options opts = parse(argc, argv);
  Result (*run)(const Options&) = nullptr;
  if (opts.workload == "panel-b16") run = run_panel_b16;
  if (opts.workload == "serve-light") run = run_serve_light;
  if (opts.workload == "reliable-p20") run = run_reliable_p20;
  if (run == nullptr) usage("unknown workload " + opts.workload);

  opts.threads = affinity_cpus();
  sttsv::simt::set_host_concurrency(opts.threads);
  print_header(opts);

  Result res;
  try {
    res = run(opts);
  } catch (const std::exception& e) {
    std::cerr << "perfbench: " << opts.workload << " aborted: " << e.what()
              << "\n";
    return 1;
  }
  for (const Metric& m : res.metrics) {
    if (!std::isfinite(m.value)) res.fail("metric " + m.name + " not finite");
  }
  if (res.attempted == 0) res.fail("nothing attempted");
  print_result(res);
  return res.correct && res.failed == 0 ? 0 : 1;
}
