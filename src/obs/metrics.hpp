#pragma once
// Named metrics registry (DESIGN.md §11): counters, gauges and scalar
// histograms that the instrumented subsystems publish into — the
// CommLedger's channels (CommLedger::to_metrics), ReliableExchange and
// FaultInjector protocol stats, serve::Frontend per-tenant counters.
// Benches snapshot a registry into their JSON artifacts via
// obs::write_metrics_json, so every run's breakdown is a queryable
// artifact instead of hand-rolled fields.
//
// Names are flat dotted paths ("ledger.goodput.max_words_sent",
// "rex.retransmitted_frames", "serve.batches_run"); storage is ordered by
// name so exports are deterministic. Recording takes a mutex — metrics
// publication happens at run boundaries, never inside kernels, so the
// lock is not on any hot path.

#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

namespace sttsv::obs {

/// Scalar histogram: count/sum/min/max summary plus log-spaced buckets
/// (8 sub-buckets per octave) dense enough for percentile extraction with
/// bounded relative error (one sub-bucket ≈ 9%). Serving-path latency
/// reporting (bench_serve, per-tenant queue-wait/service-time) reads
/// p50/p90/p99 straight from a registry snapshot.
struct HistogramStats {
  /// Sub-buckets per power of two; bucket bounds are 2^(e/8).
  static constexpr std::size_t kSubBuckets = 8;
  /// Smallest finite bucket edge exponent: values <= 2^kMinExp (including
  /// zero and negatives) land in the underflow bucket 0.
  static constexpr int kMinExp = -32;
  /// Largest bucket edge exponent: values >= 2^kMaxExp saturate into the
  /// last bucket. Covers nanoseconds through multi-hour seconds.
  static constexpr int kMaxExp = 40;

  std::uint64_t count = 0;
  double sum = 0.0;
  double min = 0.0;
  double max = 0.0;
  /// buckets[0] is underflow (value <= 2^kMinExp); buckets[i] for i >= 1
  /// counts values in (2^((i-1)/8 + kMinExp), 2^(i/8 + kMinExp)], saturating
  /// at i = (kMaxExp - kMinExp) * 8. Sized lazily up to the highest bucket
  /// touched.
  std::vector<std::uint64_t> buckets;

  [[nodiscard]] double mean() const {
    return count == 0 ? 0.0 : sum / static_cast<double>(count);
  }

  /// Bucket index for one observation (0 = underflow).
  [[nodiscard]] static std::size_t bucket_index(double value);
  /// Folds one observation into count/sum/min/max and its bucket.
  void observe(double value);
  /// Nearest-rank percentile estimate for q in [0, 1]: the geometric
  /// midpoint of the bucket holding the rank-q observation, clamped to
  /// the exact [min, max] envelope. 0 when the histogram is empty.
  [[nodiscard]] double percentile(double q) const;
};

class MetricsRegistry {
 public:
  MetricsRegistry() = default;
  MetricsRegistry(const MetricsRegistry&) = delete;
  MetricsRegistry& operator=(const MetricsRegistry&) = delete;

  /// Adds `delta` to the named counter (created at 0).
  void add_counter(const std::string& name, std::uint64_t delta = 1);
  /// Sets the named counter to an absolute value (for publishing totals
  /// that the producer already accumulated, e.g. ledger word counts).
  void set_counter(const std::string& name, std::uint64_t value);
  void set_gauge(const std::string& name, double value);
  /// Folds one observation into the named histogram.
  void observe(const std::string& name, double value);

  [[nodiscard]] std::uint64_t counter(const std::string& name) const;
  [[nodiscard]] double gauge(const std::string& name) const;
  [[nodiscard]] HistogramStats histogram(const std::string& name) const;
  /// Percentile estimate over the named histogram (0 when absent).
  [[nodiscard]] double percentile(const std::string& name, double q) const;

  [[nodiscard]] std::vector<std::pair<std::string, std::uint64_t>> counters()
      const;
  [[nodiscard]] std::vector<std::pair<std::string, double>> gauges() const;
  [[nodiscard]] std::vector<std::pair<std::string, HistogramStats>>
  histograms() const;

  [[nodiscard]] bool empty() const;
  void clear();

 private:
  mutable std::mutex mu_;
  std::map<std::string, std::uint64_t> counters_;
  std::map<std::string, double> gauges_;
  std::map<std::string, HistogramStats> histograms_;
};

}  // namespace sttsv::obs
