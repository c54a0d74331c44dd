#include "obs/metrics.hpp"

#include <algorithm>
#include <cmath>

#include "support/check.hpp"

namespace sttsv::obs {

namespace {

/// Lower edge of bucket index i >= 1: 2^((i - 1) / kSubBuckets + kMinExp).
double bucket_lower(std::size_t i) {
  const double e =
      static_cast<double>(i - 1) /
          static_cast<double>(HistogramStats::kSubBuckets) +
      HistogramStats::kMinExp;
  return std::exp2(e);
}

}  // namespace

std::size_t HistogramStats::bucket_index(double value) {
  if (!(value > 0.0)) return 0;  // zero, negatives, NaN -> underflow
  // Smallest i >= 1 with value <= 2^(i/8 + kMinExp), i.e. bucket i covers
  // (2^((i-1)/8 + kMinExp), 2^(i/8 + kMinExp)].
  const double scaled =
      (std::log2(value) - kMinExp) * static_cast<double>(kSubBuckets);
  if (scaled <= 0.0) return 0;  // value <= 2^kMinExp: underflow
  const std::size_t last = static_cast<std::size_t>(
      (kMaxExp - kMinExp) * static_cast<int>(kSubBuckets));
  const double i = std::ceil(scaled);
  if (i >= static_cast<double>(last)) return last;  // saturate
  return static_cast<std::size_t>(i);
}

void HistogramStats::observe(double value) {
  if (count == 0) {
    min = value;
    max = value;
  } else {
    min = std::min(min, value);
    max = std::max(max, value);
  }
  ++count;
  sum += value;
  const std::size_t idx = bucket_index(value);
  if (idx >= buckets.size()) buckets.resize(idx + 1, 0);
  ++buckets[idx];
}

double HistogramStats::percentile(double q) const {
  STTSV_REQUIRE(q >= 0.0 && q <= 1.0, "percentile q must be in [0, 1]");
  if (count == 0) return 0.0;
  // Nearest-rank: the k-th smallest observation, k in [1, count].
  const std::uint64_t k = std::max<std::uint64_t>(
      1, static_cast<std::uint64_t>(
             std::ceil(q * static_cast<double>(count))));
  std::uint64_t seen = 0;
  for (std::size_t i = 0; i < buckets.size(); ++i) {
    seen += buckets[i];
    if (seen >= k) {
      if (i == 0) return min;  // underflow bucket: all we know is <= 2^kMinExp
      // Geometric midpoint of the bucket, clamped to the observed range.
      const double lo = bucket_lower(i);
      const double hi = bucket_lower(i + 1);
      return std::clamp(std::sqrt(lo * hi), min, max);
    }
  }
  return max;  // unreachable when buckets are consistent with count
}

void MetricsRegistry::add_counter(const std::string& name,
                                  std::uint64_t delta) {
  std::lock_guard<std::mutex> lk(mu_);
  counters_[name] += delta;
}

void MetricsRegistry::set_counter(const std::string& name,
                                  std::uint64_t value) {
  std::lock_guard<std::mutex> lk(mu_);
  counters_[name] = value;
}

void MetricsRegistry::set_gauge(const std::string& name, double value) {
  std::lock_guard<std::mutex> lk(mu_);
  gauges_[name] = value;
}

void MetricsRegistry::observe(const std::string& name, double value) {
  std::lock_guard<std::mutex> lk(mu_);
  histograms_[name].observe(value);
}

std::uint64_t MetricsRegistry::counter(const std::string& name) const {
  std::lock_guard<std::mutex> lk(mu_);
  const auto it = counters_.find(name);
  return it == counters_.end() ? 0 : it->second;
}

double MetricsRegistry::gauge(const std::string& name) const {
  std::lock_guard<std::mutex> lk(mu_);
  const auto it = gauges_.find(name);
  return it == gauges_.end() ? 0.0 : it->second;
}

HistogramStats MetricsRegistry::histogram(const std::string& name) const {
  std::lock_guard<std::mutex> lk(mu_);
  const auto it = histograms_.find(name);
  return it == histograms_.end() ? HistogramStats{} : it->second;
}

double MetricsRegistry::percentile(const std::string& name, double q) const {
  std::lock_guard<std::mutex> lk(mu_);
  const auto it = histograms_.find(name);
  return it == histograms_.end() ? 0.0 : it->second.percentile(q);
}

std::vector<std::pair<std::string, std::uint64_t>> MetricsRegistry::counters()
    const {
  std::lock_guard<std::mutex> lk(mu_);
  return {counters_.begin(), counters_.end()};
}

std::vector<std::pair<std::string, double>> MetricsRegistry::gauges() const {
  std::lock_guard<std::mutex> lk(mu_);
  return {gauges_.begin(), gauges_.end()};
}

std::vector<std::pair<std::string, HistogramStats>>
MetricsRegistry::histograms() const {
  std::lock_guard<std::mutex> lk(mu_);
  return {histograms_.begin(), histograms_.end()};
}

bool MetricsRegistry::empty() const {
  std::lock_guard<std::mutex> lk(mu_);
  return counters_.empty() && gauges_.empty() && histograms_.empty();
}

void MetricsRegistry::clear() {
  std::lock_guard<std::mutex> lk(mu_);
  counters_.clear();
  gauges_.clear();
  histograms_.clear();
}

}  // namespace sttsv::obs
