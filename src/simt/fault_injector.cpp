#include "simt/fault_injector.hpp"

#include <algorithm>
#include <bit>

#include "obs/metrics.hpp"
#include "simt/machine.hpp"
#include "support/check.hpp"

namespace sttsv::simt {

namespace {
bool valid_prob(double p) { return p >= 0.0 && p <= 1.0; }
}  // namespace

FaultInjector::FaultInjector(FaultConfig config)
    : config_(config), rng_(config.seed) {
  STTSV_REQUIRE(valid_prob(config_.drop) && valid_prob(config_.corrupt) &&
                    valid_prob(config_.duplicate) &&
                    valid_prob(config_.reorder) &&
                    valid_prob(config_.stall) && valid_prob(config_.crash),
                "fault probabilities must be in [0, 1]");
}

void FaultInjector::begin_exchange() {
  ++exchange_;
  std::fill(stall_fate_.begin(), stall_fate_.end(), Fate::kUnrolled);
  std::fill(crash_fate_.begin(), crash_fate_.end(), Fate::kUnrolled);
  for (const auto& [rank, at] : scheduled_crashes_) {
    if (at == exchange_) kill(rank);
  }
}

void FaultInjector::schedule_crash(std::size_t rank,
                                   std::uint64_t exchange_index) {
  STTSV_REQUIRE(exchange_index > exchange_,
                "crash must be scheduled for a future exchange");
  scheduled_crashes_[rank] = exchange_index;
}

bool FaultInjector::is_dead(std::size_t rank) const {
  return std::binary_search(dead_.begin(), dead_.end(), rank);
}

void FaultInjector::kill(std::size_t rank) {
  if (is_dead(rank)) return;
  dead_.insert(std::lower_bound(dead_.begin(), dead_.end(), rank), rank);
  log_.push_back({exchange_, FaultKind::kCrash, rank, rank, 0});
}

bool FaultInjector::stalled(std::size_t rank) {
  if (stall_fate_[rank] == Fate::kUnrolled) {
    stall_fate_[rank] =
        rng_.next_unit() < config_.stall ? Fate::kHit : Fate::kSpared;
  }
  return stall_fate_[rank] == Fate::kHit;
}

FaultInjector::Action FaultInjector::on_frame(std::size_t from,
                                              std::size_t to,
                                              PooledBuffer& data) {
  if (is_dead(from) || is_dead(to)) return Action::kDrop;
  if (from >= stall_fate_.size()) {
    stall_fate_.resize(from + 1, Fate::kUnrolled);
    crash_fate_.resize(from + 1, Fate::kUnrolled);
  }
  if (config_.crash > 0.0 && crash_fate_[from] == Fate::kUnrolled) {
    crash_fate_[from] =
        rng_.next_unit() < config_.crash ? Fate::kHit : Fate::kSpared;
    if (crash_fate_[from] == Fate::kHit) {
      kill(from);
      return Action::kDrop;
    }
  }
  if (config_.stall > 0.0 && stalled(from)) {
    log_.push_back(
        {exchange_, FaultKind::kStall, from, to, data.size()});
    return Action::kDrop;
  }
  if (config_.drop > 0.0 && rng_.next_unit() < config_.drop) {
    log_.push_back({exchange_, FaultKind::kDrop, from, to, data.size()});
    return Action::kDrop;
  }
  if (config_.corrupt > 0.0 && !data.empty() &&
      rng_.next_unit() < config_.corrupt) {
    const auto word = static_cast<std::size_t>(rng_.next_below(data.size()));
    const auto bit = static_cast<unsigned>(rng_.next_below(64));
    const std::uint64_t flipped =
        std::bit_cast<std::uint64_t>(data[word]) ^ (std::uint64_t{1} << bit);
    data[word] = std::bit_cast<double>(flipped);
    log_.push_back({exchange_, FaultKind::kCorrupt, from, to, word});
  }
  if (config_.duplicate > 0.0 && rng_.next_unit() < config_.duplicate) {
    log_.push_back(
        {exchange_, FaultKind::kDuplicate, from, to, data.size()});
    return Action::kDuplicate;
  }
  return Action::kDeliver;
}

void FaultInjector::maybe_reorder(std::size_t rank,
                                  std::vector<Delivery>& inbox) {
  if (inbox.size() < 2 || config_.reorder <= 0.0) return;
  if (rng_.next_unit() >= config_.reorder) return;
  rng_.shuffle(inbox);
  log_.push_back({exchange_, FaultKind::kReorder, rank, rank, inbox.size()});
}

void FaultInjector::publish_metrics(obs::MetricsRegistry& out,
                                    const std::string& prefix) const {
  std::uint64_t drops = 0;
  std::uint64_t corrupts = 0;
  std::uint64_t duplicates = 0;
  std::uint64_t reorders = 0;
  std::uint64_t stalls = 0;
  std::uint64_t crashes = 0;
  for (const FaultEvent& e : log_) {
    switch (e.kind) {
      case FaultKind::kDrop: ++drops; break;
      case FaultKind::kCorrupt: ++corrupts; break;
      case FaultKind::kDuplicate: ++duplicates; break;
      case FaultKind::kReorder: ++reorders; break;
      case FaultKind::kStall: ++stalls; break;
      case FaultKind::kCrash: ++crashes; break;
    }
  }
  out.set_counter(prefix + ".drop", drops);
  out.set_counter(prefix + ".corrupt", corrupts);
  out.set_counter(prefix + ".duplicate", duplicates);
  out.set_counter(prefix + ".reorder", reorders);
  out.set_counter(prefix + ".stall", stalls);
  out.set_counter(prefix + ".crash", crashes);
  out.set_counter(prefix + ".dead_ranks", dead_.size());
  out.set_counter(prefix + ".total", log_.size());
  out.set_counter(prefix + ".exchanges_seen", exchange_);
}

}  // namespace sttsv::simt
