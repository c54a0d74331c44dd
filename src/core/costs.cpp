#include "core/costs.hpp"

#include <cmath>

#include "support/check.hpp"

namespace sttsv::core {

double lower_bound_words(std::size_t n, std::size_t P) {
  STTSV_REQUIRE(n >= 1 && P >= 1, "n and P must be positive");
  const double nn = static_cast<double>(n);
  const double pp = static_cast<double>(P);
  const double volume = nn * (nn - 1.0) * (nn - 2.0) / pp;
  return 2.0 * std::cbrt(volume) - 2.0 * nn / pp;
}

double optimal_algorithm_words(std::size_t n, std::size_t q) {
  const double nn = static_cast<double>(n);
  const double qq = static_cast<double>(q);
  const double P = static_cast<double>(spherical_processor_count(q));
  return 2.0 * (nn * (qq + 1.0) / (qq * qq + 1.0) - nn / P);
}

double steiner_algorithm_words(std::size_t n, std::size_t m, std::size_t r) {
  STTSV_REQUIRE(r >= 3 && m >= r,
                "a Steiner (m, r, 3) system needs m >= r >= 3");
  const std::size_t lambda1 = (m - 1) * (m - 2) / ((r - 1) * (r - 2));
  const std::size_t b = (n + m - 1) / m;
  const std::size_t share = (b + lambda1 - 1) / lambda1;
  // Per row block: the share of x to each other requirer, the rest of
  // the block as partial y to its owners.
  return static_cast<double>(r * (share * (lambda1 - 1) + (b - share)));
}

double all_to_all_words(std::size_t n, std::size_t q) {
  const double nn = static_cast<double>(n);
  const double qq = static_cast<double>(q);
  const double P = static_cast<double>(spherical_processor_count(q));
  return 4.0 * nn / (qq + 1.0) * (1.0 - 1.0 / P);
}

std::size_t p2p_steps_per_vector(std::size_t q) {
  // q³/2 + 3q²/2 - 1 = (q²(q+1))/2 + q² - 1; integral for all q.
  return q * q * (q + 1) / 2 + q * q - 1;
}

std::uint64_t symmetric_ternary_mults(std::size_t n) {
  return static_cast<std::uint64_t>(n) * n * (n + 1) / 2;
}

std::uint64_t naive_ternary_mults(std::size_t n) {
  return static_cast<std::uint64_t>(n) * n * n;
}

std::uint64_t per_rank_ternary_bound(std::size_t q, std::size_t b) {
  const std::uint64_t off =
      static_cast<std::uint64_t>(q + 1) * q * (q - 1) / 6 * 3 * b * b * b;
  const std::uint64_t noncentral =
      static_cast<std::uint64_t>(q) *
      (3 * b * b * (b - 1) / 2 + 2 * b * b);
  const std::uint64_t central =
      3 * (static_cast<std::uint64_t>(b) * (b - 1) * (b - 2) / 6) +
      2 * static_cast<std::uint64_t>(b) * (b - 1) + b;
  return off + noncentral + central;
}

std::uint64_t per_rank_storage_bound(std::size_t q, std::size_t b) {
  const std::uint64_t off =
      static_cast<std::uint64_t>(q + 1) * q * (q - 1) / 6 * b * b * b;
  const std::uint64_t noncentral =
      static_cast<std::uint64_t>(q) * b * b * (b + 1) / 2;
  const std::uint64_t central =
      static_cast<std::uint64_t>(b) * (b + 1) * (b + 2) / 6;
  return off + noncentral + central;
}

double lower_bound_words_d(std::size_t n, std::size_t order,
                           std::size_t P) {
  STTSV_REQUIRE(n >= 1 && P >= 1 && order >= 2, "bad lower bound inputs");
  const double nn = static_cast<double>(n);
  double falling = 1.0;
  for (std::size_t t = 0; t < order; ++t) {
    falling *= nn - static_cast<double>(t);
  }
  if (falling <= 0.0) return 0.0;  // n < d: no strict tuples at all
  return 2.0 * std::pow(falling / static_cast<double>(P),
                        1.0 / static_cast<double>(order)) -
         2.0 * nn / static_cast<double>(P);
}

std::size_t spherical_processor_count(std::size_t q) {
  return q * (q * q + 1);
}

std::size_t spherical_row_blocks(std::size_t q) { return q * q + 1; }

double alpha_beta_time_s(const AlphaBeta& level, std::uint64_t sync_ops,
                         std::uint64_t words) {
  return level.alpha_s * static_cast<double>(sync_ops) +
         level.beta_s_per_word * static_cast<double>(words);
}

double hier_time_s(const HierCostModel& model, std::uint64_t intra_sync_ops,
                   std::uint64_t intra_words, std::uint64_t inter_sync_ops,
                   std::uint64_t inter_words) {
  return alpha_beta_time_s(model.intra, intra_sync_ops, intra_words) +
         alpha_beta_time_s(model.inter, inter_sync_ops, inter_words);
}

}  // namespace sttsv::core
