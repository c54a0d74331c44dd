#include "simt/collective.hpp"

#include <algorithm>
#include <utility>

#include "support/check.hpp"

namespace sttsv::simt {

std::vector<double> allreduce_sum(
    Exchanger& exchanger,
    const std::vector<std::vector<double>>& contributions) {
  Machine& machine = exchanger.machine();
  const std::size_t P = machine.num_ranks();
  STTSV_REQUIRE(contributions.size() == P,
                "one contribution per rank required");
  const std::size_t L = contributions.empty() ? 0 : contributions[0].size();
  for (const auto& c : contributions) {
    STTSV_REQUIRE(c.size() == L, "contribution lengths must match");
  }
  if (L == 0) return {};

  // Accumulate in place instead of deep-copying all P contributions:
  // `acc[p]` materializes only once rank p actually has to combine (a
  // pool lease) or replace (the delivered buffer) its value; until then
  // the rank's current value is its caller-owned contribution, which is
  // never written.
  std::vector<PooledBuffer> acc(P);
  exchanger.set_phase("allreduce");
  const auto view = [&](std::size_t p) -> const double* {
    return acc[p].empty() ? contributions[p].data() : acc[p].data();
  };

  // Binomial reduce toward rank 0: at step s, ranks with (p % 2s) == s
  // send their partial to p - s.
  for (std::size_t s = 1; s < P; s *= 2) {
    std::vector<std::vector<Envelope>> out(P);
    for (std::size_t p = 0; p < P; ++p) {
      if (p % (2 * s) == s) {
        PooledBuffer msg = machine.pool().acquire(p, L);
        msg.append(view(p), L);
        out[p].push_back(Envelope{p - s, std::move(msg)});
      }
    }
    auto in = exchanger.exchange(std::move(out), Transport::kPointToPoint);
    for (std::size_t p = 0; p < P; ++p) {
      for (const Delivery& d : in[p]) {
        if (acc[p].empty()) {
          acc[p] = machine.pool().acquire(p, L);
          acc[p].append(contributions[p].data(), L);
        }
        for (std::size_t i = 0; i < L; ++i) acc[p][i] += d.data[i];
      }
    }
  }

  // Binomial broadcast from rank 0; each receiver keeps the delivered
  // buffer as its value.
  std::size_t top = 1;
  while (top < P) top *= 2;
  for (std::size_t s = top / 2; s >= 1; s /= 2) {
    std::vector<std::vector<Envelope>> out(P);
    for (std::size_t p = 0; p < P; ++p) {
      if (p % (2 * s) == 0 && p + s < P) {
        PooledBuffer msg = machine.pool().acquire(p, L);
        msg.append(view(p), L);
        out[p].push_back(Envelope{p + s, std::move(msg)});
      }
    }
    auto in = exchanger.exchange(std::move(out), Transport::kPointToPoint);
    for (std::size_t p = 0; p < P; ++p) {
      for (Delivery& d : in[p]) acc[p] = std::move(d.data);
    }
    if (s == 1) break;
  }

  // All ranks now hold the same sum.
  for (std::size_t p = 1; p < P; ++p) {
    STTSV_DCHECK(std::equal(view(p), view(p) + L, view(0)),
                 "allreduce divergence");
  }
  return std::vector<double>(view(0), view(0) + L);
}

}  // namespace sttsv::simt
