#include "core/baselines.hpp"

#include <algorithm>
#include <array>

#include "support/check.hpp"
#include "tensor/sym_tensor.hpp"

namespace sttsv::core {

namespace {

using simt::Delivery;
using simt::Envelope;

/// Contiguous balanced ranges: element e belongs to rank e*P/total.
struct Ranges {
  std::size_t total;
  std::size_t P;

  [[nodiscard]] std::size_t begin(std::size_t p) const {
    return p * total / P;
  }
  [[nodiscard]] std::size_t end(std::size_t p) const {
    return (p + 1) * total / P;
  }
  [[nodiscard]] std::size_t size(std::size_t p) const {
    return end(p) - begin(p);
  }
};

}  // namespace

ParallelRunResult baseline_1d_atomic(simt::Exchanger& exchanger,
                                     const tensor::SymTensor3& a,
                                     const std::vector<double>& x) {
  simt::Machine& machine = exchanger.machine();
  const std::size_t P = machine.num_ranks();
  const std::size_t n = a.dim();
  STTSV_REQUIRE(x.size() == n, "input vector length mismatch");
  const Ranges xr{n, P};
  const Ranges er{tensor::tetra_count(n), P};

  // Phase 1: allgather x by direct sends of owned slices.
  std::vector<std::vector<Envelope>> outboxes(P);
  for (std::size_t p = 0; p < P; ++p) {
    std::vector<double> slice(x.begin() + static_cast<long>(xr.begin(p)),
                              x.begin() + static_cast<long>(xr.end(p)));
    for (std::size_t peer = 0; peer < P; ++peer) {
      if (peer == p || slice.empty()) continue;
      outboxes[p].push_back(Envelope{peer, slice});
    }
  }
  exchanger.set_phase("allgather");
  (void)exchanger.exchange(std::move(outboxes),
                           simt::Transport::kPointToPoint);
  // Every rank now has the full x (we use the global copy; the exchange
  // above accounted the words an MPI allgather moves).

  // Phase 2: each rank processes its packed-entry range with the
  // Algorithm-4 updates, accumulating into a full-length local y.
  ParallelRunResult result;
  result.ternary_mults.assign(P, 0);
  std::vector<std::vector<double>> y_loc(P, std::vector<double>(n, 0.0));
  const double* data = a.data();
  // Per-rank compute is independent (reads the shared x, writes y_loc[p]):
  // run on host threads without touching the ledger.
  machine.run_ranks([&](std::size_t p) {
    auto& y = y_loc[p];
    std::uint64_t count = 0;
    for (std::size_t idx = er.begin(p); idx < er.end(p); ++idx) {
      std::size_t i = 0, j = 0, k = 0;
      tensor::tetra_unindex(idx, i, j, k);
      const double v = data[idx];
      if (i != j && j != k) {
        y[i] += 2.0 * v * x[j] * x[k];
        y[j] += 2.0 * v * x[i] * x[k];
        y[k] += 2.0 * v * x[i] * x[j];
        count += 3;
      } else if (i == j && j != k) {
        y[i] += 2.0 * v * x[j] * x[k];
        y[k] += v * x[i] * x[j];
        count += 2;
      } else if (i != j && j == k) {
        y[i] += v * x[j] * x[k];
        y[j] += 2.0 * v * x[i] * x[k];
        count += 2;
      } else {
        y[i] += v * x[j] * x[k];
        count += 1;
      }
    }
    result.ternary_mults[p] = count;
  });

  // Phase 3: reduce-scatter partial y onto the x ranges.
  std::vector<std::vector<Envelope>> y_out(P);
  for (std::size_t p = 0; p < P; ++p) {
    for (std::size_t peer = 0; peer < P; ++peer) {
      if (peer == p || xr.size(peer) == 0) continue;
      Envelope env;
      env.to = peer;
      env.data.assign(
          y_loc[p].begin() + static_cast<long>(xr.begin(peer)),
          y_loc[p].begin() + static_cast<long>(xr.end(peer)));
      y_out[p].push_back(std::move(env));
    }
  }
  exchanger.set_phase("reduce-scatter");
  auto y_in =
      exchanger.exchange(std::move(y_out), simt::Transport::kPointToPoint);

  result.y.assign(n, 0.0);
  for (std::size_t p = 0; p < P; ++p) {
    for (std::size_t g = xr.begin(p); g < xr.end(p); ++g) {
      result.y[g] += y_loc[p][g];
    }
    for (const Delivery& d : y_in[p]) {
      STTSV_CHECK(d.data.size() == xr.size(p), "reduce slice size mismatch");
      for (std::size_t off = 0; off < d.data.size(); ++off) {
        result.y[xr.begin(p) + off] += d.data[off];
      }
    }
  }
  machine.ledger().verify_conservation();
  return result;
}

ParallelRunResult baseline_cubic(simt::Exchanger& exchanger,
                                 const tensor::SymTensor3& a,
                                 const std::vector<double>& x) {
  simt::Machine& machine = exchanger.machine();
  const std::size_t P = machine.num_ranks();
  const std::size_t c = cube_side_for(P);
  STTSV_REQUIRE(c * c * c == P, "cubic baseline needs P == c³");
  const std::size_t n = a.dim();
  STTSV_REQUIRE(x.size() == n, "input vector length mismatch");
  const std::size_t b = (n + c - 1) / c;  // padded row-block length

  auto coords_of = [&](std::size_t p) {
    return std::array<std::size_t, 3>{p / (c * c), (p / c) % c, p % c};
  };

  // Row block t of x is required by ranks with v == t or w == t; distribute
  // its b elements evenly over that requirer set (sorted).
  std::vector<std::vector<std::size_t>> requirers(c);
  for (std::size_t t = 0; t < c; ++t) {
    for (std::size_t p = 0; p < P; ++p) {
      const auto [u, v, w] = coords_of(p);
      (void)u;
      if (v == t || w == t) requirers[t].push_back(p);
    }
  }
  auto share_of = [&](std::size_t t, std::size_t p) -> partition::Share {
    const auto& req = requirers[t];
    const auto it = std::lower_bound(req.begin(), req.end(), p);
    STTSV_CHECK(it != req.end() && *it == p, "rank does not require block");
    const std::size_t pos = static_cast<std::size_t>(it - req.begin());
    const std::size_t base = b / req.size();
    const std::size_t extra = b % req.size();
    return partition::Share{pos * base + std::min(pos, extra),
                            base + (pos < extra ? 1 : 0)};
  };

  std::vector<double> x_pad(b * c, 0.0);
  std::copy(x.begin(), x.end(), x_pad.begin());

  // Phase 1: within each requirer set, exchange shares so every rank
  // assembles the row blocks x[v] and x[w] it needs.
  std::vector<std::vector<Envelope>> outboxes(P);
  for (std::size_t t = 0; t < c; ++t) {
    for (const std::size_t p : requirers[t]) {
      const partition::Share s = share_of(t, p);
      if (s.length == 0) continue;
      std::vector<double> payload(
          x_pad.begin() + static_cast<long>(t * b + s.offset),
          x_pad.begin() + static_cast<long>(t * b + s.offset + s.length));
      for (const std::size_t peer : requirers[t]) {
        if (peer == p) continue;
        outboxes[p].push_back(Envelope{peer, payload});
      }
    }
  }
  exchanger.set_phase("allgather");
  (void)exchanger.exchange(std::move(outboxes),
                           simt::Transport::kPointToPoint);

  // Phase 2: dense cube kernels (no symmetry exploited). Each rank writes
  // only y_loc[p], so the cube sweep runs on host threads.
  ParallelRunResult result;
  result.ternary_mults.assign(P, 0);
  std::vector<std::vector<double>> y_loc(P, std::vector<double>(b, 0.0));
  machine.run_ranks([&](std::size_t p) {
    const auto [u, v, w] = coords_of(p);
    std::uint64_t count = 0;
    const std::size_t i_end = std::min((u + 1) * b, n);
    const std::size_t j_end = std::min((v + 1) * b, n);
    const std::size_t k_end = std::min((w + 1) * b, n);
    for (std::size_t gi = u * b; gi < i_end; ++gi) {
      double acc = 0.0;
      for (std::size_t gj = v * b; gj < j_end; ++gj) {
        for (std::size_t gk = w * b; gk < k_end; ++gk) {
          acc += a(gi, gj, gk) * x_pad[gj] * x_pad[gk];
          ++count;
        }
      }
      y_loc[p][gi - u * b] += acc;
    }
    result.ternary_mults[p] = count;
  });

  // Phase 3: reduce y row block u across the c² ranks of plane u; y block
  // u is owned in shares by that plane's ranks (balanced like x shares).
  std::vector<std::vector<std::size_t>> plane(c);
  for (std::size_t p = 0; p < P; ++p) plane[coords_of(p)[0]].push_back(p);
  auto y_share_of = [&](std::size_t u, std::size_t p) -> partition::Share {
    const auto& grp = plane[u];
    const auto it = std::lower_bound(grp.begin(), grp.end(), p);
    STTSV_CHECK(it != grp.end() && *it == p, "rank not in plane");
    const std::size_t pos = static_cast<std::size_t>(it - grp.begin());
    const std::size_t base = b / grp.size();
    const std::size_t extra = b % grp.size();
    return partition::Share{pos * base + std::min(pos, extra),
                            base + (pos < extra ? 1 : 0)};
  };

  std::vector<std::vector<Envelope>> y_out(P);
  for (std::size_t p = 0; p < P; ++p) {
    const std::size_t u = coords_of(p)[0];
    for (const std::size_t peer : plane[u]) {
      if (peer == p) continue;
      const partition::Share s = y_share_of(u, peer);
      if (s.length == 0) continue;
      Envelope env;
      env.to = peer;
      env.data.assign(
          y_loc[p].begin() + static_cast<long>(s.offset),
          y_loc[p].begin() + static_cast<long>(s.offset + s.length));
      y_out[p].push_back(std::move(env));
    }
  }
  exchanger.set_phase("reduce-scatter");
  auto y_in =
      exchanger.exchange(std::move(y_out), simt::Transport::kPointToPoint);

  std::vector<double> y_pad(b * c, 0.0);
  for (std::size_t p = 0; p < P; ++p) {
    const std::size_t u = coords_of(p)[0];
    const partition::Share own = y_share_of(u, p);
    for (std::size_t off = 0; off < own.length; ++off) {
      y_pad[u * b + own.offset + off] += y_loc[p][own.offset + off];
    }
    for (const Delivery& d : y_in[p]) {
      STTSV_CHECK(d.data.size() == own.length, "y reduce size mismatch");
      for (std::size_t off = 0; off < own.length; ++off) {
        y_pad[u * b + own.offset + off] += d.data[off];
      }
    }
  }
  machine.ledger().verify_conservation();
  result.y.assign(y_pad.begin(), y_pad.begin() + static_cast<long>(n));
  return result;
}

double baseline_1d_words(std::size_t n, std::size_t P) {
  const double nn = static_cast<double>(n);
  return 2.0 * nn * (1.0 - 1.0 / static_cast<double>(P));
}

double baseline_cubic_words(std::size_t n, std::size_t c) {
  // Two x row blocks gathered (2(b - share)) + one y block reduced
  // (b - share), shares ~ b/(2c²-c) and b/c² respectively.
  const double b = static_cast<double>(n) / static_cast<double>(c);
  const double cc = static_cast<double>(c);
  const double x_words = 2.0 * b * (1.0 - 1.0 / (2.0 * cc * cc - cc));
  const double y_words = b * (1.0 - 1.0 / (cc * cc));
  return x_words + y_words;
}

std::size_t cube_side_for(std::size_t P) {
  std::size_t c = 1;
  while ((c + 1) * (c + 1) * (c + 1) <= P) ++c;
  return c;
}

}  // namespace sttsv::core
