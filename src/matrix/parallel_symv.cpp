#include "matrix/parallel_symv.hpp"

#include <algorithm>
#include <cmath>
#include <map>

#include "support/check.hpp"

namespace sttsv::matrix {

namespace {

using simt::Delivery;
using simt::Envelope;

std::vector<std::size_t> common_blocks(const TrianglePartition& part,
                                       std::size_t p, std::size_t peer) {
  const auto& a = part.R(p);
  const auto& b = part.R(peer);
  std::vector<std::size_t> out;
  std::set_intersection(a.begin(), a.end(), b.begin(), b.end(),
                        std::back_inserter(out));
  // Two blocks of a (m, r, 2) system share at most one point.
  STTSV_CHECK(out.size() <= 1, "pair-system blocks share > 1 point");
  return out;
}

std::vector<std::size_t> peers_of(const TrianglePartition& part,
                                  std::size_t p) {
  std::vector<std::size_t> peers;
  for (const std::size_t i : part.R(p)) {
    for (const std::size_t other : part.Q(i)) {
      if (other != p) peers.push_back(other);
    }
  }
  std::sort(peers.begin(), peers.end());
  peers.erase(std::unique(peers.begin(), peers.end()), peers.end());
  return peers;
}

/// Applies one matrix block (bi, bj) to the local row-block buffers.
void apply_matrix_block(const SymMatrix& a, const MatBlockCoord& c,
                        std::size_t b, const double* xi, const double* xj,
                        double* yi, double* yj) {
  const std::size_t n = a.dim();
  const std::size_t i0 = c.i * b;
  const std::size_t j0 = c.j * b;
  const std::size_t i_end = std::min(i0 + b, n);
  const std::size_t j_end = std::min(j0 + b, n);
  if (i0 >= n) return;
  const double* data = a.data();
  const bool diag = (c.i == c.j);
  for (std::size_t gi = i0; gi < i_end; ++gi) {
    const std::size_t row = gi * (gi + 1) / 2;
    const double xiv = xi[gi - i0];
    double acc = 0.0;
    const std::size_t gj_end = diag ? std::min(gi + 1, j_end) : j_end;
    for (std::size_t gj = j0; gj < gj_end; ++gj) {
      const double v = data[row + gj];
      if (gi == gj) {
        acc += v * xj[gj - j0];
      } else {
        acc += v * xj[gj - j0];
        yj[gj - j0] += v * xiv;
      }
    }
    yi[gi - i0] += acc;
  }
}

}  // namespace

SymvRunResult parallel_symv(simt::Exchanger& exchanger,
                            const TrianglePartition& part,
                            const SymMatrix& a,
                            const std::vector<double>& x,
                            simt::Transport transport) {
  simt::Machine& machine = exchanger.machine();
  const std::size_t P = part.num_processors();
  const std::size_t b = part.block_length_b();
  const std::size_t n = part.logical_n();
  STTSV_REQUIRE(machine.num_ranks() == P, "machine rank count mismatch");
  STTSV_REQUIRE(a.dim() == n && x.size() == n, "dimension mismatch");

  std::vector<double> x_pad(part.padded_n(), 0.0);
  std::copy(x.begin(), x.end(), x_pad.begin());

  // Phase 1: gather x shares.
  std::vector<std::vector<Envelope>> outboxes(P);
  for (std::size_t p = 0; p < P; ++p) {
    for (const std::size_t peer : peers_of(part, p)) {
      const std::vector<std::size_t> common = common_blocks(part, p, peer);
      std::size_t words = 0;
      for (const std::size_t i : common) words += part.share(i, p).length;
      if (words == 0) continue;
      simt::PooledBuffer buf = machine.pool().acquire(p, words);
      for (const std::size_t i : common) {
        const MatShare s = part.share(i, p);
        buf.append(x_pad.data() + i * b + s.offset, s.length);
      }
      outboxes[p].push_back(Envelope{peer, std::move(buf)});
    }
  }
  exchanger.set_phase("x-symv");
  auto inboxes = exchanger.exchange(std::move(outboxes), transport);

  std::vector<std::map<std::size_t, std::vector<double>>> x_loc(P);
  for (std::size_t p = 0; p < P; ++p) {
    for (const std::size_t i : part.R(p)) {
      auto& blockvec = x_loc[p][i];
      blockvec.assign(b, 0.0);
      const MatShare s = part.share(i, p);
      std::copy_n(x_pad.data() + i * b + s.offset, s.length,
                  blockvec.data() + s.offset);
    }
    for (const Delivery& d : inboxes[p]) {
      std::size_t cursor = 0;
      for (const std::size_t i : common_blocks(part, p, d.from)) {
        const MatShare s = part.share(i, d.from);
        STTSV_CHECK(cursor + s.length <= d.data.size(), "short delivery");
        std::copy_n(d.data.data() + cursor, s.length,
                    x_loc[p][i].data() + s.offset);
        cursor += s.length;
      }
      STTSV_CHECK(cursor == d.data.size(), "long delivery");
    }
  }
  inboxes.clear();

  // Phase 2: block kernels.
  std::vector<std::map<std::size_t, std::vector<double>>> y_loc(P);
  for (std::size_t p = 0; p < P; ++p) {
    for (const std::size_t i : part.R(p)) y_loc[p][i].assign(b, 0.0);
    for (const MatBlockCoord& c : part.owned_blocks(p)) {
      apply_matrix_block(a, c, b, x_loc[p].at(c.i).data(),
                         x_loc[p].at(c.j).data(), y_loc[p].at(c.i).data(),
                         y_loc[p].at(c.j).data());
    }
    x_loc[p].clear();
  }

  // Phase 3: reduce y shares.
  std::vector<std::vector<Envelope>> y_out(P);
  for (std::size_t p = 0; p < P; ++p) {
    for (const std::size_t peer : peers_of(part, p)) {
      const std::vector<std::size_t> common = common_blocks(part, p, peer);
      std::size_t words = 0;
      for (const std::size_t i : common) words += part.share(i, peer).length;
      if (words == 0) continue;
      simt::PooledBuffer buf = machine.pool().acquire(p, words);
      for (const std::size_t i : common) {
        const MatShare s = part.share(i, peer);
        buf.append(y_loc[p].at(i).data() + s.offset, s.length);
      }
      y_out[p].push_back(Envelope{peer, std::move(buf)});
    }
  }
  exchanger.set_phase("y-symv");
  auto y_in = exchanger.exchange(std::move(y_out), transport);

  std::vector<double> y_pad(part.padded_n(), 0.0);
  for (std::size_t p = 0; p < P; ++p) {
    for (const std::size_t i : part.R(p)) {
      const MatShare s = part.share(i, p);
      for (std::size_t off = 0; off < s.length; ++off) {
        y_pad[i * b + s.offset + off] += y_loc[p].at(i)[s.offset + off];
      }
    }
    for (const Delivery& d : y_in[p]) {
      std::size_t cursor = 0;
      for (const std::size_t i : common_blocks(part, p, d.from)) {
        const MatShare s = part.share(i, p);
        STTSV_CHECK(cursor + s.length <= d.data.size(), "short delivery");
        for (std::size_t off = 0; off < s.length; ++off) {
          y_pad[i * b + s.offset + off] += d.data[cursor + off];
        }
        cursor += s.length;
      }
      STTSV_CHECK(cursor == d.data.size(), "long delivery");
    }
  }
  machine.ledger().verify_conservation();

  SymvRunResult result;
  result.y.assign(y_pad.begin(), y_pad.begin() + static_cast<long>(n));
  return result;
}

double optimal_symv_words(std::size_t n, std::size_t q) {
  const double nn = static_cast<double>(n);
  const double qq = static_cast<double>(q);
  return 2.0 * qq * nn / (qq * qq + qq + 1.0);
}

double symv_lower_bound_words(std::size_t n, std::size_t P) {
  const double nn = static_cast<double>(n);
  const double pp = static_cast<double>(P);
  return 2.0 * std::sqrt(nn * (nn - 1.0) / pp) - 2.0 * nn / pp;
}

}  // namespace sttsv::matrix
