#include "core/mttkrp.hpp"

#include <algorithm>
#include <utility>

#include "core/block_kernels.hpp"
#include "core/sttsv_seq.hpp"
#include "partition/exchange_walk.hpp"
#include "support/check.hpp"

namespace sttsv::core {

namespace {

using partition::ExchangeWalk;
using partition::Share;
using partition::TetraPartition;
using partition::VectorDistribution;
using simt::Delivery;
using simt::Envelope;

}  // namespace

std::vector<std::vector<double>> symmetric_mttkrp(
    const tensor::SymTensor3& a,
    const std::vector<std::vector<double>>& columns) {
  std::vector<std::vector<double>> out;
  out.reserve(columns.size());
  for (const auto& col : columns) {
    out.push_back(sttsv_packed(a, col));
  }
  return out;
}

std::vector<std::vector<double>> parallel_symmetric_mttkrp(
    simt::Machine& machine, const TetraPartition& part,
    const VectorDistribution& dist, const tensor::SymTensor3& a,
    const std::vector<std::vector<double>>& columns,
    simt::Transport transport) {
  const std::size_t P = part.num_processors();
  const std::size_t b = dist.block_length_b();
  const std::size_t n = dist.logical_n();
  const std::size_t r = columns.size();
  STTSV_REQUIRE(machine.num_ranks() == P,
                "machine rank count must match partition");
  STTSV_REQUIRE(a.dim() == n, "tensor dimension must match distribution");
  STTSV_REQUIRE(r >= 1, "need at least one column");
  for (const auto& col : columns) {
    STTSV_REQUIRE(col.size() == n, "column length mismatch");
  }

  // Padded column-major copies.
  std::vector<std::vector<double>> x_pad(r,
                                         std::vector<double>(dist.padded_n(),
                                                             0.0));
  for (std::size_t l = 0; l < r; ++l) {
    std::copy(columns[l].begin(), columns[l].end(), x_pad[l].begin());
  }

  // Local row blocks per rank: block i of rank p at walk.local_index(p,
  // i)*r*b, column l of it at offset l*b.
  const ExchangeWalk walk(part, dist);
  const auto at = [&](std::vector<double>& blocks, std::size_t p,
                      std::size_t i, std::size_t l) {
    return blocks.data() + (walk.local_index(p, i) * r + l) * b;
  };

  // Phase 1: batched x exchange — for each (pair, common block, column)
  // the sender's share, columns innermost so unpacking is deterministic.
  std::vector<std::vector<Envelope>> outboxes(P);
  for (std::size_t p = 0; p < P; ++p) {
    for (const ExchangeWalk::PeerExchange& ex : walk.exchanges(p)) {
      if (ex.x_words == 0) continue;
      simt::PooledBuffer buf = machine.pool().acquire(p, ex.x_words * r);
      for (const ExchangeWalk::BlockSlice& s : ex.slices) {
        for (std::size_t l = 0; l < r; ++l) {
          buf.append(x_pad[l].data() + s.block * b + s.sender.offset,
                     s.sender.length);
        }
      }
      outboxes[p].push_back(Envelope{ex.peer, std::move(buf)});
    }
  }
  auto inboxes = machine.exchange(std::move(outboxes), transport);

  std::vector<std::vector<double>> x_loc(P);
  for (std::size_t p = 0; p < P; ++p) {
    x_loc[p].assign(part.R(p).size() * r * b, 0.0);
    for (const std::size_t i : part.R(p)) {
      const Share s = dist.share(i, p);
      for (std::size_t l = 0; l < r; ++l) {
        std::copy_n(x_pad[l].data() + i * b + s.offset, s.length,
                    at(x_loc[p], p, i, l) + s.offset);
      }
    }
    for (const Delivery& d : inboxes[p]) {
      std::size_t cursor = 0;
      for (const ExchangeWalk::BlockSlice& s :
           walk.exchange_between(d.from, p).slices) {
        for (std::size_t l = 0; l < r; ++l) {
          STTSV_CHECK(cursor + s.sender.length <= d.data.size(),
                      "x delivery shorter than expected");
          std::copy_n(d.data.data() + cursor, s.sender.length,
                      at(x_loc[p], p, s.block, l) + s.sender.offset);
          cursor += s.sender.length;
        }
      }
      STTSV_CHECK(cursor == d.data.size(), "x delivery longer than expected");
    }
  }
  inboxes.clear();

  // Phase 2: block kernels per column. Per-rank compute is independent,
  // so it runs on host threads (ledger untouched).
  std::vector<std::vector<double>> y_loc(P);
  machine.run_ranks([&](std::size_t p) {
    y_loc[p].assign(part.R(p).size() * r * b, 0.0);
    for (const partition::BlockCoord& c : walk.owned(p)) {
      for (std::size_t l = 0; l < r; ++l) {
        BlockBuffers buf;
        buf.x[0] = at(x_loc[p], p, c.i, l);
        buf.x[1] = at(x_loc[p], p, c.j, l);
        buf.x[2] = at(x_loc[p], p, c.k, l);
        buf.y[0] = at(y_loc[p], p, c.i, l);
        buf.y[1] = at(y_loc[p], p, c.j, l);
        buf.y[2] = at(y_loc[p], p, c.k, l);
        (void)apply_block(a, c, b, buf);
      }
    }
    x_loc[p] = std::vector<double>();
  });

  // Phase 3: batched partial-y exchange and reduction.
  std::vector<std::vector<Envelope>> y_out(P);
  for (std::size_t p = 0; p < P; ++p) {
    for (const ExchangeWalk::PeerExchange& ex : walk.exchanges(p)) {
      if (ex.y_words == 0) continue;
      simt::PooledBuffer buf = machine.pool().acquire(p, ex.y_words * r);
      for (const ExchangeWalk::BlockSlice& s : ex.slices) {
        for (std::size_t l = 0; l < r; ++l) {
          buf.append(at(y_loc[p], p, s.block, l) + s.receiver.offset,
                     s.receiver.length);
        }
      }
      y_out[p].push_back(Envelope{ex.peer, std::move(buf)});
    }
  }
  auto y_in = machine.exchange(std::move(y_out), transport);

  std::vector<std::vector<double>> y_pad(
      r, std::vector<double>(dist.padded_n(), 0.0));
  for (std::size_t p = 0; p < P; ++p) {
    for (const std::size_t i : part.R(p)) {
      const Share s = dist.share(i, p);
      for (std::size_t l = 0; l < r; ++l) {
        const double* src = at(y_loc[p], p, i, l) + s.offset;
        for (std::size_t off = 0; off < s.length; ++off) {
          y_pad[l][i * b + s.offset + off] += src[off];
        }
      }
    }
    for (const Delivery& d : y_in[p]) {
      std::size_t cursor = 0;
      for (const ExchangeWalk::BlockSlice& s :
           walk.exchange_between(d.from, p).slices) {
        for (std::size_t l = 0; l < r; ++l) {
          STTSV_CHECK(cursor + s.receiver.length <= d.data.size(),
                      "y delivery shorter than expected");
          for (std::size_t off = 0; off < s.receiver.length; ++off) {
            y_pad[l][s.block * b + s.receiver.offset + off] +=
                d.data[cursor + off];
          }
          cursor += s.receiver.length;
        }
      }
      STTSV_CHECK(cursor == d.data.size(), "y delivery longer than expected");
    }
  }
  machine.ledger().verify_conservation();

  std::vector<std::vector<double>> out(r);
  for (std::size_t l = 0; l < r; ++l) {
    out[l].assign(y_pad[l].begin(),
                  y_pad[l].begin() + static_cast<long>(n));
  }
  return out;
}

}  // namespace sttsv::core
